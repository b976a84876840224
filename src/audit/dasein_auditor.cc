#include "audit/dasein_auditor.h"

#include <algorithm>
#include <map>
#include <set>

#include "net/wire.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ledgerdb {

namespace {

constexpr size_t kChunk = 256;

Status Fail(AuditReport* report, const std::string& reason) {
  report->passed = false;
  report->failure_reason = reason;
  LEDGERDB_OBS_COUNT(obs::names::kAuditFailuresTotal);
  return Status::VerificationFailed(reason);
}

/// The request digest a purge/occult journal's endorsements must sign.
Digest MutationRequestHash(const std::string& uri, const MutationPayload& m) {
  using Form = MutationPayload::Form;
  return m.form == Form::kPurge    ? Ledger::PurgeRequestHash(uri, m.jsn)
         : m.form == Form::kOccult ? Ledger::OccultRequestHash(uri, m.jsn)
                                   : Ledger::OccultClueRequestHash(uri, m.clue);
}

/// Π1 = P(O_p) / Π2 = P(O_o) over the batched endorsement results, which
/// are aligned with journal.endorsements.
Status VerifyMutationJournal(const DaseinAuditor::Context& context,
                             const Journal& journal, const uint8_t* endorse_ok,
                             AuditReport* report) {
  // A purge needs a DBA among its signers (member coverage was enforced
  // at purge time); an occult needs DBA and regulator signatures.
  const bool purge = journal.type == JournalType::kPurge;
  bool dba = false, regulator = false;
  for (size_t e = 0; e < journal.endorsements.size(); ++e) {
    if (!endorse_ok[e]) {
      return Fail(report, std::string(purge ? "purge" : "occult") +
                              " endorsement signature invalid");
    }
    ++report->signatures_verified;
    if (context.members != nullptr) {
      const PublicKey& key = journal.endorsements[e].key;
      if (context.members->HasRole(key, Role::kDba)) dba = true;
      if (context.members->HasRole(key, Role::kRegulator)) regulator = true;
    }
  }
  if (context.members != nullptr && !(dba && (purge || regulator))) {
    return Fail(report,
                purge ? "purge journal lacks DBA signature"
                      : "occult journal lacks DBA/regulator signatures");
  }
  ++(purge ? report->purge_journals : report->occult_journals);
  return Status::OK();
}

/// Whether `journal` falls in the audit's temporal predicate.
bool InWindow(const AuditOptions& window, const Journal& journal) {
  return journal.server_ts >= window.from && journal.server_ts <= window.to;
}

/// `finalizations` holds the TSA finalizations whose signature this audit
/// already verified, keyed by the attestation's full bytes.
Status VerifyTimeJournal(const DaseinAuditor::Context& context,
                         const Journal& journal, const LedgerMirror& mirror,
                         std::set<Bytes>* finalizations, AuditReport* report) {
  LEDGERDB_OBS_SPAN(span, obs::stages::kAuditWhen);
  TimeEvidence evidence;
  if (!TimeEvidence::Deserialize(journal.payload, &evidence)) {
    return Fail(report, "time journal payload undecodable");
  }
  if (evidence.mode == TimeNotaryMode::kDirectTsa) {
    if (!evidence.attestation.Verify(context.tsa_key)) {
      return Fail(report, "TSA attestation signature invalid");
    }
    ++report->signatures_verified;
    if (!(evidence.attestation.digest == evidence.ledger_digest)) {
      return Fail(report, "TSA attestation digest mismatch");
    }
  } else {
    if (context.tledger == nullptr) {
      return Fail(report, "T-Ledger evidence but no T-Ledger context");
    }
    // Prerequisite 4: the public T-Ledger is downloadable and verifiable.
    if (!context.tledger->VerifyReceipt(evidence.ledger_digest,
                                         evidence.tledger_receipt)) {
      return Fail(report, "T-Ledger receipt signature invalid");
    }
    ++report->signatures_verified;
    TimeProof time_proof;
    Status s = context.tledger->GetTimeProof(evidence.tledger_index,
                                              &time_proof);
    if (!s.ok()) return Fail(report, "T-Ledger time proof unavailable");
    // One finalization covers every time journal of its window: its TSA
    // signature is verified once per audit, the membership path always.
    const Bytes attestation = time_proof.finalization.Serialize();
    if (finalizations->count(attestation) == 0) {
      if (!time_proof.finalization.Verify(context.tsa_key)) {
        return Fail(report, "T-Ledger time proof invalid");
      }
      ++report->signatures_verified;
      finalizations->insert(attestation);
    }
    if (!TLedger::VerifyTimeProofPath(evidence.ledger_digest, time_proof)) {
      return Fail(report, "T-Ledger time proof invalid");
    }
  }
  // Bind the attested digest to the audited ledger prefix: the mirror's
  // historical fam root at the covered journal count.
  Digest expected_root;
  Status s = mirror.RootAtJournalCount(evidence.covered_jsn_count,
                                       &expected_root);
  if (!s.ok() || !(expected_root == evidence.ledger_digest)) {
    return Fail(report, "time journal digest does not match ledger prefix");
  }
  ++report->time_journals_verified;
  return Status::OK();
}

}  // namespace

/// What the sweep learns that is checked once every journal was seen.
struct DaseinAuditor::Sweep {
  uint64_t purged_before = 0;  ///< highest boundary a verified purge names
  uint64_t missing_end = 0;    ///< one past the last jsn served NotFound
  std::set<uint64_t> occulted;  ///< jsns verified single occults name
  /// clue -> jsn of the last verified occult-clue journal naming it
  std::map<std::string, uint64_t> occulted_clues;
  std::vector<Journal> claims;  ///< journals served as occulted
  std::set<Bytes> finalizations;  ///< TSA finalizations already verified

  /// The first NotFound or occult claim no verified mutation journal
  /// backs, or "" when every claim is backed.
  std::string Unbacked() const {
    // A journal may be missing only where a verified purge erased it, and
    // served as occulted only where a verified occult journal hid it.
    if (missing_end > purged_before) {
      return "journal " + std::to_string(missing_end - 1) +
             " missing above the verified purge boundary";
    }
    for (const Journal& claim : claims) {
      bool covered = occulted.count(claim.jsn) > 0;
      for (const std::string& clue : claim.clues) {
        auto it = occulted_clues.find(clue);
        covered |= it != occulted_clues.end() && it->second > claim.jsn;
      }
      if (!covered) {
        return "journal " + std::to_string(claim.jsn) +
               " served as occulted with no occult journal";
      }
    }
    return "";
  }
};

Status DaseinAuditor::VerifyChunk(const std::vector<Journal>& journals,
                                  const AuditOptions& window,
                                  const LedgerMirror& mirror, Sweep* sweep,
                                  AuditReport* report) const {
  // One job per checked π_c plus one per mutation endorsement; the whole
  // chunk goes through a single VerifyBatch call. Purge and occult
  // journals are always checked: the sweep's NotFound and occult claims
  // rest on them. `requests` is sized up front so the endorsement jobs'
  // message pointers stay stable.
  const size_t count = journals.size();
  std::vector<MutationPayload> mutations(count);
  std::vector<Digest> requests(count);
  std::vector<size_t> sig_job(count, SIZE_MAX), endorse_base(count, 0);
  std::vector<VerifyJob> jobs;
  auto add_job = [&](const PublicKey& key, const Digest& message,
                     const Signature& sig) {
    jobs.push_back({&key, &message, &sig,
                    context_.members != nullptr
                        ? context_.members->FindVerifyContext(key)
                        : nullptr});
  };
  for (size_t i = 0; i < count; ++i) {
    const Journal& journal = journals[i];
    const bool purge = journal.type == JournalType::kPurge;
    const bool mutation = purge || journal.type == JournalType::kOccult;
    if (mutation) {
      if (!MutationPayload::Decode(journal.payload, &mutations[i]) ||
          purge != (mutations[i].form == MutationPayload::Form::kPurge)) {
        return Fail(report, std::string(purge ? "purge" : "occult") +
                                " journal payload undecodable");
      }
      requests[i] = MutationRequestHash(transport_->uri(), mutations[i]);
    }
    if (mutation || InWindow(window, journal)) {
      sig_job[i] = jobs.size();
      add_job(journal.client_key, journal.request_hash, journal.client_sig);
    }
    endorse_base[i] = jobs.size();
    for (size_t e = 0; mutation && e < journal.endorsements.size(); ++e) {
      add_job(journal.endorsements[e].key, requests[i],
              journal.endorsements[e].signature);
    }
  }
  LEDGERDB_OBS_SPAN(span, obs::stages::kAuditWho);
  const std::vector<uint8_t> ok = VerifyBatch(jobs);

  // Consume results in jsn order so failures name the first bad journal.
  for (size_t i = 0; i < count; ++i) {
    const Journal& journal = journals[i];
    if (sig_job[i] != SIZE_MAX) {
      // π_c: the client's non-repudiation signature over the request hash.
      if (!ok[sig_job[i]]) {
        return Fail(report, "client signature invalid at jsn " +
                                std::to_string(journal.jsn));
      }
      ++report->signatures_verified;
      if (context_.members != nullptr &&
          !context_.members->IsRegistered(journal.client_key)) {
        return Fail(report, "journal author is not a registered member");
      }
    }
    const MutationPayload& m = mutations[i];
    switch (journal.type) {
      case JournalType::kPurge:
      case JournalType::kOccult:
        LEDGERDB_RETURN_IF_ERROR(VerifyMutationJournal(
            context_, journal, ok.data() + endorse_base[i], report));
        if (m.form == MutationPayload::Form::kPurge) {
          sweep->purged_before = std::max(sweep->purged_before, m.jsn);
        } else if (m.form == MutationPayload::Form::kOccult) {
          sweep->occulted.insert(m.jsn);
        } else {
          sweep->occulted_clues[m.clue] = journal.jsn;
        }
        break;
      case JournalType::kTime:
        if (InWindow(window, journal)) {
          LEDGERDB_RETURN_IF_ERROR(VerifyTimeJournal(
              context_, journal, mirror, &sweep->finalizations, report));
        }
        break;
      default:
        break;
    }
    if (journal.occulted) sweep->claims.push_back(journal);
    if (InWindow(window, journal)) ++report->journals_replayed;
  }
  return Status::OK();
}

Status DaseinAuditor::VerifyHeaders(const std::vector<BlockHeader>& headers,
                                    const LedgerClient& pinned,
                                    const Receipt* receipt,
                                    AuditReport* report) {
  LEDGERDB_OBS_SPAN(span, obs::stages::kAuditWhat);
  const std::vector<JournalDelta>& committed = pinned.accepted_deltas();
  const LedgerMirror& mirror = pinned.mirror();
  uint64_t next = 0;
  Digest prev;  // the genesis block links to the zero digest
  for (uint64_t h = 0; h < headers.size(); ++h) {
    const BlockHeader& header = headers[h];
    const std::string at = " at height " + std::to_string(h);
    if (header.height != h || header.first_jsn != next ||
        header.journal_count == 0) {
      return Fail(report, "block headers do not tile the journals" + at);
    }
    // A block sealed after the roots were pinned lies beyond this audit.
    if (header.journal_count > committed.size() - next) break;
    // V'(B_{i-1}, B_i): boundary verification across adjacent blocks.
    if (!(header.prev_block_hash == prev)) {
      return Fail(report, "block boundary hash mismatch" + at);
    }
    if (h > 0) ++report->boundaries_verified;
    // V(B_i): the tx root over the committed tx-hashes, and the fam
    // snapshot against the mirror's historical root at the block's end.
    ShrubsAccumulator tx_tree;
    for (; next < header.first_jsn + header.journal_count; ++next) {
      tx_tree.Append(committed[next].tx_hash);
    }
    Digest fam_at_block;
    if (!(tx_tree.Root() == header.tx_root)) {
      return Fail(report, "block tx root mismatch" + at);
    }
    if (!mirror.RootAtJournalCount(next, &fam_at_block).ok() ||
        !(fam_at_block == header.fam_root)) {
      return Fail(report, "block fam root mismatch" + at);
    }
    prev = header.Hash();
    if (receipt != nullptr && receipt->jsn >= header.first_jsn &&
        receipt->jsn < next && !(receipt->block_hash == prev)) {
      return Fail(report, "LSP receipt names another block than its own");
    }
    // Only a chain that reaches the pinned count ends at the pinned roots.
    if (next == committed.size() &&
        !(header.clue_root == mirror.clue_root() &&
          header.state_root == mirror.state_root())) {
      return Fail(report, "last block header contradicts the pinned roots");
    }
    ++report->blocks_verified;
  }
  // The headers tile the sealed prefix [0, next); journals above it are
  // bound by the replay alone. The receipt's journal must be sealed.
  if (receipt != nullptr && (receipt->jsn >= committed.size() ||
                             !(committed[receipt->jsn].tx_hash ==
                               receipt->tx_hash))) {
    return Fail(report, "LSP receipt does not match ledger content");
  }
  if (receipt != nullptr && receipt->jsn >= next) {
    return Fail(report, "LSP receipt names a journal no audited header seals");
  }
  return Status::OK();
}

Status DaseinAuditor::Run(const AuditOptions& window, const Receipt& receipt,
                          AuditReport* report) const {
  // The auditor only reads, so it needs no signing identity. Its audited
  // refresh from an empty mirror pins the roots and every tx-hash.
  LedgerClient pinned(transport_, KeyPair(), options_);
  Status s = pinned.RefreshTrustedRoots();
  if (s.IsVerificationFailed()) return Fail(report, s.message());
  LEDGERDB_RETURN_IF_ERROR(s);
  const std::vector<JournalDelta>& committed = pinned.accepted_deltas();

  // what, steps 1-4: one fetch per journal, bound by its committed
  // tx-hash, with its payload checked against the digest.
  auto fetch = [&](uint64_t jsn, Journal* journal) {
    LEDGERDB_OBS_SPAN(span, obs::stages::kAuditWhat);
    Status st = RetryTransient(
        options_.retry, [&] { return transport_->GetJournal(jsn, journal); });
    if (!st.ok()) return st;
    if (journal->jsn != jsn || !(journal->TxHash() == committed[jsn].tx_hash)) {
      return Fail(report, "journal at jsn " + std::to_string(jsn) +
                              " is not the committed one");
    }
    st = LedgerClient::CheckPayload(*journal);
    return st.ok() ? st : Fail(report, st.message());
  };
  Sweep sweep;
  // Sweeps the pinned journals from `begin` on, in chunks.
  auto sweep_from = [&](uint64_t begin) {
    std::vector<Journal> chunk;
    for (uint64_t jsn = begin; jsn < committed.size(); ++jsn) {
      Journal journal;
      Status st = fetch(jsn, &journal);
      if (st.IsNotFound()) {
        sweep.missing_end = jsn + 1;
      } else {
        LEDGERDB_RETURN_IF_ERROR(st);
        chunk.push_back(std::move(journal));
      }
      if (chunk.size() == kChunk || jsn + 1 == committed.size()) {
        LEDGERDB_RETURN_IF_ERROR(
            VerifyChunk(chunk, window, pinned.mirror(), &sweep, report));
        chunk.clear();
      }
    }
    return Status::OK();
  };
  LEDGERDB_RETURN_IF_ERROR(sweep_from(0));
  std::string unbacked = sweep.Unbacked();
  if (!unbacked.empty()) {
    // The mutation journal may have landed past the pin: advance it once
    // through the same audited refresh, incremental from the mirror, and
    // sweep only the journals it adds.
    const uint64_t pinned_count = committed.size();
    s = pinned.RefreshTrustedRoots();
    if (s.IsVerificationFailed()) return Fail(report, s.message());
    LEDGERDB_RETURN_IF_ERROR(s);
    LEDGERDB_RETURN_IF_ERROR(sweep_from(pinned_count));
    unbacked = sweep.Unbacked();
  }
  if (!unbacked.empty()) return Fail(report, unbacked);

  std::vector<BlockHeader> headers, reply;
  do {
    s = RetryTransient(options_.retry, [&] {
      return transport_->GetHeaders(
          headers.size(), headers.size() + wire::kMaxHeadersPerReply, &reply);
    });
    LEDGERDB_RETURN_IF_ERROR(s);
    headers.insert(headers.end(), reply.begin(), reply.end());
  } while (reply.size() == wire::kMaxHeadersPerReply &&
           headers.size() <= committed.size());
  return VerifyHeaders(headers, pinned, &receipt, report);
}

Status DaseinAuditor::Audit(const Receipt& latest_receipt,
                            const AuditOptions& options,
                            AuditReport* report) const {
  LEDGERDB_OBS_COUNT(obs::names::kAuditAuditsTotal);
  *report = AuditReport();
  // Step 5 starts with the LSP's signature on the receipt (Π3 = P(O_l));
  // Run binds the receipt to the audited journal and header.
  if (!latest_receipt.Verify(options_.lsp_key)) {
    return Fail(report, "LSP receipt signature invalid");
  }
  ++report->signatures_verified;
  LEDGERDB_RETURN_IF_ERROR(Run(options, latest_receipt, report));
  // Step 6: conjunction of all proofs.
  report->passed = true;
  return Status::OK();
}

}  // namespace ledgerdb
