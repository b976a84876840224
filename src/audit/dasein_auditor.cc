#include "audit/dasein_auditor.h"

#include <algorithm>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ledgerdb {

namespace {

Status Fail(AuditReport* report, const std::string& reason) {
  report->passed = false;
  report->failure_reason = reason;
  LEDGERDB_OBS_COUNT(obs::names::kAuditFailuresTotal);
  return Status::VerificationFailed(reason);
}

}  // namespace

Status DaseinAuditor::MutationRequestHash(const Journal& journal,
                                          Digest* request) const {
  MutationPayload m;
  const bool purge = journal.type == JournalType::kPurge;
  if (!MutationPayload::Decode(journal.payload, &m) ||
      purge != (m.form == MutationPayload::Form::kPurge)) {
    return Status::VerificationFailed(std::string(purge ? "purge" : "occult") +
                                      " journal payload undecodable");
  }
  const std::string& uri = context_.ledger->uri();
  switch (m.form) {
    case MutationPayload::Form::kPurge:
      *request = Ledger::PurgeRequestHash(uri, m.jsn);
      break;
    case MutationPayload::Form::kOccult:
      *request = Ledger::OccultRequestHash(uri, m.jsn);
      break;
    case MutationPayload::Form::kOccultClue:
      *request = Ledger::OccultClueRequestHash(uri, m.clue);
      break;
  }
  return Status::OK();
}

Status DaseinAuditor::VerifyPurgeJournal(const Journal& journal,
                                         const uint8_t* endorse_ok,
                                         AuditReport* report) const {
  // Π1 = P(O_p): multi-signatures from DBA and all related members. The
  // membership coverage was enforced at purge time; the audit re-validates
  // every signature (batched by the caller) and the DBA presence over the
  // recorded request.
  bool dba_signed = false;
  for (size_t e = 0; e < journal.endorsements.size(); ++e) {
    if (!endorse_ok[e]) {
      return Fail(report, "purge endorsement signature invalid");
    }
    ++report->signatures_verified;
    if (context_.members != nullptr &&
        context_.members->HasRole(journal.endorsements[e].key, Role::kDba)) {
      dba_signed = true;
    }
  }
  if (context_.members != nullptr && !dba_signed) {
    return Fail(report, "purge journal lacks DBA signature");
  }
  ++report->purge_journals;
  return Status::OK();
}

Status DaseinAuditor::VerifyOccultJournal(const Journal& journal,
                                          const uint8_t* endorse_ok,
                                          AuditReport* report) const {
  // Π2 = P(O_o): regulator and DBA signatures.
  bool dba_signed = false, regulator_signed = false;
  for (size_t e = 0; e < journal.endorsements.size(); ++e) {
    if (!endorse_ok[e]) {
      return Fail(report, "occult endorsement signature invalid");
    }
    ++report->signatures_verified;
    if (context_.members != nullptr) {
      const PublicKey& key = journal.endorsements[e].key;
      if (context_.members->HasRole(key, Role::kDba)) dba_signed = true;
      if (context_.members->HasRole(key, Role::kRegulator)) {
        regulator_signed = true;
      }
    }
  }
  if (context_.members != nullptr && (!dba_signed || !regulator_signed)) {
    return Fail(report, "occult journal lacks DBA/regulator signatures");
  }
  ++report->occult_journals;
  return Status::OK();
}

Status DaseinAuditor::VerifyTimeJournal(const Journal& journal,
                                        AuditReport* report) const {
  TimeEvidence evidence;
  if (!TimeEvidence::Deserialize(journal.payload, &evidence)) {
    return Fail(report, "time journal payload undecodable");
  }
  if (evidence.mode == TimeNotaryMode::kDirectTsa) {
    if (!evidence.attestation.Verify(context_.tsa_key)) {
      return Fail(report, "TSA attestation signature invalid");
    }
    ++report->signatures_verified;
    if (!(evidence.attestation.digest == evidence.ledger_digest)) {
      return Fail(report, "TSA attestation digest mismatch");
    }
  } else {
    if (context_.tledger == nullptr) {
      return Fail(report, "T-Ledger evidence but no T-Ledger context");
    }
    // Prerequisite 4: the public T-Ledger is downloadable and verifiable.
    if (!context_.tledger->VerifyReceipt(evidence.ledger_digest,
                                         evidence.tledger_receipt)) {
      return Fail(report, "T-Ledger receipt signature invalid");
    }
    ++report->signatures_verified;
    TimeProof time_proof;
    Status s = context_.tledger->GetTimeProof(evidence.tledger_index,
                                              &time_proof);
    if (!s.ok()) return Fail(report, "T-Ledger time proof unavailable");
    if (!TLedger::VerifyTimeProof(evidence.ledger_digest, time_proof,
                                  context_.tsa_key)) {
      return Fail(report, "T-Ledger time proof invalid");
    }
    ++report->signatures_verified;
  }
  // Bind the attested digest to the actual ledger prefix: recompute the
  // historical fam root at the covered journal count.
  Digest expected_root;
  Status s = context_.ledger->FamRootAtCount(evidence.covered_jsn_count,
                                             &expected_root);
  if (!s.ok() || !(expected_root == evidence.ledger_digest)) {
    return Fail(report, "time journal digest does not match ledger prefix");
  }
  ++report->time_journals_verified;
  return Status::OK();
}

Status DaseinAuditor::VerifyBlockRange(uint64_t first_block,
                                       uint64_t last_block,
                                       AuditReport* report) const {
  const Ledger& ledger = *context_.ledger;
  const auto& blocks = ledger.blocks();
  for (uint64_t h = first_block; h <= last_block; ++h) {
    const BlockHeader& header = blocks[h];
    // Skip blocks fully or partially erased by purge: Protocol 1 moves the
    // verification datum to the pseudo genesis.
    if (header.first_jsn < ledger.PurgedBoundary()) continue;
    // Replay: recompute the block's tx root from its journals.
    ShrubsAccumulator tx_tree;
    for (uint64_t jsn = header.first_jsn;
         jsn < header.first_jsn + header.journal_count; ++jsn) {
      Journal journal;
      Status s = ledger.GetJournal(jsn, &journal);
      if (!s.ok()) return Fail(report, "journal missing during replay");
      // Occulted journals contribute their retained hash (Protocol 2) —
      // TxHash covers payload_digest, not the erased payload.
      tx_tree.Append(journal.TxHash());
      ++report->journals_replayed;
    }
    if (!(tx_tree.Root() == header.tx_root)) {
      return Fail(report, "block tx root mismatch at height " +
                              std::to_string(h));
    }
    // The block-recorded fam snapshot must match the recomputed historical
    // fam commitment.
    Digest fam_at_block;
    Status s = ledger.FamRootAtCount(
        header.first_jsn + header.journal_count, &fam_at_block);
    if (!s.ok() || !(fam_at_block == header.fam_root)) {
      return Fail(report, "block fam root mismatch at height " +
                              std::to_string(h));
    }
    ++report->blocks_verified;
  }
  return Status::OK();
}

Status DaseinAuditor::VerifyWhatRange(uint64_t begin, uint64_t end,
                                      AuditReport* report) const {
  LEDGERDB_OBS_SPAN(span, obs::stages::kAuditWhat);
  const auto& blocks = context_.ledger->blocks();
  if (blocks.empty()) return Status::OK();
  uint64_t first_block = blocks.size(), last_block = 0;
  for (uint64_t h = 0; h < blocks.size(); ++h) {
    uint64_t b_begin = blocks[h].first_jsn;
    uint64_t b_end = b_begin + blocks[h].journal_count;
    if (b_end > begin && b_begin < end) {
      first_block = std::min(first_block, h);
      last_block = std::max(last_block, h);
    }
  }
  if (first_block >= blocks.size()) return Status::OK();
  LEDGERDB_RETURN_IF_ERROR(VerifyBlockRange(first_block, last_block, report));
  // V'(B_i, B_{i+1}): boundary verification across adjacent blocks.
  for (uint64_t h = first_block + 1; h <= last_block; ++h) {
    if (!(blocks[h].prev_block_hash == blocks[h - 1].Hash())) {
      return Fail(report, "block boundary hash mismatch at height " +
                              std::to_string(h));
    }
    ++report->boundaries_verified;
  }
  return Status::OK();
}

Status DaseinAuditor::VerifyWhen(const AuditOptions& options,
                                 AuditReport* report) const {
  LEDGERDB_OBS_SPAN(span, obs::stages::kAuditWhen);
  const Ledger& ledger = *context_.ledger;
  for (const TimeJournalInfo& info : ledger.time_journals()) {
    Journal journal;
    Status s = ledger.GetJournal(info.jsn, &journal);
    if (s.IsNotFound()) continue;  // purged time journal
    if (!s.ok()) return Fail(report, "time journal unreadable");
    if (journal.server_ts < options.from || journal.server_ts > options.to) {
      continue;
    }
    LEDGERDB_RETURN_IF_ERROR(VerifyTimeJournal(journal, report));
  }
  return Status::OK();
}

Status DaseinAuditor::VerifyWho(uint64_t begin, uint64_t end,
                                AuditReport* report) const {
  LEDGERDB_OBS_SPAN(span, obs::stages::kAuditWho);
  const Ledger& ledger = *context_.ledger;
  constexpr size_t kChunk = 256;
  uint64_t cursor = std::max(begin, ledger.PurgedBoundary());
  while (cursor < end) {
    // Gather a chunk of readable journals (purged positions are skipped).
    std::vector<uint64_t> jsns;
    std::vector<Journal> journals;
    journals.reserve(kChunk);
    for (; cursor < end && journals.size() < kChunk; ++cursor) {
      Journal journal;
      Status s = ledger.GetJournal(cursor, &journal);
      if (s.IsNotFound()) continue;
      if (!s.ok()) return Fail(report, "journal unreadable");
      jsns.push_back(cursor);
      journals.push_back(std::move(journal));
    }
    if (journals.empty()) break;

    // One job per π_c client signature plus one per mutation endorsement;
    // the entire chunk goes through a single VerifyBatch call. `requests`
    // is sized up front so the endorsement jobs' message pointers stay
    // stable.
    const size_t count = journals.size();
    std::vector<Digest> requests(count);
    std::vector<Status> decode(count, Status::OK());
    std::vector<size_t> endorse_base(count, 0);
    std::vector<VerifyJob> jobs;
    jobs.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      const Journal& journal = journals[i];
      VerifyJob job;
      job.key = &journal.client_key;
      job.message = &journal.request_hash;
      job.sig = &journal.client_sig;
      job.ctx = context_.members != nullptr
                    ? context_.members->FindVerifyContext(journal.client_key)
                    : nullptr;
      jobs.push_back(job);
    }
    for (size_t i = 0; i < count; ++i) {
      const Journal& journal = journals[i];
      if (journal.type != JournalType::kPurge &&
          journal.type != JournalType::kOccult) {
        continue;
      }
      decode[i] = MutationRequestHash(journal, &requests[i]);
      if (!decode[i].ok()) continue;
      endorse_base[i] = jobs.size();
      for (const Endorsement& e : journal.endorsements) {
        VerifyJob job;
        job.key = &e.key;
        job.message = &requests[i];
        job.sig = &e.signature;
        job.ctx = context_.members != nullptr
                      ? context_.members->FindVerifyContext(e.key)
                      : nullptr;
        jobs.push_back(job);
      }
    }
    std::vector<uint8_t> ok = VerifyBatch(jobs);

    // Consume results in jsn order so failure attribution matches the
    // scalar sweep exactly.
    for (size_t i = 0; i < count; ++i) {
      const Journal& journal = journals[i];
      // π_c: the client's non-repudiation signature over the request hash.
      if (!ok[i]) {
        return Fail(report, "client signature invalid at jsn " +
                                std::to_string(jsns[i]));
      }
      ++report->signatures_verified;
      if (context_.members != nullptr &&
          !context_.members->IsRegistered(journal.client_key)) {
        return Fail(report, "journal author is not a registered member");
      }
      switch (journal.type) {
        case JournalType::kPurge:
        case JournalType::kOccult:
          if (!decode[i].ok()) {
            return Fail(report, decode[i].message());
          }
          if (journal.type == JournalType::kPurge) {
            LEDGERDB_RETURN_IF_ERROR(VerifyPurgeJournal(
                journal, ok.data() + endorse_base[i], report));
          } else {
            LEDGERDB_RETURN_IF_ERROR(VerifyOccultJournal(
                journal, ok.data() + endorse_base[i], report));
          }
          break;
        default:
          break;
      }
    }
  }
  return Status::OK();
}

Status DaseinAuditor::Audit(const Receipt& latest_receipt,
                            const AuditOptions& options,
                            AuditReport* report) const {
  LEDGERDB_OBS_COUNT(obs::names::kAuditAuditsTotal);
  *report = AuditReport();
  const Ledger& ledger = *context_.ledger;

  // Resolve the temporal predicate to a jsn range ("audit all
  // transactions committed before ..."). Journals outside [from, to] are
  // excluded from the who sweep and the replay.
  uint64_t first = 0, last = ledger.NumJournals();
  if (options.from > std::numeric_limits<Timestamp>::min() ||
      options.to < std::numeric_limits<Timestamp>::max()) {
    first = last;
    uint64_t max_seen = 0;
    for (uint64_t jsn = ledger.PurgedBoundary(); jsn < ledger.NumJournals();
         ++jsn) {
      Journal journal;
      if (!ledger.GetJournal(jsn, &journal).ok()) continue;
      if (journal.server_ts >= options.from &&
          journal.server_ts <= options.to) {
        first = std::min(first, jsn);
        max_seen = std::max(max_seen, jsn + 1);
      }
    }
    last = max_seen;
  }

  // Step 1: prove all purge and occult journals' validity (Π1, Π2) — done
  // inside the who sweep; and steps 3-4 replay + boundary checks (V, V').
  LEDGERDB_RETURN_IF_ERROR(VerifyWho(first, last, report));

  // Step 2: locate and prove time journals within the temporal range.
  LEDGERDB_RETURN_IF_ERROR(VerifyWhen(options, report));

  // Steps 3-4: verify each block range by sequential replay, then the
  // boundaries between adjacent blocks.
  LEDGERDB_RETURN_IF_ERROR(VerifyWhatRange(first, last, report));

  // Step 5: the LSP's latest receipt (Π3 = P(O_l)).
  if (!latest_receipt.Verify(ledger.lsp_key())) {
    return Fail(report, "LSP receipt signature invalid");
  }
  ++report->signatures_verified;
  Journal receipt_journal;
  Status s = ledger.GetJournal(latest_receipt.jsn, &receipt_journal);
  if (!s.ok() ||
      !(receipt_journal.TxHash() == latest_receipt.tx_hash)) {
    return Fail(report, "LSP receipt does not match ledger content");
  }

  // Step 6: conjunction of all proofs.
  report->passed = true;
  return Status::OK();
}

}  // namespace ledgerdb
