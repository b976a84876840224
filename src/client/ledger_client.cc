#include "client/ledger_client.h"

#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace ledgerdb {

LedgerClient::LedgerClient(LedgerTransport* transport, KeyPair identity,
                           Options options)
    : transport_(transport),
      identity_(std::move(identity)),
      options_(std::move(options)),
      mirror_(std::make_unique<LedgerMirror>(options_.fractal_height,
                                             options_.mpt_cache_depth)),
      log_(transport_->uri(), options_.lsp_key) {
  nonce_ = options_.start_nonce;
}

Status LedgerClient::AppendVerified(const Bytes& payload,
                                    const std::vector<std::string>& clues,
                                    uint64_t* jsn, Receipt* receipt) {
  LEDGERDB_OBS_COUNT(obs::names::kClientAppendsTotal);
  ClientTransaction tx;
  tx.ledger_uri = transport_->uri();
  tx.clues = clues;
  tx.payload = payload;
  // The nonce is consumed even if the submission ultimately fails: reusing
  // it for a *different* transaction would be rejected by the server.
  tx.nonce = nonce_++;
  tx.Sign(identity_);
  Digest my_request_hash = tx.RequestHash();

  // Resubmitting after a deadline is safe: the server dedups on
  // (signer, nonce) and replays the original receipt's jsn.
  uint64_t assigned = 0;
  LEDGERDB_RETURN_IF_ERROR(RetryTransient(
      options_.retry, [&] { return transport_->AppendTx(tx, &assigned); }));

  Receipt r;
  LEDGERDB_RETURN_IF_ERROR(RetryTransient(
      options_.retry, [&] { return transport_->GetReceipt(assigned, &r); }));
  // π_s checks: LSP signature, the receipt names the jsn the append
  // claimed, and it commits to MY request.
  if (!r.Verify(options_.lsp_key)) {
    return Status::VerificationFailed("LSP receipt signature invalid");
  }
  if (r.jsn != assigned) {
    return Status::VerificationFailed(
        "receipt names a different jsn than the append returned");
  }
  if (!(r.request_hash == my_request_hash)) {
    return Status::VerificationFailed(
        "receipt does not commit to the submitted transaction (threat-A)");
  }
  receipts_.push_back(r);
  if (jsn != nullptr) *jsn = assigned;
  if (receipt != nullptr) *receipt = r;
  return Status::OK();
}

void LedgerClient::RebuildMirror() {
  mirror_ = std::make_unique<LedgerMirror>(options_.fractal_height,
                                           options_.mpt_cache_depth);
  for (const JournalDelta& d : accepted_deltas_) (void)mirror_->Apply(d);
}

Status LedgerClient::RefreshTrustedRoots(bool* advanced,
                                         EquivocationEvidence* ev) {
  LEDGERDB_OBS_TIMER(refresh_timer, obs::names::kClientRefreshUs);
  LEDGERDB_OBS_COUNT(obs::names::kClientRefreshesTotal);
  if (advanced != nullptr) *advanced = false;
  SignedCommitment c;
  LEDGERDB_RETURN_IF_ERROR(RetryTransient(
      options_.retry, [&] { return transport_->GetCommitment(&c); }));
  // Identity checks before any state is touched.
  if (c.ledger_uri != transport_->uri()) {
    return Status::VerificationFailed("commitment for a different ledger");
  }
  if (!c.Verify(options_.lsp_key)) {
    return Status::VerificationFailed("commitment signature invalid");
  }
  uint64_t have = mirror_->journal_count();
  if (c.journal_count < have) {
    if (ev != nullptr) {
      ev->claimed = c;
      ev->expected_fam_root = trusted_fam_root_;
      ev->at_count = c.journal_count;
      ev->reason = "rollback: commitment count below the audited prefix";
    }
    LEDGERDB_OBS_COUNT(obs::names::kClientEquivocationsTotal);
    return Status::VerificationFailed(
        "commitment rolls back the audited journal count");
  }
  if (c.journal_count > have) {
    // Audit the advance: the claimed delta must reproduce the claimed
    // roots when replayed over our own accumulators.
    std::vector<JournalDelta> delta;
    LEDGERDB_RETURN_IF_ERROR(RetryTransient(options_.retry, [&] {
      return transport_->GetDelta(have, c.journal_count, &delta);
    }));
    if (delta.size() != c.journal_count - have) {
      return Status::VerificationFailed(
          "journal delta does not cover the committed range");
    }
    Status applied = Status::OK();
    for (const JournalDelta& d : delta) {
      applied = mirror_->Apply(d);
      if (!applied.ok()) break;
    }
    if (!applied.ok() || !(mirror_->fam_root() == c.fam_root) ||
        !(mirror_->clue_root() == c.clue_root) ||
        !(mirror_->state_root() == c.state_root)) {
      if (ev != nullptr) {
        ev->claimed = c;
        ev->expected_fam_root = mirror_->fam_root();
        ev->at_count = c.journal_count;
        ev->reason = "committed roots diverge from the replayed delta";
      }
      RebuildMirror();  // discard the speculative apply
      LEDGERDB_OBS_COUNT(obs::names::kClientEquivocationsTotal);
      return Status::VerificationFailed(
          "commitment does not match the journal delta it claims to cover");
    }
    accepted_deltas_.insert(accepted_deltas_.end(), delta.begin(),
                            delta.end());
  } else {
    // Same count: the roots must be exactly what we already derived.
    if (!(mirror_->fam_root() == c.fam_root) ||
        !(mirror_->clue_root() == c.clue_root) ||
        !(mirror_->state_root() == c.state_root)) {
      if (ev != nullptr) {
        ev->claimed = c;
        ev->expected_fam_root = mirror_->fam_root();
        ev->at_count = c.journal_count;
        ev->reason = "two views at the audited journal count";
      }
      LEDGERDB_OBS_COUNT(obs::names::kClientEquivocationsTotal);
      return Status::VerificationFailed(
          "commitment contradicts the audited prefix at the same count");
    }
  }
  // The audit passed; the fork-consistency log gets the final say (it also
  // compares against every previously accepted commitment).
  Status accepted = log_.Accept(c, ev);
  if (!accepted.ok()) {
    LEDGERDB_OBS_COUNT(obs::names::kClientEquivocationsTotal);
    return accepted;
  }
  if (advanced != nullptr) *advanced = c.journal_count > have;
  trusted_fam_root_ = c.fam_root;
  trusted_clue_root_ = c.clue_root;
  trusted_state_root_ = c.state_root;
  return Status::OK();
}

Status LedgerClient::RefreshTrustedRootsUnaudited() {
  SignedCommitment c;
  LEDGERDB_RETURN_IF_ERROR(RetryTransient(
      options_.retry, [&] { return transport_->GetCommitment(&c); }));
  trusted_fam_root_ = c.fam_root;
  trusted_clue_root_ = c.clue_root;
  trusted_state_root_ = c.state_root;
  return Status::OK();
}

Status LedgerClient::CheckJournalContent(const Journal& journal) {
  // Local recomputation: payload must match its retained digest. Only an
  // occulted journal whose payload has actually been erased is exempt —
  // the digest is the record, Protocol 2. An "occulted" journal still
  // carrying bytes must carry the right ones.
  if (!(journal.occulted && journal.payload.empty()) &&
      !(Sha256::Hash(journal.payload) == journal.payload_digest)) {
    return Status::VerificationFailed("payload digest mismatch");
  }
  // who: the author's signature must verify.
  if (!VerifySignature(journal.client_key, journal.request_hash,
                       journal.client_sig)) {
    return Status::VerificationFailed("journal author signature invalid");
  }
  return Status::OK();
}

Status LedgerClient::VerifyJournalAt(const Journal& journal, uint64_t jsn,
                                     const FamProof& proof,
                                     int fractal_height,
                                     const Digest& fam_root) {
  if (journal.jsn != jsn) {
    return Status::VerificationFailed(
        "server returned a journal with a different jsn");
  }
  LEDGERDB_RETURN_IF_ERROR(CheckJournalContent(journal));
  // what: the fam proof must bind the journal at the position this jsn is
  // *required* to occupy — never trust the proof's own labels.
  if (proof.jsn != jsn) {
    return Status::VerificationFailed("fam proof names a different jsn");
  }
  uint64_t expected_epoch = 0;
  uint64_t expected_leaf = 0;
  FamAccumulator::ExpectedLocation(fractal_height, jsn, &expected_epoch,
                                   &expected_leaf);
  if (proof.epoch != expected_epoch ||
      proof.local.leaf_index != expected_leaf) {
    return Status::VerificationFailed(
        "fam proof places the journal at the wrong position for its jsn");
  }
  if (!Ledger::VerifyJournalProof(journal, proof, fam_root)) {
    return Status::VerificationFailed(
        "fam proof does not bind journal to the trusted root");
  }
  return Status::OK();
}

Status LedgerClient::FetchAndVerifyJournal(uint64_t jsn,
                                           Journal* journal) const {
  Journal fetched;
  LEDGERDB_RETURN_IF_ERROR(RetryTransient(
      options_.retry, [&] { return transport_->GetJournal(jsn, &fetched); }));
  FamProof proof;
  LEDGERDB_RETURN_IF_ERROR(RetryTransient(
      options_.retry, [&] { return transport_->GetProof(jsn, &proof); }));
  LEDGERDB_RETURN_IF_ERROR(VerifyJournalAt(fetched, jsn, proof,
                                           options_.fractal_height,
                                           trusted_fam_root_));
  *journal = std::move(fetched);
  return Status::OK();
}

Status LedgerClient::FetchAndVerifyLineage(
    const std::string& clue, std::vector<Journal>* journals) const {
  std::vector<uint64_t> jsns;
  LEDGERDB_RETURN_IF_ERROR(RetryTransient(
      options_.retry, [&] { return transport_->ListTx(clue, &jsns); }));
  std::vector<Journal> fetched;
  std::vector<Digest> digests;
  for (uint64_t jsn : jsns) {
    Journal journal;
    LEDGERDB_RETURN_IF_ERROR(RetryTransient(options_.retry, [&] {
      return transport_->GetJournal(jsn, &journal);
    }));
    if (journal.jsn != jsn) {
      return Status::VerificationFailed(
          "server returned a journal with a different jsn");
    }
    LEDGERDB_RETURN_IF_ERROR(CheckJournalContent(journal));
    digests.push_back(journal.TxHash());
    fetched.push_back(std::move(journal));
  }
  ClueProof proof;
  LEDGERDB_RETURN_IF_ERROR(RetryTransient(options_.retry, [&] {
    return transport_->GetClueProof(clue, 0, 0, &proof);
  }));
  if (proof.clue != clue) {
    return Status::VerificationFailed("clue proof is for a different clue");
  }
  // The lineage must be COMPLETE: the proof commits to the clue's total
  // entry count, so a server hiding entries is caught here.
  if (digests.size() != proof.entry_count) {
    return Status::VerificationFailed(
        "lineage is missing entries the clue proof commits to");
  }
  if (!CmTree::VerifyClueProof(trusted_clue_root_, digests, proof)) {
    return Status::VerificationFailed(
        "clue lineage does not verify against the trusted root");
  }
  *journals = std::move(fetched);
  return Status::OK();
}

Status LedgerClient::BatchAuditRange(const std::string& clue, Timestamp from,
                                     Timestamp to,
                                     std::vector<Journal>* journals,
                                     ClueRangeResult* raw) const {
  LEDGERDB_OBS_COUNT(obs::names::kClientBatchAuditsTotal);
  ClueRangeResult result;
  LEDGERDB_RETURN_IF_ERROR(RetryTransient(options_.retry, [&] {
    return transport_->ProveClueRange(clue, from, to, &result);
  }));
  LEDGERDB_RETURN_IF_ERROR(VerifyClueRange(result, clue, from, to,
                                           options_.fractal_height,
                                           trusted_clue_root_,
                                           trusted_fam_root_));
  *journals = result.journals;
  if (raw != nullptr) *raw = std::move(result);
  return Status::OK();
}

Status LedgerClient::VerifyClueRange(const ClueRangeResult& result,
                                     const std::string& clue, Timestamp from,
                                     Timestamp to, int fractal_height,
                                     const Digest& clue_root,
                                     const Digest& fam_root) {
  if (result.clue != clue) {
    return Status::VerificationFailed("range result is for a different clue");
  }
  if (result.end < result.begin) {
    return Status::VerificationFailed("range result has an inverted range");
  }
  // An honest server answers a window with no entries NotFound; an OK
  // reply must prove at least one entry, or it would pass unchecked.
  if (result.end == result.begin) {
    return Status::VerificationFailed("range result proves no entries");
  }
  // COMPLETENESS over the claimed entry range: every entry in [begin, end)
  // must be present, so a server silently dropping journals from the
  // middle of the range is caught before any crypto runs.
  if (result.journals.size() != result.end - result.begin) {
    return Status::VerificationFailed(
        "range read is missing journals the clue proof covers");
  }
  // Per-journal local checks + the requested time window. The window check
  // is against the SERVER's timestamps; their monotonicity is what makes
  // the range boundaries meaningful (audited via the TSA scheme).
  std::vector<Digest> digests;
  digests.reserve(result.journals.size());
  for (const Journal& journal : result.journals) {
    LEDGERDB_RETURN_IF_ERROR(CheckJournalContent(journal));
    if (journal.server_ts < from || journal.server_ts >= to) {
      return Status::VerificationFailed(
          "range result contains a journal outside [from, to)");
    }
    digests.push_back(journal.TxHash());
  }
  // Clue-lineage binding: each returned journal must sit at clue position
  // begin + i — positions are derived, never read off the proof's labels.
  if (result.clue_proof.clue != clue) {
    return Status::VerificationFailed("clue proof is for a different clue");
  }
  if (result.clue_proof.batch.leaf_indices.size() != digests.size()) {
    return Status::VerificationFailed(
        "clue proof covers a different number of entries than returned");
  }
  for (size_t i = 0; i < digests.size(); ++i) {
    if (result.clue_proof.batch.leaf_indices[i] != result.begin + i) {
      return Status::VerificationFailed(
          "clue proof places an entry at the wrong lineage position");
    }
  }
  if (!CmTree::VerifyClueProof(clue_root, digests, result.clue_proof)) {
    return Status::VerificationFailed(
        "clue range does not verify against the trusted root");
  }
  // Fam existence for the whole batch against ONE refreshed root. A journal
  // listing the clue twice appears at adjacent lineage positions with the
  // same jsn; the fam side deduplicates those but insists the repeated
  // entries are byte-for-byte the same record.
  std::vector<uint64_t> jsns;
  std::vector<Digest> fam_digests;
  jsns.reserve(result.journals.size());
  fam_digests.reserve(result.journals.size());
  for (size_t i = 0; i < result.journals.size(); ++i) {
    uint64_t jsn = result.journals[i].jsn;
    if (!jsns.empty() && jsn == jsns.back()) {
      if (!(digests[i] == fam_digests.back())) {
        return Status::VerificationFailed(
            "repeated jsn in range carries diverging journal content");
      }
      continue;
    }
    jsns.push_back(jsn);
    fam_digests.push_back(digests[i]);
  }
  if (!FamAccumulator::VerifyBatchProof(fractal_height, jsns, fam_digests,
                                        result.fam_batch, fam_root)) {
    return Status::VerificationFailed(
        "fam batch proof does not bind the range to the trusted root");
  }
  return Status::OK();
}

Status LedgerClient::CheckReceiptNamesJournal(const Receipt& receipt,
                                              const Journal& journal) {
  if (journal.jsn != receipt.jsn) {
    return Status::VerificationFailed(
        "server returned a journal with a different jsn");
  }
  if (!(journal.request_hash == receipt.request_hash)) {
    return Status::VerificationFailed(
        "journal request-hash does not match the receipt");
  }
  if (!(journal.TxHash() == receipt.tx_hash)) {
    return Status::VerificationFailed(
        "ledger content diverged from the receipt (threat-C rewrite)");
  }
  return Status::OK();
}

Status LedgerClient::CheckReceiptStillHolds(const Receipt& receipt) const {
  if (!receipt.Verify(options_.lsp_key)) {
    return Status::VerificationFailed("receipt signature invalid");
  }
  Journal journal;
  LEDGERDB_RETURN_IF_ERROR(RetryTransient(options_.retry, [&] {
    return transport_->GetJournal(receipt.jsn, &journal);
  }));
  return CheckReceiptNamesJournal(receipt, journal);
}

Status LedgerClient::VerifyReceipt(const Receipt& receipt) const {
  if (!receipt.Verify(options_.lsp_key)) {
    return Status::VerificationFailed("receipt signature invalid");
  }
  // One fetch: the journal bound to the pinned root is the one compared
  // with the receipt, so a server cannot answer the two checks with
  // different journals.
  Journal journal;
  LEDGERDB_RETURN_IF_ERROR(FetchAndVerifyJournal(receipt.jsn, &journal));
  return CheckReceiptNamesJournal(receipt, journal);
}

Status LedgerClient::CrossCheckCommitments(const LedgerClient& other,
                                           EquivocationEvidence* ev) const {
  for (const SignedCommitment& c : other.log_.entries()) {
    LEDGERDB_RETURN_IF_ERROR(CrossCheckCommitment(c, *mirror_, ev));
  }
  for (const SignedCommitment& c : log_.entries()) {
    LEDGERDB_RETURN_IF_ERROR(CrossCheckCommitment(c, *other.mirror_, ev));
  }
  return Status::OK();
}

}  // namespace ledgerdb
