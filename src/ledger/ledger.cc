#include "ledger/ledger.h"

#include <algorithm>
#include <unordered_set>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ledgerdb {

namespace {

constexpr uint64_t kUnsealedBlock = ~0ULL;

// Purge tombstone frame: retains exactly what the fam tree and CM-Tree
// need to survive recovery — the tx-hash, the payload digest, and the clue
// labels — never the payload. The tag is 8 bytes of 0xff where a journal
// frame carries its little-endian jsn: a journal's jsn always equals its
// stream index, so ~0ULL can never open a legitimate journal frame (a
// single 0xff byte would collide with every jsn ≡ 255 mod 256).
constexpr size_t kTombstoneTagSize = 8;

bool IsTombstoneFrame(Slice raw) {
  if (raw.size() < kTombstoneTagSize) return false;
  for (size_t i = 0; i < kTombstoneTagSize; ++i) {
    if (raw[i] != 0xff) return false;
  }
  return true;
}

// The body after the tag is exactly the purged journal's mirror delta.
Bytes EncodeTombstone(const Journal& journal) {
  Bytes out(kTombstoneTagSize, 0xff);
  Bytes delta =
      JournalDelta{journal.TxHash(), journal.payload_digest, journal.clues}
          .Serialize();
  out.insert(out.end(), delta.begin(), delta.end());
  return out;
}

// Decodes journal stream record `index`: a journal into `journal`, or a
// purge tombstone into `tombstone` (leaving `journal` empty).
// `check_payload` re-verifies the payload against its digest.
Status DecodeStreamRecord(uint64_t index, Slice raw, bool check_payload,
                          std::optional<Journal>* journal,
                          JournalDelta* tombstone) {
  if (IsTombstoneFrame(raw)) {
    Slice body(raw.data() + kTombstoneTagSize, raw.size() - kTombstoneTagSize);
    if (!JournalDelta::Deserialize(body, tombstone)) {
      return Status::Corruption("undecodable purge tombstone");
    }
    return Status::OK();
  }
  Journal& decoded = journal->emplace();
  if (!Journal::Deserialize(raw, &decoded)) {
    return Status::Corruption("undecodable journal record at index " +
                              std::to_string(index));
  }
  if (decoded.jsn != index) {
    return Status::Corruption("journal stream out of order");
  }
  if (index == 0 && decoded.type != JournalType::kGenesis) {
    // Position 0 is either the genesis journal or (after a full purge)
    // its tombstone — anything else means the stream head was replaced.
    return Status::Corruption("journal stream does not begin with genesis");
  }
  // The client's rule: a payload must match its retained digest unless it
  // was erased by an occult, which sets the flag before the erasure.
  if (check_payload && !decoded.PayloadIntact()) {
    return Status::Corruption("journal payload digest mismatch at jsn " +
                              std::to_string(index));
  }
  return Status::OK();
}

// Client-id derivation (SHA-256 + hex) dominates the checkpoint restore
// loop for busy clients; distinct clients are bounded by the member
// registry, so a linear scan over seen keys beats hashing every record.
const std::string& MemoizedKeyId(
    const PublicKey& key, std::vector<std::pair<PublicKey, std::string>>* memo) {
  for (const auto& seen : *memo) {
    if (seen.first == key) return seen.second;
  }
  memo->emplace_back(key, key.Id().ToHex());
  return memo->back().second;
}

// Root of a block's intra-block tx tree.
Digest TxTreeRoot(const std::vector<Digest>& tx_hashes) {
  ShrubsAccumulator tx_tree;
  for (const Digest& tx_hash : tx_hashes) tx_tree.Append(tx_hash);
  return tx_tree.Root();
}

}  // namespace

// ---------------------------------------------------------------------------
// TimeEvidence serialization
// ---------------------------------------------------------------------------

Bytes TimeEvidence::Serialize() const {
  Bytes out;
  out.push_back(static_cast<uint8_t>(mode));
  PutDigest(&out, ledger_digest);
  PutU64(&out, covered_jsn_count);
  Bytes att = attestation.Serialize();
  out.insert(out.end(), att.begin(), att.end());
  PutU64(&out, tledger_index);
  PutU64(&out, tledger_receipt.index);
  PutU64(&out, static_cast<uint64_t>(tledger_receipt.client_ts));
  PutU64(&out, static_cast<uint64_t>(tledger_receipt.tledger_ts));
  Bytes sig = tledger_receipt.lsp_signature.Serialize();
  out.insert(out.end(), sig.begin(), sig.end());
  return out;
}

bool TimeEvidence::Deserialize(Slice raw, TimeEvidence* out) {
  ByteReader r(raw);
  const uint8_t mode = r.U8();
  if (mode > static_cast<uint8_t>(TimeNotaryMode::kTLedger)) return false;
  out->mode = static_cast<TimeNotaryMode>(mode);
  out->ledger_digest = r.Digest();
  out->covered_jsn_count = r.U64();
  // The attestation is embedded at its fixed width, not length-prefixed.
  if (!TimeAttestation::Deserialize(r.Fixed(32 + 8 + 64), &out->attestation)) {
    return false;
  }
  out->tledger_index = r.U64();
  out->tledger_receipt.index = r.U64();
  out->tledger_receipt.client_ts = static_cast<Timestamp>(r.U64());
  out->tledger_receipt.tledger_ts = static_cast<Timestamp>(r.U64());
  return Signature::Deserialize(r.Fixed(64),
                                &out->tledger_receipt.lsp_signature) &&
         r.AtEnd();
}

// ---------------------------------------------------------------------------
// ClueRangeResult wire format
// ---------------------------------------------------------------------------

Bytes ClueRangeResult::Serialize() const {
  Bytes out;
  PutLengthPrefixed(&out, StringToBytes(clue));
  PutU64(&out, begin);
  PutU64(&out, end);
  PutU32(&out, static_cast<uint32_t>(journals.size()));
  for (const Journal& journal : journals) {
    PutLengthPrefixed(&out, journal.Serialize());
  }
  PutLengthPrefixed(&out, clue_proof.Serialize());
  PutLengthPrefixed(&out, fam_batch.Serialize());
  return out;
}

bool ClueRangeResult::Deserialize(Slice raw, ClueRangeResult* out) {
  ByteReader r(raw);
  out->clue = r.LengthPrefixed().ToString();
  out->begin = r.U64();
  out->end = r.U64();
  const uint32_t count = r.Count(1u << 20);
  // The journal list must cover the claimed entry range exactly.
  if (!r.ok() || out->end <= out->begin || out->end - out->begin != count) {
    return false;
  }
  out->journals.assign(count, Journal());
  for (Journal& journal : out->journals) r.Nested(&journal);
  r.Nested(&out->clue_proof);
  r.Nested(&out->fam_batch);
  return r.AtEnd();
}

// ---------------------------------------------------------------------------
// Ledger
// ---------------------------------------------------------------------------

Ledger::Ledger(std::string uri, const LedgerOptions& options, Clock* clock,
               KeyPair lsp_key, const MemberRegistry* members,
               LedgerStorage storage)
    : uri_(std::move(uri)),
      options_(options),
      clock_(clock),
      lsp_key_(std::move(lsp_key)),
      members_(members),
      storage_(storage),
      proof_cache_(options.enable_proof_cache ? std::make_unique<ProofCache>(
                                                    options.proof_cache_bytes)
                                              : nullptr),
      core_(options.fractal_height) {
  if (proof_cache_ != nullptr) core_.fam().SetProofCache(proof_cache_.get());
  // Genesis journal, authored by the LSP. A persist failure here poisons
  // the ledger (init_status()); the partial on-disk image recovers to an
  // explicit error rather than a ledger missing its genesis.
  init_status_ = AppendInternal(JournalType::kGenesis, {},
                                StringToBytes("genesis:" + uri_), {}, nullptr);
}

Ledger::Ledger(RecoveryTag, std::string uri, const LedgerOptions& options,
               Clock* clock, KeyPair lsp_key, const MemberRegistry* members,
               LedgerStorage storage)
    : uri_(std::move(uri)),
      options_(options),
      clock_(clock),
      lsp_key_(std::move(lsp_key)),
      members_(members),
      storage_(storage),
      recovering_(true),
      proof_cache_(options.enable_proof_cache ? std::make_unique<ProofCache>(
                                                    options.proof_cache_bytes)
                                              : nullptr),
      core_(options.fractal_height) {
  if (proof_cache_ != nullptr) core_.fam().SetProofCache(proof_cache_.get());
}

Status Ledger::CommitRun(std::span<Journal* const> run, Status* seal_status) {
  const uint64_t first = journals_.size();
  for (size_t i = 0; i < run.size(); ++i) run[i]->jsn = first + i;

  // Persist first, the whole run with one storage flush: a failed write
  // leaves every accumulator untouched, so memory and disk never disagree
  // about the journal count.
  if (storage_.enabled()) {
    std::vector<Bytes> encoded;
    std::vector<Slice> slices;
    encoded.reserve(run.size());
    slices.reserve(run.size());
    for (const Journal* journal : run) {
      encoded.push_back(journal->Serialize());
      slices.emplace_back(encoded.back());
    }
    uint64_t index = 0;
    LEDGERDB_RETURN_IF_ERROR(storage_.journals->AppendBatch(slices, &index));
    if (index != first) {
      return Status::Corruption("journal stream out of sync with ledger (" +
                                std::to_string(index) + " vs " +
                                std::to_string(first) + ")");
    }
  }

  // The run is durable; thread every journal through the accumulators.
  // A block-boundary seal failure cannot fail the journals themselves —
  // they are on disk, and the boundary stays queued for the next seal.
  for (Journal* journal : run) {
    Status apply = ApplyCommitted(std::move(*journal));
    if (!apply.ok() && seal_status->ok()) *seal_status = apply;
  }
  return Status::OK();
}

Status Ledger::ApplyCommitted(Journal journal) {
  const uint64_t jsn = journals_.size();
  JournalDelta delta{journal.TxHash(), journal.payload_digest, journal.clues};
  // The bookkeeping follows the fam count even if a clue transition
  // fails, so the error is returned after it.
  Status applied = core_.Apply(delta);
  IndexRecord(std::move(delta), std::move(journal));
  ApplyJournalEffects(*journals_[jsn]);
  LEDGERDB_RETURN_IF_ERROR(applied);
  if (recovering_) return Status::OK();
  pending_block_.push_back(jsn);
  if (pending_block_.size() < options_.block_capacity) return Status::OK();
  return SealBlock();
}

void Ledger::IndexRecord(JournalDelta delta, std::optional<Journal> journal,
                         KeyIdMemo* key_ids) {
  const uint64_t jsn = journals_.size();
  for (const std::string& clue : delta.clues) clue_index_.Append(clue, jsn);
  delta_log_.push_back(std::move(delta));
  occult_bitmap_.Resize(jsn + 1);
  if (journal.has_value()) {
    if (journal->client_key.valid()) {
      const DedupEntry entry{jsn, journal->request_hash};
      if (key_ids != nullptr) {
        dedup_[MemoizedKeyId(journal->client_key, key_ids)][journal->nonce] =
            entry;
      } else {
        dedup_[journal->client_key.Id().ToHex()][journal->nonce] = entry;
      }
    }
    // Keeps the monotone-stamp high-water mark in sync on recovery,
    // where journals arrive with their recorded timestamps.
    last_server_ts_ = std::max(last_server_ts_, journal->server_ts);
    // Recovered records carry their occult flag (both occult forms); the
    // settle step checks whether their payload still awaits erasure.
    if (journal->occulted) {
      occult_bitmap_.Set(jsn);
      unsettled_occult_.push_back(jsn);
    }
  }
  journals_.push_back(std::move(journal));
  jsn_to_block_.push_back(kUnsealedBlock);
}

Status Ledger::AppendInternal(JournalType type,
                              const std::vector<std::string>& clues,
                              Bytes payload,
                              std::vector<Endorsement> endorsements,
                              uint64_t* jsn) {
  ClientTransaction tx;
  tx.ledger_uri = uri_;
  tx.type = type;
  tx.clues = clues;
  tx.payload = std::move(payload);
  tx.nonce = journals_.size();
  tx.client_ts = clock_->Now();
  tx.Sign(lsp_key_);

  Journal journal;
  journal.type = type;
  journal.nonce = tx.nonce;
  journal.server_ts = StampServerTime();
  journal.clues = clues;
  journal.payload = tx.payload;
  journal.payload_digest = Sha256::Hash(tx.payload);
  journal.request_hash = tx.RequestHash();
  journal.client_key = tx.client_key;
  journal.client_sig = tx.client_sig;
  journal.endorsements = std::move(endorsements);
  // LSP journals skip the client dedup screen and the append counter.
  Journal* run[] = {&journal};
  Status seal_status;
  LEDGERDB_RETURN_IF_ERROR(CommitRun(run, &seal_status));
  if (jsn != nullptr) *jsn = journals_.size() - 1;
  return seal_status;
}

Status Ledger::Prevalidate(const ClientTransaction& tx,
                           PrevalidatedTx* out) const {
  const ClientTransaction* ptr = &tx;
  Status status;
  PrevalidateBatch(std::span<const ClientTransaction* const>(&ptr, 1), out,
                   &status);
  return status;
}

void Ledger::PrevalidateBatch(std::span<const ClientTransaction* const> txs,
                              PrevalidatedTx* outs, Status* statuses) const {
  LEDGERDB_OBS_SPAN(span, obs::stages::kPrevalidate);
  const size_t n = txs.size();
  // Cheap per-tx screening first; only transactions that survive it enter
  // the batched π_c check. who (π_c): reject unsigned or mis-signed
  // transactions at the door (threat-A: tamper-on-receipt becomes
  // client-detectable). Each request hash is computed once and reused for
  // the journal record below.
  std::vector<Digest> request_hashes(n);
  std::vector<VerifyJob> jobs(n);
  for (size_t i = 0; i < n; ++i) {
    const ClientTransaction& tx = *txs[i];
    if (tx.ledger_uri != uri_) {
      statuses[i] =
          Status::InvalidArgument("transaction addressed to another ledger");
      continue;
    }
    if (tx.type != JournalType::kNormal) {
      statuses[i] = Status::PermissionDenied(
          "clients may only append normal journals; mutations use "
          "Purge/Occult APIs");
      continue;
    }
    statuses[i] = Status::OK();
    request_hashes[i] = tx.RequestHash();
    jobs[i].key = &tx.client_key;
    jobs[i].message = &request_hashes[i];
    jobs[i].sig = &tx.client_sig;
    jobs[i].ctx = members_ != nullptr
                      ? members_->FindVerifyContext(tx.client_key)
                      : nullptr;
  }

  // The whole chunk's signature checks share one batched s⁻¹ inversion
  // and one batched R-point normalization; a null-key job (screened out
  // above) simply reports false without touching its neighbors.
  std::vector<uint8_t> sig_ok = VerifyBatch(jobs);

  for (size_t i = 0; i < n; ++i) {
    if (!statuses[i].ok()) continue;
    const ClientTransaction& tx = *txs[i];
    if (!sig_ok[i]) {
      statuses[i] = Status::VerificationFailed("client signature invalid");
      continue;
    }
    if (members_ != nullptr && !members_->IsRegistered(tx.client_key)) {
      statuses[i] = Status::PermissionDenied(
          "client is not a registered member");
      continue;
    }
    Journal& journal = outs[i].journal;
    journal.type = JournalType::kNormal;
    journal.nonce = tx.nonce;
    journal.clues = tx.clues;
    journal.payload = tx.payload;
    journal.payload_digest = Sha256::Hash(tx.payload);
    journal.request_hash = request_hashes[i];
    journal.client_key = tx.client_key;
    journal.client_sig = tx.client_sig;
  }
}

Status Ledger::Append(const ClientTransaction& tx, uint64_t* jsn) {
  std::vector<PrevalidatedTx> batch(1);
  LEDGERDB_RETURN_IF_ERROR(Prevalidate(tx, &batch[0]));
  std::vector<uint64_t> jsns;
  std::vector<Status> statuses;
  Status status = CommitPrevalidatedGroup(std::move(batch), &jsns, &statuses);
  LEDGERDB_RETURN_IF_ERROR(statuses[0]);
  if (jsn != nullptr) *jsn = jsns[0];
  return status;
}

Status Ledger::CommitPrevalidatedGroup(std::vector<PrevalidatedTx>&& batch,
                                       std::vector<uint64_t>* jsns,
                                       std::vector<Status>* statuses) {
  LEDGERDB_OBS_SPAN(span, obs::stages::kCommit);
  const size_t n = batch.size();
  jsns->assign(n, 0);
  statuses->assign(n, Status::OK());

  // Idempotent append, screened on the committer thread so concurrent
  // const Prevalidate calls never race the map: a resubmission of an
  // already-committed transaction (same signer, nonce and request hash —
  // e.g. a client retrying after a lost response) converges on the
  // original jsn and drops out of the group; a *different* transaction
  // reusing a nonce fails alone. Within-group duplicates are resolved
  // against the jsns being assigned right here, so the group commits the
  // same set a serial replay of the batch would.
  std::vector<size_t> live;  // indexes into `batch` that will commit
  live.reserve(n);
  std::vector<size_t> group_hits;  // converged on a jsn assigned this group
  std::unordered_map<std::string, std::unordered_map<uint64_t, size_t>>
      group_nonces;  // signer -> nonce -> index into `batch`
  for (size_t i = 0; i < n; ++i) {
    Journal& journal = batch[i].journal;
    if (journal.client_key.valid()) {
      const std::string signer_id = journal.client_key.Id().ToHex();
      const DedupEntry* prior = nullptr;
      DedupEntry group_entry;
      auto signer = dedup_.find(signer_id);
      if (signer != dedup_.end()) {
        auto hit = signer->second.find(journal.nonce);
        if (hit != signer->second.end()) prior = &hit->second;
      }
      if (prior == nullptr) {
        auto in_group = group_nonces.find(signer_id);
        if (in_group != group_nonces.end()) {
          auto hit = in_group->second.find(journal.nonce);
          if (hit != in_group->second.end()) {
            const Journal& earlier = batch[hit->second].journal;
            group_entry = {earlier.jsn, earlier.request_hash};
            prior = &group_entry;
          }
        }
      }
      if (prior != nullptr) {
        if (prior->request_hash == journal.request_hash) {
          (*jsns)[i] = prior->jsn;
          if (prior == &group_entry) group_hits.push_back(i);
          LEDGERDB_OBS_COUNT(obs::names::kLedgerDedupHitsTotal);
        } else {
          (*statuses)[i] = Status::AlreadyExists(
              "nonce already used by a different transaction");
          LEDGERDB_OBS_COUNT(obs::names::kLedgerAppendFailuresTotal);
        }
        continue;
      }
      group_nonces[signer_id][journal.nonce] = i;
    }
    journal.server_ts = StampServerTime();
    journal.jsn = journals_.size() + live.size();
    live.push_back(i);
  }
  if (live.empty()) return Status::OK();

  // One storage flush for the whole group. A persist failure fails every
  // surviving journal and leaves the ledger untouched — the group is
  // all-or-nothing, matching AppendBatch's durability contract.
  std::vector<Journal*> run;
  run.reserve(live.size());
  for (size_t idx : live) run.push_back(&batch[idx].journal);
  const uint64_t first = journals_.size();
  Status seal_status;
  Status persist = CommitRun(run, &seal_status);
  if (!persist.ok()) {
    for (size_t idx : live) {
      (*statuses)[idx] = persist;
      LEDGERDB_OBS_COUNT(obs::names::kLedgerAppendFailuresTotal);
    }
    // Dedup hits that converged on a jsn assigned within this failed
    // group point at journals that never committed.
    for (size_t idx : group_hits) {
      (*statuses)[idx] = persist;
      (*jsns)[idx] = 0;
    }
    return persist;
  }
  for (size_t k = 0; k < live.size(); ++k) {
    (*jsns)[live[k]] = first + k;
    LEDGERDB_OBS_COUNT(obs::names::kLedgerAppendsTotal);
  }
  return seal_status;
}

Status Ledger::SealBlock() {
  if (pending_block_.empty()) return Status::OK();
  LEDGERDB_OBS_SPAN(span, obs::stages::kSeal);
  std::vector<Digest> tx_hashes;
  tx_hashes.reserve(pending_block_.size());
  for (uint64_t jsn : pending_block_) {
    tx_hashes.push_back(delta_log_[jsn].tx_hash);
  }
  BlockHeader header;
  header.height = blocks_.size();
  header.first_jsn = pending_block_.front();
  header.journal_count = static_cast<uint32_t>(pending_block_.size());
  header.timestamp = clock_->Now();
  header.prev_block_hash = blocks_.empty() ? Digest() : blocks_.back().Hash();
  header.tx_root = TxTreeRoot(tx_hashes);
  header.fam_root = core_.fam_root();
  header.clue_root = core_.clue_root();
  header.state_root = core_.state_root();
  // Persist before publishing. A failed header write keeps the journals in
  // pending_block_; recovery simply sees them as not-yet-sealed.
  if (storage_.enabled()) {
    uint64_t index = 0;
    LEDGERDB_RETURN_IF_ERROR(
        storage_.blocks->Append(Slice(header.Serialize()), &index));
  }
  for (uint64_t jsn : pending_block_) jsn_to_block_[jsn] = header.height;
  blocks_.push_back(header);
  pending_block_.clear();
  LEDGERDB_OBS_COUNT(obs::names::kLedgerBlocksSealedTotal);
  // Seal published: the roots moved past every cached serialized proof's
  // stamp, so reclaim those bytes now (stale stamps are never served
  // regardless — this is garbage collection, not correctness).
  if (proof_cache_ != nullptr) proof_cache_->DropBlobs();
  return Status::OK();
}

Status Ledger::GetReceipt(uint64_t jsn, Receipt* receipt) {
  if (jsn >= journals_.size()) return Status::NotFound("no such journal");
  if (jsn < purged_boundary_ || !journals_[jsn].has_value()) {
    return Status::NotFound("journal purged");
  }
  // Receipts commit at block granularity: an unsealed journal's block is
  // sealed now, as it stands.
  if (jsn_to_block_[jsn] == kUnsealedBlock) {
    LEDGERDB_RETURN_IF_ERROR(SealBlock());
  }
  const Journal& journal = *journals_[jsn];
  receipt->jsn = jsn;
  receipt->request_hash = journal.request_hash;
  receipt->tx_hash = journal.TxHash();
  receipt->block_hash = blocks_[jsn_to_block_[jsn]].Hash();
  receipt->timestamp = clock_->Now();
  receipt->lsp_sig = lsp_key_.Sign(receipt->MessageHash());
  return Status::OK();
}

Status Ledger::GetCommitment(SignedCommitment* out) const {
  out->ledger_uri = uri_;
  out->journal_count = NumJournals();
  out->fam_root = core_.fam_root();
  out->clue_root = core_.clue_root();
  out->state_root = core_.state_root();
  out->timestamp = clock_->Now();
  out->lsp_sig = lsp_key_.Sign(out->MessageHash());
  return Status::OK();
}

Status Ledger::GetDelta(uint64_t from, uint64_t to,
                        std::vector<JournalDelta>* out) const {
  if (from > to || to > delta_log_.size()) {
    return Status::OutOfRange("delta range beyond ledger size");
  }
  out->assign(delta_log_.begin() + static_cast<long>(from),
              delta_log_.begin() + static_cast<long>(to));
  return Status::OK();
}

Timestamp Ledger::StampServerTime() {
  last_server_ts_ = std::max(last_server_ts_, clock_->Now());
  return last_server_ts_;
}

Status Ledger::GetJournal(uint64_t jsn, Journal* out) const {
  if (jsn >= journals_.size()) return Status::NotFound("no such journal");
  if (!journals_[jsn].has_value()) return Status::NotFound("journal purged");
  *out = *journals_[jsn];
  if (occult_bitmap_.Get(jsn)) {
    // Protocol 2: the payload is unretrievable; the retained digest stands
    // in for the original journal during verification.
    out->occulted = true;
    out->payload.clear();
  }
  return Status::OK();
}

Status Ledger::GetHeaders(uint64_t first, uint64_t end,
                          std::vector<BlockHeader>* out) const {
  end = std::min<uint64_t>(end, blocks_.size());
  if (first > end) return Status::OutOfRange("header range beyond the chain");
  out->assign(blocks_.data() + first, blocks_.data() + end);
  return Status::OK();
}

Status Ledger::ListTx(const std::string& clue,
                      std::vector<uint64_t>* jsns) const {
  const std::vector<uint64_t>* postings = clue_index_.Find(clue);
  if (postings == nullptr) return Status::NotFound("unknown clue");
  *jsns = *postings;
  return Status::OK();
}

Status Ledger::GetProof(uint64_t jsn, FamProof* proof) const {
  LEDGERDB_OBS_SPAN(span, obs::stages::kProofBuild);
  return core_.fam().GetProof(jsn, proof);
}

Status Ledger::GetProofAnchored(uint64_t jsn, const TrustedAnchor& anchor,
                                FamProof* proof) const {
  LEDGERDB_OBS_SPAN(span, obs::stages::kProofBuild);
  return core_.fam().GetProofAnchored(jsn, anchor, proof);
}

Status Ledger::MakeAnchor(TrustedAnchor* anchor) const {
  return core_.fam().MakeAnchor(anchor);
}

bool Ledger::VerifyJournalProof(const Journal& journal, const FamProof& proof,
                                const Digest& trusted_fam_root) {
  return FamAccumulator::VerifyProof(journal.TxHash(), proof,
                                     trusted_fam_root);
}

Status Ledger::GetClueProof(const std::string& clue, uint64_t begin,
                            uint64_t end, ClueProof* proof) const {
  LEDGERDB_OBS_SPAN(span, obs::stages::kProofBuild);
  return core_.cmtree().GetClueProof(clue, begin, end, proof);
}

Status Ledger::GetProofBatch(const std::vector<uint64_t>& jsns,
                             FamBatchProof* proof) const {
  LEDGERDB_OBS_SPAN(span, obs::stages::kProofBuild);
  LEDGERDB_OBS_OBSERVE(obs::names::kLedgerBatchProofJournalsCount,
                       jsns.size());
  return core_.fam().GetBatchProof(jsns, proof);
}

Status Ledger::ProveClueRangeWire(const std::string& clue, Timestamp from,
                                  Timestamp to, Bytes* wire) const {
  // Keyed by the client's query parameters, stamped by the fam root: the
  // root commits the whole append sequence, and every response field —
  // the resolved [begin, end), the journals, both proofs — is a pure
  // function of that sequence plus the query, so a stamp match makes the
  // served bytes identical to a fresh build. Error results (e.g. an
  // empty range) are never memoized.
  std::string key;
  Digest stamp;
  if (proof_cache_ != nullptr) {
    key = "range|" + clue + "|" + std::to_string(from) + "|" +
          std::to_string(to);
    stamp = core_.fam_root();
    if (proof_cache_->LookupBlob(key, stamp, wire)) return Status::OK();
  }
  ClueRangeResult result;
  {
    LEDGERDB_OBS_SPAN(span, obs::stages::kProofBuild);
    LEDGERDB_OBS_COUNT(obs::names::kLedgerRangeProofsTotal);
    uint64_t begin = 0, end = 0;
    LEDGERDB_RETURN_IF_ERROR(ResolveClueRange(clue, from, to, &begin, &end));
    const std::vector<uint64_t>* postings = clue_index_.Find(clue);
    if (postings == nullptr) return Status::NotFound("unknown clue");
    result.clue = clue;
    result.begin = begin;
    result.end = end;
    result.journals.reserve(end - begin);
    std::vector<uint64_t> jsns;
    jsns.reserve(end - begin);
    for (uint64_t i = begin; i < end; ++i) {
      uint64_t jsn = (*postings)[i];
      Journal journal;
      LEDGERDB_RETURN_IF_ERROR(GetJournal(jsn, &journal));
      result.journals.push_back(std::move(journal));
      jsns.push_back(jsn);
    }
    LEDGERDB_RETURN_IF_ERROR(
        GetClueProof(clue, begin, end, &result.clue_proof));
    LEDGERDB_RETURN_IF_ERROR(GetProofBatch(jsns, &result.fam_batch));
  }
  *wire = result.Serialize();
  if (proof_cache_ != nullptr) proof_cache_->InsertBlob(key, stamp, *wire);
  return Status::OK();
}

Status Ledger::AnchorTime(uint64_t* time_jsn) {
  if (direct_tsa_ == nullptr && tledger_ == nullptr && tsa_pool_ == nullptr) {
    return Status::InvalidArgument("no time notary attached");
  }
  TimeEvidence evidence;
  evidence.ledger_digest = FamRoot();
  evidence.covered_jsn_count = NumJournals();
  if (tledger_ != nullptr) {
    evidence.mode = TimeNotaryMode::kTLedger;
    TLedgerReceipt receipt;
    LEDGERDB_RETURN_IF_ERROR(
        tledger_->Submit(evidence.ledger_digest, clock_->Now(), &receipt));
    evidence.tledger_index = receipt.index;
    evidence.tledger_receipt = receipt;
  } else if (tsa_pool_ != nullptr) {
    evidence.mode = TimeNotaryMode::kDirectTsa;
    evidence.attestation = tsa_pool_->Endorse(evidence.ledger_digest);
  } else {
    evidence.mode = TimeNotaryMode::kDirectTsa;
    // Protocol 3: TSA endorses, and the signed pair is anchored back as a
    // time journal below.
    evidence.attestation = direct_tsa_->Endorse(evidence.ledger_digest);
  }
  return AppendInternal(JournalType::kTime, {}, evidence.Serialize(), {},
                        time_jsn);
}

// ---------------------------------------------------------------------------
// Purge
// ---------------------------------------------------------------------------

Digest Ledger::PurgeRequestHash(const std::string& uri,
                                uint64_t purge_before_jsn) {
  Bytes buf = StringToBytes("purge-request");
  PutLengthPrefixed(&buf, StringToBytes(uri));
  PutU64(&buf, purge_before_jsn);
  return Sha256::Hash(buf);
}

Digest Ledger::OccultRequestHash(const std::string& uri, uint64_t jsn) {
  Bytes buf = StringToBytes("occult-request");
  PutLengthPrefixed(&buf, StringToBytes(uri));
  PutU64(&buf, jsn);
  return Sha256::Hash(buf);
}

Status Ledger::Purge(uint64_t purge_before_jsn,
                     const std::vector<Endorsement>& endorsements,
                     const std::vector<uint64_t>& survivors,
                     uint64_t* purge_jsn) {
  if (purge_before_jsn <= purged_boundary_) {
    return Status::InvalidArgument("purge point before current boundary");
  }
  if (purge_before_jsn > journals_.size()) {
    return Status::OutOfRange("purge point beyond ledger size");
  }

  // Prerequisite 1: multi-signatures from a DBA and every member owning a
  // journal before the purge point.
  Digest request = PurgeRequestHash(uri_, purge_before_jsn);
  std::unordered_set<std::string> signers;
  bool dba_signed = false;
  for (const Endorsement& e : endorsements) {
    if (!VerifySignature(e.key, request, e.signature)) {
      return Status::VerificationFailed("invalid purge endorsement signature");
    }
    signers.insert(e.key.Id().ToHex());
    if (members_ != nullptr && members_->HasRole(e.key, Role::kDba)) {
      dba_signed = true;
    }
  }
  if (members_ != nullptr && !dba_signed) {
    return Status::PermissionDenied("purge requires a DBA signature");
  }
  for (uint64_t jsn = purged_boundary_; jsn < purge_before_jsn; ++jsn) {
    if (!journals_[jsn].has_value()) continue;
    const Journal& journal = *journals_[jsn];
    if (!journal.client_key.valid()) continue;
    if (journal.client_key == lsp_key_.public_key()) continue;  // LSP-authored
    if (signers.count(journal.client_key.Id().ToHex()) == 0) {
      return Status::PermissionDenied(
          "purge requires signatures from all affected members");
    }
  }
  for (uint64_t jsn : survivors) {
    if (jsn < purged_boundary_ || jsn >= purge_before_jsn ||
        !journals_[jsn].has_value()) {
      return Status::InvalidArgument("survivor outside purge range");
    }
  }

  // Snapshot states at the purge point (clue and membership status live on
  // in the pseudo genesis).
  Bytes snapshot = StringToBytes("pseudo-genesis");
  PutU64(&snapshot, purge_before_jsn);
  PutDigest(&snapshot, core_.fam_root());
  PutDigest(&snapshot, core_.clue_root());
  PutDigest(&snapshot, core_.state_root());
  const uint64_t first = journals_.size();
  uint64_t pg_jsn = 0;
  Status status = AppendInternal(JournalType::kPseudoGenesis, {},
                                 std::move(snapshot), {}, &pg_jsn);
  if (journals_.size() == first) return status;

  // The purge journal, doubly linked with the pseudo genesis for mutual
  // proving and fast locating. Once it is durable its effects hold, even
  // if the block seal after it failed.
  MutationPayload purge;
  purge.form = MutationPayload::Form::kPurge;
  purge.jsn = purge_before_jsn;
  purge.pseudo_genesis_jsn = pg_jsn;
  uint64_t pj = 0;
  Status purged =
      AppendInternal(JournalType::kPurge, {}, purge.Encode(), endorsements, &pj);
  if (status.ok()) status = purged;
  if (journals_.size() == first + 1) return status;

  // Copy milestone journals into the survival stream before the settle
  // step tombstones them.
  for (uint64_t jsn : survivors) {
    uint64_t index;
    survival_stream_.Append(Slice(journals_[jsn]->Serialize()), &index);
  }
  Status settled = SettleJournalEffects();
  if (purge_jsn != nullptr) *purge_jsn = pj;
  return status.ok() ? settled : status;
}

// ---------------------------------------------------------------------------
// Occult
// ---------------------------------------------------------------------------

Status Ledger::Occult(uint64_t jsn, const std::vector<Endorsement>& endorsements,
                      uint64_t* occult_jsn) {
  if (jsn >= journals_.size() || !journals_[jsn].has_value()) {
    return Status::NotFound("no such journal");
  }
  if (occult_bitmap_.Get(jsn)) return Status::AlreadyExists("already occulted");
  if (journals_[jsn]->type != JournalType::kNormal) {
    return Status::InvalidArgument("only normal journals can be occulted");
  }

  // Prerequisite 2: DBA + regulator multi-signatures.
  Digest request = OccultRequestHash(uri_, jsn);
  bool dba_signed = false, regulator_signed = false;
  for (const Endorsement& e : endorsements) {
    if (!VerifySignature(e.key, request, e.signature)) {
      return Status::VerificationFailed("invalid occult endorsement signature");
    }
    if (members_ != nullptr) {
      if (members_->HasRole(e.key, Role::kDba)) dba_signed = true;
      if (members_->HasRole(e.key, Role::kRegulator)) regulator_signed = true;
    }
  }
  if (members_ != nullptr && (!dba_signed || !regulator_signed)) {
    return Status::PermissionDenied(
        "occult requires DBA and regulator signatures");
  }

  // The occult journal commits first: its effects hide the journal, and
  // the settle step then erases the payload or queues it. A crash in
  // between leaves the journal for recovery to replay, where the reverse
  // order could leave a journal hidden that no occult journal authorizes.
  MutationPayload occult;
  occult.form = MutationPayload::Form::kOccult;
  occult.jsn = jsn;
  return CommitOccult(occult, endorsements, occult_jsn);
}

Status Ledger::CommitOccult(const MutationPayload& occult,
                            const std::vector<Endorsement>& endorsements,
                            uint64_t* occult_jsn) {
  const size_t before = journals_.size();
  Status status = AppendInternal(JournalType::kOccult, {}, occult.Encode(),
                                 endorsements, occult_jsn);
  if (journals_.size() == before) return status;
  Status settled = SettleJournalEffects();
  return status.ok() ? settled : status;
}

Digest Ledger::OccultClueRequestHash(const std::string& uri,
                                     const std::string& clue) {
  Bytes buf = StringToBytes("occult-clue-request");
  PutLengthPrefixed(&buf, StringToBytes(uri));
  PutLengthPrefixed(&buf, StringToBytes(clue));
  return Sha256::Hash(buf);
}

Status Ledger::OccultByClue(const std::string& clue,
                            const std::vector<Endorsement>& endorsements,
                            size_t* occulted_count, uint64_t* occult_jsn) {
  const std::vector<uint64_t>* postings = clue_index_.Find(clue);
  if (postings == nullptr) return Status::NotFound("unknown clue");

  // Prerequisite 2, at clue granularity.
  Digest request = OccultClueRequestHash(uri_, clue);
  bool dba_signed = false, regulator_signed = false;
  for (const Endorsement& e : endorsements) {
    if (!VerifySignature(e.key, request, e.signature)) {
      return Status::VerificationFailed("invalid occult endorsement signature");
    }
    if (members_ != nullptr) {
      if (members_->HasRole(e.key, Role::kDba)) dba_signed = true;
      if (members_->HasRole(e.key, Role::kRegulator)) regulator_signed = true;
    }
  }
  if (members_ != nullptr && (!dba_signed || !regulator_signed)) {
    return Status::PermissionDenied(
        "occult requires DBA and regulator signatures");
  }

  // The clue journal commits first, as in the single-journal form. Its
  // payload carries the count of the postings its effects will hide.
  const size_t hidden = static_cast<size_t>(
      std::count_if(postings->begin(), postings->end(),
                    [&](uint64_t jsn) { return OccultableByClue(jsn); }));
  if (occulted_count != nullptr) *occulted_count = hidden;
  MutationPayload occult;
  occult.form = MutationPayload::Form::kOccultClue;
  occult.clue = clue;
  occult.occulted_count = hidden;
  return CommitOccult(occult, endorsements, occult_jsn);
}

bool Ledger::OccultableByClue(uint64_t jsn) const {
  return jsn >= purged_boundary_ && journals_[jsn].has_value() &&
         !occult_bitmap_.Get(jsn) &&
         journals_[jsn]->type == JournalType::kNormal;
}

Status Ledger::ResolveClueRange(const std::string& clue, Timestamp from,
                                Timestamp to, uint64_t* begin,
                                uint64_t* end) const {
  const std::vector<uint64_t>* postings = clue_index_.Find(clue);
  if (postings == nullptr) return Status::NotFound("unknown clue");
  const std::vector<uint64_t>& jsns = *postings;
  // Purges tombstone a strict jsn prefix (everything below
  // purged_boundary_), so the purged postings — which lost their
  // timestamps — are a prefix of this ascending list too. Server
  // timestamps are stamped monotonically in jsn order, so the surviving
  // suffix is sorted by server_ts and the window resolves with two
  // binary searches instead of a scan of the clue's whole lineage.
  auto alive = std::lower_bound(jsns.begin(), jsns.end(), purged_boundary_);
  // A tombstone above the boundary (mid-purge straggler) sorts as "before
  // the window": prefix purges keep that ordering consistent, and a
  // straggler inside the answer surfaces as GetJournal's NotFound rather
  // than an invalid dereference here.
  auto before = [&](uint64_t jsn, Timestamp bound) {
    return !journals_[jsn].has_value() || journals_[jsn]->server_ts < bound;
  };
  auto first = std::partition_point(alive, jsns.end(), [&](uint64_t jsn) {
    return before(jsn, from);
  });
  auto last = std::partition_point(first, jsns.end(), [&](uint64_t jsn) {
    return before(jsn, to);
  });
  if (first == last) return Status::NotFound("no clue entries in time range");
  *begin = static_cast<uint64_t>(first - jsns.begin());
  *end = static_cast<uint64_t>(last - jsns.begin());
  return Status::OK();
}

Status Ledger::ErasePayload(uint64_t jsn) {
  if (!journals_[jsn].has_value()) return Status::OK();
  journals_[jsn]->payload.clear();
  journals_[jsn]->payload.shrink_to_fit();
  return PersistRewrite(jsn);
}

Status Ledger::PersistRewrite(uint64_t jsn) {
  if (!storage_.enabled() || !journals_[jsn].has_value()) return Status::OK();
  // Rewrites only ever shrink (flag flips or payload erasure), so the
  // in-place overwrite always fits the original frame.
  return storage_.journals->Overwrite(jsn, Slice(journals_[jsn]->Serialize()));
}

Status Ledger::PersistTombstone(uint64_t jsn, const Journal& journal) {
  if (!storage_.enabled()) return Status::OK();
  return storage_.journals->Overwrite(jsn, Slice(EncodeTombstone(journal)));
}

size_t Ledger::ReorganizeOcculted() {
  // Stops at the first persist failure; the untouched suffix stays queued
  // so the next idle pass retries it.
  size_t erased = 0;
  while (erased < pending_occult_.size()) {
    if (!ErasePayload(pending_occult_[erased]).ok()) break;
    ++erased;
  }
  pending_occult_.erase(pending_occult_.begin(),
                        pending_occult_.begin() + static_cast<long>(erased));
  return erased;
}

void Ledger::ApplyJournalEffects(const Journal& journal) {
  switch (journal.type) {
    case JournalType::kPurge: {
      MutationPayload purge;
      if (MutationPayload::Decode(journal.payload, &purge) &&
          purge.form == MutationPayload::Form::kPurge &&
          purge.jsn > purged_boundary_) {
        purged_boundary_ = purge.jsn;
      }
      break;
    }
    case JournalType::kOccult: {
      MutationPayload occult;
      if (!MutationPayload::Decode(journal.payload, &occult)) break;
      auto hide = [&](uint64_t jsn) {
        occult_bitmap_.Set(jsn);
        if (journals_[jsn].has_value()) journals_[jsn]->occulted = true;
        unsettled_occult_.push_back(jsn);
      };
      if (occult.form == MutationPayload::Form::kOccult &&
          occult.jsn < occult_bitmap_.size()) {
        hide(occult.jsn);
      } else if (occult.form == MutationPayload::Form::kOccultClue) {
        // The clue form hides the postings below its own jsn that were
        // still visible when it committed.
        const std::vector<uint64_t>* postings = clue_index_.Find(occult.clue);
        for (size_t i = 0; postings != nullptr && i < postings->size(); ++i) {
          const uint64_t jsn = (*postings)[i];
          if (jsn >= journal.jsn) break;
          if (OccultableByClue(jsn)) hide(jsn);
        }
      }
      break;
    }
    case JournalType::kTime: {
      TimeEvidence evidence;
      if (TimeEvidence::Deserialize(journal.payload, &evidence)) {
        time_journals_.push_back({journal.jsn, evidence});
      }
      break;
    }
    case JournalType::kPseudoGenesis:
      pseudo_genesis_jsns_.push_back(journal.jsn);
      break;
    default:
      break;
  }
}

Status Ledger::SettleJournalEffects() {
  if (settled_boundary_ == purged_boundary_ && unsettled_occult_.empty()) {
    return Status::OK();
  }
  // Every step runs even if a write fails, so memory always holds what
  // the committed journals say; the first write failure is returned, and
  // recovery settles the record again from its stream.
  Status status;
  auto keep_first = [&](Status s) {
    if (status.ok()) status = std::move(s);
  };
  if (settled_boundary_ < purged_boundary_) {
    // Tombstone the newly purged range. A purged journal drops its nonce
    // bookkeeping and occult bit with its record, exactly as replaying
    // its tombstone would: the dedup horizon ends at the purge boundary.
    for (uint64_t jsn = settled_boundary_; jsn < purged_boundary_; ++jsn) {
      occult_bitmap_.Clear(jsn);
      std::optional<Journal>& slot = journals_[jsn];
      if (!slot.has_value()) continue;
      keep_first(PersistTombstone(jsn, *slot));
      if (slot->client_key.valid()) {
        auto it = dedup_.find(slot->client_key.Id().ToHex());
        if (it != dedup_.end()) {
          auto nit = it->second.find(slot->nonce);
          if (nit != it->second.end() && nit->second.jsn == jsn) {
            it->second.erase(nit);
            if (it->second.empty()) dedup_.erase(it);
          }
        }
      }
      slot.reset();
    }
    settled_boundary_ = purged_boundary_;
    auto purged = [&](uint64_t jsn) { return jsn < purged_boundary_; };
    std::erase_if(pending_occult_, purged);
    std::erase_if(time_journals_,
                  [&](const TimeJournalInfo& t) { return purged(t.jsn); });
    if (options_.prune_fam_on_purge) {
      // Drop fam interiors for epochs wholly before the purge point; the
      // epoch containing the boundary stays intact.
      FamAccumulator& fam = core_.fam();
      fam.PruneSealedEpochsBefore(fam.EpochOfJournal(purged_boundary_ - 1));
    }
  }
  // Occulted payloads still on record: erase now, or flag them on disk
  // and queue them for the reorganization utility.
  std::sort(unsettled_occult_.begin(), unsettled_occult_.end());
  unsettled_occult_.erase(
      std::unique(unsettled_occult_.begin(), unsettled_occult_.end()),
      unsettled_occult_.end());
  for (uint64_t jsn : unsettled_occult_) {
    if (!journals_[jsn].has_value() || journals_[jsn]->payload.empty()) {
      continue;
    }
    if (options_.sync_occult_erasure) {
      keep_first(ErasePayload(jsn));
    } else {
      keep_first(PersistRewrite(jsn));
      pending_occult_.push_back(jsn);
    }
  }
  unsettled_occult_.clear();
  // Root-stamped memos must never serve an occulted payload or a pruned
  // proof, and pruning alone does not move the roots: drop them all.
  if (proof_cache_ != nullptr) proof_cache_->DropBlobs();
  return status;
}

Status Ledger::ReplayRecord(uint64_t index, const Bytes& raw) {
  std::optional<Journal> journal;
  JournalDelta tombstone;
  LEDGERDB_RETURN_IF_ERROR(DecodeStreamRecord(index, raw, /*check_payload=*/true,
                                              &journal, &tombstone));
  if (!journal.has_value()) {
    // Digest-only replay of a purged journal.
    LEDGERDB_RETURN_IF_ERROR(core_.Apply(tombstone));
    IndexRecord(std::move(tombstone), std::nullopt);
    return Status::OK();
  }
  return ApplyCommitted(std::move(*journal));
}

Status Ledger::RestoreIndexedRecord(uint64_t index, Slice raw,
                                    const Digest& tx_hash, KeyIdMemo* key_ids,
                                    bool trusted) {
  // An untrusted record's stream bytes diverge from the snapshot —
  // legitimate only for post-checkpoint occult rewrites and purge
  // tombstones, which never change a record's tx-hash. It is re-validated
  // at full replay strength and its tx-hash must equal the snapshot's:
  // anything else is tampering and rejects the checkpoint.
  std::optional<Journal> journal;
  JournalDelta delta;
  LEDGERDB_RETURN_IF_ERROR(DecodeStreamRecord(
      index, raw, /*check_payload=*/!trusted, &journal, &delta));
  if (!journal.has_value()) {
    if (delta.tx_hash != tx_hash) {
      return Status::Corruption(
          "checkpoint: tombstone tx-hash diverges from snapshot at jsn " +
          std::to_string(index));
    }
    IndexRecord(std::move(delta), std::nullopt);
    return Status::OK();
  }
  if (!trusted && journal->TxHash() != tx_hash) {
    return Status::Corruption(
        "checkpoint: stream tx-hash diverges from snapshot at jsn " +
        std::to_string(index));
  }
  delta = {tx_hash, journal->payload_digest, journal->clues};
  IndexRecord(std::move(delta), std::move(journal), key_ids);
  ApplyJournalEffects(*journals_[index]);
  return Status::OK();
}

Status Ledger::FinishRecovery(uint64_t n) {
  // Restore sealed blocks and cross-check them against the recovered
  // accumulator state. Checking the fam root at EVERY block
  // boundary also binds a checkpoint-adopted fam tree to the commitment
  // chain journal by journal — a snapshot that replays to different
  // per-block roots cannot pass.
  const uint64_t nb = storage_.blocks->Count();
  uint64_t covered = 0;
  Digest prev_hash;
  for (uint64_t h = 0; h < nb; ++h) {
    Bytes raw;
    LEDGERDB_RETURN_IF_ERROR(storage_.blocks->Read(h, &raw));
    BlockHeader header;
    if (!BlockHeader::Deserialize(raw, &header)) {
      return Status::Corruption("undecodable block header");
    }
    if (header.height != h || header.first_jsn != covered ||
        !(header.prev_block_hash == prev_hash)) {
      return Status::Corruption("block chain linkage broken");
    }
    if (header.first_jsn + header.journal_count > n) {
      return Status::Corruption("block covers unknown journals");
    }
    Digest fam_at_block;
    LEDGERDB_RETURN_IF_ERROR(core_.RootAtJournalCount(
        header.first_jsn + header.journal_count, &fam_at_block));
    if (!(fam_at_block == header.fam_root)) {
      return Status::Corruption("recovered fam root mismatch at block " +
                                std::to_string(h));
    }
    for (uint64_t jsn = header.first_jsn;
         jsn < header.first_jsn + header.journal_count; ++jsn) {
      jsn_to_block_[jsn] = h;
    }
    covered = header.first_jsn + header.journal_count;
    prev_hash = header.Hash();
    blocks_.push_back(header);
  }
  for (uint64_t jsn = covered; jsn < n; ++jsn) {
    pending_block_.push_back(jsn);
  }

  // The replayed mutations' physical follow-up, the same settle step a
  // live mutation runs. It comes after the cross-check: a pruned epoch
  // cannot answer RootAtJournalCount.
  LEDGERDB_RETURN_IF_ERROR(SettleJournalEffects());
  recovering_ = false;

  // A crash can land between a full block's journals reaching disk and
  // its header write: the journals are durable but the header is not.
  // Re-seal that full boundary now; partial boundaries stay pending, as
  // they always have.
  if (pending_block_.size() >= options_.block_capacity) {
    LEDGERDB_RETURN_IF_ERROR(SealBlock());
  }
  return Status::OK();
}

Status Ledger::RecoverFromCheckpoint(const CheckpointManifest& manifest,
                                     uint32_t slot, RecoveryInfo* info) {
  // (1) Manifest gate: format, identity, options fingerprint, signature.
  // The signature check makes everything the manifest asserts — including
  // the snapshot SHA below — as trustworthy as a SignedCommitment.
  if (manifest.format_version != kCheckpointFormatVersion) {
    return Status::Corruption("checkpoint: unsupported format version");
  }
  if (manifest.ledger_uri != uri_) {
    return Status::Corruption("checkpoint: ledger uri mismatch");
  }
  if (manifest.fractal_height !=
          static_cast<uint32_t>(options_.fractal_height) ||
      manifest.block_capacity != options_.block_capacity) {
    return Status::Corruption("checkpoint: options fingerprint mismatch");
  }
  if (!manifest.Verify(lsp_key_.public_key())) {
    return Status::Corruption("checkpoint: LSP signature invalid");
  }
  const uint64_t n = storage_.journals->Count();
  if (manifest.watermark == 0 || manifest.watermark > n ||
      manifest.block_height == 0 ||
      manifest.block_height > storage_.blocks->Count()) {
    return Status::Corruption("checkpoint: watermark beyond streams");
  }

  // (2) Snapshot bytes, bound by the signed size + SHA-256: a snapshot
  // with any tampered byte is rejected here, before anything is parsed.
  Bytes snapshot;
  LEDGERDB_RETURN_IF_ERROR(
      storage_.checkpoints->ReadSnapshot(manifest, slot, &snapshot));
  std::map<uint32_t, Slice> sections;
  // Section CRCs exist for offline tooling that inspects a snapshot
  // without the manifest; here every byte was just pinned by the signed
  // SHA-256, so re-checking ~the whole file against CRC32 buys nothing.
  LEDGERDB_RETURN_IF_ERROR(
      CheckpointParseSections(snapshot, &sections, /*verify_crc=*/false));
  for (uint32_t tag :
       {kCkptSectionMeta, kCkptSectionJournals, kCkptSectionTxHashes,
        kCkptSectionFam, kCkptSectionCmTree, kCkptSectionWorldState}) {
    if (sections.find(tag) == sections.end()) {
      return Status::Corruption("checkpoint: missing section " +
                                std::to_string(tag));
    }
  }

  // (3) META must agree with the manifest — the snapshot's own view of
  // what it covers, bound beyond the SHA.
  uint64_t meta_purged_boundary = 0;
  {
    ByteReader meta(sections[kCkptSectionMeta]);
    const Slice uri = meta.LengthPrefixed();
    const uint64_t w = meta.U64();
    const uint64_t h = meta.U64();
    const uint32_t fh = meta.U32();
    const uint64_t cap = meta.U64();
    meta_purged_boundary = meta.U64();
    if (!meta.AtEnd()) {
      return Status::Corruption("checkpoint: undecodable META section");
    }
    if (!(uri == Slice(std::string_view(manifest.ledger_uri))) ||
        w != manifest.watermark || h != manifest.block_height ||
        fh != manifest.fractal_height || cap != manifest.block_capacity) {
      return Status::Corruption("checkpoint: META/manifest mismatch");
    }
  }

  // (4) Adopt the hash structures; the core accepts only an internally
  // consistent image whose roots equal the manifest's signed roots.
  LEDGERDB_RETURN_IF_ERROR(core_.RestoreCheckpointSections(sections, manifest));

  // (5) Reconcile every covered journal record against the live stream
  // without reading it: the stream's per-frame CRC (validated against the
  // actual bytes when the stream opened, held in memory since) is compared
  // to the CRC the checkpoint recorded at write time. Equal CRCs mean the
  // frame was not rewritten, and the snapshot's copy — pinned by the
  // manifest's signed SHA-256 — is adopted without touching disk; this is
  // where tail replay's speed comes from (full replay pays a read +
  // deserialize + hash per record, this loop pays a u32 compare + the
  // deserialize). A CRC mismatch marks a post-checkpoint in-place rewrite
  // (occult erasure, purge tombstone, or a half-applied one a crash left
  // behind): only those rare records are read from the stream and
  // re-validated at full replay strength, and the stream's version wins —
  // exactly what full replay would adopt.
  ByteReader jtable(sections[kCkptSectionJournals]);
  ByteReader ttable(sections[kCkptSectionTxHashes]);
  if (jtable.U64() != manifest.watermark ||
      ttable.U64() != manifest.watermark) {
    return Status::Corruption("checkpoint: journal table count mismatch");
  }
  uint64_t reconciled = 0;
  journals_.reserve(n);
  jsn_to_block_.reserve(n);
  delta_log_.reserve(n);
  Bytes stream_record;
  KeyIdMemo key_ids;
  for (uint64_t i = 0; i < manifest.watermark; ++i) {
    const Slice snapshot_record = jtable.LengthPrefixed();
    const uint32_t snapshot_crc = jtable.U32();
    if (!jtable.ok()) return Status::Corruption("checkpoint: torn journal table");
    const Digest tx_hash = ttable.Digest();
    if (!ttable.ok()) return Status::Corruption("checkpoint: torn tx-hash table");
    uint32_t stream_crc = 0;
    LEDGERDB_RETURN_IF_ERROR(storage_.journals->RecordCrc(i, &stream_crc));
    if (stream_crc == snapshot_crc) {
      LEDGERDB_RETURN_IF_ERROR(RestoreIndexedRecord(
          i, snapshot_record, tx_hash, &key_ids, /*trusted=*/true));
    } else {
      ++reconciled;
      LEDGERDB_RETURN_IF_ERROR(storage_.journals->Read(i, &stream_record));
      LEDGERDB_RETURN_IF_ERROR(RestoreIndexedRecord(
          i, stream_record, tx_hash, &key_ids, /*trusted=*/false));
    }
  }
  if (!jtable.AtEnd() || !ttable.AtEnd()) {
    return Status::Corruption("checkpoint: trailing table bytes");
  }
  // Replaying [0, W) can only see purge journals the checkpoint saw, so
  // the rebuilt boundary can never exceed the recorded one (it may be
  // lower if a post-checkpoint purge tombstoned an older purge journal —
  // the tail replay then re-raises it, exactly as full replay would).
  if (purged_boundary_ > meta_purged_boundary) {
    return Status::Corruption("checkpoint: purge boundary regression");
  }

  // (6) Tail replay: only the journals past the watermark pay full
  // validation + accumulator appends.
  for (uint64_t i = manifest.watermark; i < n; ++i) {
    Bytes raw;
    LEDGERDB_RETURN_IF_ERROR(storage_.journals->Read(i, &raw));
    LEDGERDB_RETURN_IF_ERROR(ReplayRecord(i, raw));
  }


  // (7) Shared tail: block chain restore, which cross-checks the
  // (adopted) fam against every block header, then the settle step.
  LEDGERDB_RETURN_IF_ERROR(FinishRecovery(n));
  if (manifest.block_height > blocks_.size() ||
      blocks_[manifest.block_height - 1].Hash() !=
          manifest.boundary_block_hash) {
    return Status::Corruption("checkpoint: boundary block hash mismatch");
  }

  info->used_checkpoint = true;
  info->checkpoint_watermark = manifest.watermark;
  info->tail_journals = n - manifest.watermark;
  info->reconciled_records = reconciled;
  return Status::OK();
}

Status Ledger::Recover(std::string uri, const LedgerOptions& options,
                       Clock* clock, KeyPair lsp_key,
                       const MemberRegistry* members, LedgerStorage storage,
                       std::unique_ptr<Ledger>* out, RecoveryInfo* info) {
  if (!storage.enabled()) {
    return Status::InvalidArgument("recovery requires journal+block streams");
  }
  LEDGERDB_OBS_TIMER(recover_timer, obs::names::kLedgerRecoverUs);
  const uint64_t n = storage.journals->Count();
  if (n == 0) {
    return Status::Corruption(
        "journal stream is empty: missing stream file or lost genesis");
  }
  RecoveryInfo local;

  // Snapshot-first: try checkpoints newest-first. Every verdict a failed
  // candidate could mask is re-derived by the fallback, so a damaged
  // checkpoint only costs speed, never changes the recovery outcome.
  if (storage.checkpoints != nullptr) {
    std::vector<CheckpointEntry> entries;
    std::vector<const CheckpointEntry*> candidates;
    if (storage.checkpoints->List(&entries).ok()) {
      for (const CheckpointEntry& entry : entries) {
        if (entry.status.ok()) candidates.push_back(&entry);
      }
      std::sort(candidates.begin(), candidates.end(),
                [](const CheckpointEntry* a, const CheckpointEntry* b) {
                  return a->manifest.watermark > b->manifest.watermark;
                });
    }
    for (const CheckpointEntry* candidate : candidates) {
      ++local.candidates_tried;
      std::unique_ptr<Ledger> ledger(new Ledger(
          RecoveryTag{}, uri, options, clock, lsp_key, members, storage));
      Status attempt = ledger->RecoverFromCheckpoint(candidate->manifest,
                                                     candidate->slot, &local);
      if (attempt.ok()) {
        LEDGERDB_OBS_COUNT(obs::names::kCkptLoadsTotal);
        LEDGERDB_OBS_COUNT_N(obs::names::kCkptTailJournalsTotal,
                             local.tail_journals);
        LEDGERDB_OBS_COUNT_N(obs::names::kLedgerRecoveredJournalsTotal, n);
        if (info != nullptr) *info = local;
        *out = std::move(ledger);
        return Status::OK();
      }
      ++local.candidates_rejected;
      LEDGERDB_OBS_COUNT(obs::names::kCkptFallbacksTotal);
    }
  }

  // Full replay: every record through the accumulators.
  std::unique_ptr<Ledger> ledger(new Ledger(RecoveryTag{}, std::move(uri),
                                            options, clock, std::move(lsp_key),
                                            members, storage));
  for (uint64_t i = 0; i < n; ++i) {
    Bytes raw;
    LEDGERDB_RETURN_IF_ERROR(storage.journals->Read(i, &raw));
    LEDGERDB_RETURN_IF_ERROR(ledger->ReplayRecord(i, raw));
  }
  LEDGERDB_RETURN_IF_ERROR(ledger->FinishRecovery(n));
  LEDGERDB_OBS_COUNT_N(obs::names::kLedgerRecoveredJournalsTotal, n);
  if (info != nullptr) *info = local;
  *out = std::move(ledger);
  return Status::OK();
}

Status Ledger::WriteCheckpoint(uint32_t* slot_out) {
  if (!storage_.enabled() || storage_.checkpoints == nullptr) {
    return Status::InvalidArgument(
        "checkpointing requires journal+block streams and a checkpoint store");
  }
  // blocks_ and the roots form one consistent cut as long as no commit
  // interleaves (shards route this through the committer lane's
  // maintenance queue).
  if (blocks_.empty()) {
    return Status::InvalidArgument(
        "nothing sealed yet: a checkpoint needs at least one block");
  }
  LEDGERDB_OBS_TIMER(checkpoint_timer, obs::names::kCkptWriteUs);
  const uint64_t watermark = journals_.size();
  const uint64_t height = blocks_.size();

  Bytes snapshot;
  CheckpointSnapshotInit(&snapshot);
  {
    Bytes meta;
    PutLengthPrefixed(&meta, StringToBytes(uri_));
    PutU64(&meta, watermark);
    PutU64(&meta, height);
    PutU32(&meta, static_cast<uint32_t>(options_.fractal_height));
    PutU64(&meta, options_.block_capacity);
    PutU64(&meta, purged_boundary_);
    CheckpointAppendSection(&snapshot, kCkptSectionMeta, meta);
  }
  {
    // Raw records exactly as the stream holds them, each followed by its
    // CRC32: the loader compares that against the stream's own per-frame
    // checksum (held in memory by FileStreamStore) to spot post-checkpoint
    // in-place rewrites without reading a single sub-watermark record.
    Bytes journals;
    PutU64(&journals, watermark);
    Bytes raw;
    for (uint64_t i = 0; i < watermark; ++i) {
      Status read = storage_.journals->Read(i, &raw);
      if (!read.ok()) {
        LEDGERDB_OBS_COUNT(obs::names::kCkptWriteFailuresTotal);
        return read;
      }
      PutLengthPrefixed(&journals, raw);
      PutU32(&journals, Crc32(raw.data(), raw.size()));
    }
    CheckpointAppendSection(&snapshot, kCkptSectionJournals, journals);
  }
  {
    Bytes hashes;
    PutU64(&hashes, watermark);
    for (uint64_t i = 0; i < watermark; ++i) {
      PutDigest(&hashes, delta_log_[i].tx_hash);
    }
    CheckpointAppendSection(&snapshot, kCkptSectionTxHashes, hashes);
  }
  Status sections = core_.AppendCheckpointSections(&snapshot);
  if (!sections.ok()) {
    LEDGERDB_OBS_COUNT(obs::names::kCkptWriteFailuresTotal);
    return sections;
  }

  CheckpointManifest manifest;
  manifest.ledger_uri = uri_;
  manifest.watermark = watermark;
  manifest.block_height = height;
  manifest.boundary_block_hash = blocks_.back().Hash();
  manifest.fam_root = core_.fam_root();
  manifest.clue_root = core_.clue_root();
  manifest.state_root = core_.state_root();
  manifest.fractal_height = static_cast<uint32_t>(options_.fractal_height);
  manifest.block_capacity = options_.block_capacity;
  manifest.timestamp = clock_->Now();
  manifest.snapshot_size = snapshot.size();
  manifest.snapshot_sha = Sha256::Hash(snapshot);
  manifest.lsp_sig = lsp_key_.Sign(manifest.MessageHash());

  Status publish = storage_.checkpoints->Write(manifest, snapshot, slot_out);
  if (!publish.ok()) {
    LEDGERDB_OBS_COUNT(obs::names::kCkptWriteFailuresTotal);
    return publish;
  }
  LEDGERDB_OBS_COUNT(obs::names::kCkptWritesTotal);
  LEDGERDB_OBS_COUNT_N(obs::names::kCkptSnapshotBytes, snapshot.size());
  return Status::OK();
}

Status Ledger::ReadSurvivor(uint64_t index, Journal* out) const {
  Bytes raw;
  LEDGERDB_RETURN_IF_ERROR(survival_stream_.Read(index, &raw));
  if (!Journal::Deserialize(raw, out)) {
    return Status::Corruption("undecodable survivor journal");
  }
  return Status::OK();
}

Status Ledger::LatestPseudoGenesis(uint64_t* jsn) const {
  if (pseudo_genesis_jsns_.empty()) {
    return Status::NotFound("ledger never purged");
  }
  *jsn = pseudo_genesis_jsns_.back();
  return Status::OK();
}

}  // namespace ledgerdb
