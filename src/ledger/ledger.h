#ifndef LEDGERDB_LEDGER_LEDGER_H_
#define LEDGERDB_LEDGER_LEDGER_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "accum/fam.h"
#include "accum/proof_cache.h"
#include "cmtree/cm_tree.h"
#include "common/clock.h"
#include "common/status.h"
#include "ledger/block.h"
#include "ledger/journal.h"
#include "ledger/ledger_mirror.h"
#include "ledger/members.h"
#include "ledger/receipt.h"
#include "ledger/world_state.h"
#include "storage/bitmap_index.h"
#include "storage/checkpoint.h"
#include "storage/clue_skiplist.h"
#include "storage/stream_store.h"
#include "timestamp/t_ledger.h"
#include "timestamp/tsa.h"

namespace ledgerdb {

/// Tuning knobs for a ledger instance.
struct LedgerOptions {
  /// fam fractal height δ (epoch capacity 2^δ). fam-15 is the paper's
  /// "commonly used" setting.
  int fractal_height = 15;
  /// Journals per block (receipt commitment granularity).
  uint32_t block_capacity = 64;
  /// Occult erasure mode: synchronous erases the payload inside the occult
  /// operation; asynchronous defers to ReorganizeOcculted() (§III-A3).
  bool sync_occult_erasure = false;
  /// Purge fam-erasure option (§III-A2): when true, purging also drops the
  /// interior fam nodes of epochs that lie entirely before the purge point
  /// (proofs there become unavailable; the trusted anchor covers them),
  /// live and again after a restart. When false the fam tree is retained
  /// in full — "its space consumption is acceptable (we only need digest
  /// but not raw payload)".
  bool prune_fam_on_purge = false;
  /// Memoized proof cache for sealed fam subtrees and serialized
  /// clue-range reads. Purely a read-path accelerator: it never changes
  /// any digest, and disabling it reproduces byte-identical proofs (the
  /// correctness baseline the proof_cache tests pin).
  bool enable_proof_cache = true;
  /// Resident-byte budget for the proof cache (epoch-granular LRU
  /// eviction past it).
  size_t proof_cache_bytes = 8u << 20;
};

/// How a time journal's evidence was obtained (§III-B).
enum class TimeNotaryMode : uint8_t {
  kDirectTsa = 0,  ///< Protocol 3 against the TSA directly
  kTLedger = 1,    ///< Protocol 4 via the shared T-Ledger
};

/// The when-evidence carried by a time journal's payload.
struct TimeEvidence {
  TimeNotaryMode mode = TimeNotaryMode::kDirectTsa;
  Digest ledger_digest;           ///< fam root that was pegged
  uint64_t covered_jsn_count = 0; ///< journals committed by that root
  /// Direct mode: the TSA attestation (complete evidence).
  TimeAttestation attestation;
  /// T-Ledger mode: the admission receipt; the TSA binding is fetched from
  /// the public T-Ledger via GetTimeProof(tledger_index).
  uint64_t tledger_index = 0;
  TLedgerReceipt tledger_receipt;

  Bytes Serialize() const;
  static bool Deserialize(Slice raw, TimeEvidence* out);
};

/// Per-ledger record of an anchored time journal (also discoverable by
/// scanning journals of type kTime).
struct TimeJournalInfo {
  uint64_t jsn = 0;
  TimeEvidence evidence;
};

/// Durable backing for a ledger: an append-only journal stream plus a
/// block-header stream (the "stream file system" of §II-C). Both stores
/// are owned by the caller and must outlive the ledger. When present,
/// every committed journal and sealed block header is persisted, purge
/// tombstones and occult erasures are applied in place, and
/// Ledger::Recover can rebuild the full ledger state from the streams.
struct LedgerStorage {
  StreamStore* journals = nullptr;
  StreamStore* blocks = nullptr;
  /// Optional checkpoint store. When present, WriteCheckpoint publishes
  /// audited snapshots here and Recover tries snapshot + tail replay
  /// before falling back to full stream replay.
  CheckpointStore* checkpoints = nullptr;

  bool enabled() const { return journals != nullptr && blocks != nullptr; }
};

/// How a Recover call actually rebuilt the ledger — callers log or assert
/// on this to confirm the tail-replay fast path engaged (or why it fell
/// back).
struct RecoveryInfo {
  bool used_checkpoint = false;
  uint64_t checkpoint_watermark = 0;  ///< journals adopted from the snapshot
  uint64_t tail_journals = 0;         ///< journals replayed past the watermark
  /// Below-watermark records whose stream bytes differed from the snapshot
  /// (legitimate post-checkpoint occult rewrites / purge tombstones that
  /// were re-validated at full replay strength and adopted from the stream).
  uint64_t reconciled_records = 0;
  uint32_t candidates_tried = 0;     ///< checkpoints considered, newest first
  uint32_t candidates_rejected = 0;  ///< candidates that failed verification
};

/// Everything a client needs to batch-audit one clue-range read (§IV-C
/// "verify within a range specified by version (or timestamp) boundaries",
/// batched): the journals selected by ResolveClueRange plus ONE ClueProof
/// over the whole entry range (lineage + completeness) and ONE FamBatchProof
/// over their jsns (existence), instead of per-journal round-trips.
struct ClueRangeResult {
  std::string clue;
  /// Entry-index range [begin, end) in the clue's lineage; `journals[i]`
  /// is the journal behind entry `begin + i`.
  uint64_t begin = 0;
  uint64_t end = 0;
  std::vector<Journal> journals;
  ClueProof clue_proof;
  FamBatchProof fam_batch;

  Bytes Serialize() const;
  static bool Deserialize(Slice raw, ClueRangeResult* out);
};

/// The LedgerDB ledger: an auditable, tamper-evident journal store with
/// native Dasein (what-when-who) verification.
///
///  * what  — every journal's tx-hash is accumulated in a fam tree
///            (GetProof / VerifyJournalProof), and clue lineage lives in a
///            CM-Tree (GetClueProof).
///  * when  — AnchorTime() pegs the fam root to a TSA directly (Protocol 3)
///            or through the shared T-Ledger (Protocol 4), recording a time
///            journal.
///  * who   — π_c client signatures are checked at append; π_s receipts are
///            signed by the LSP; purge/occult carry multi-signatures.
///
/// Single-threaded by design (one ledger shard); shard externally for
/// concurrency.
class Ledger {
 public:
  Ledger(std::string uri, const LedgerOptions& options, Clock* clock,
         KeyPair lsp_key, const MemberRegistry* members,
         LedgerStorage storage = {});

  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  /// Rebuilds a ledger from its persistent streams (crash recovery / cold
  /// start). Replays every journal through the accumulators, restores
  /// purge boundaries, occult bits, time journals and sealed blocks, and
  /// cross-checks the recovered fam roots against every stored block
  /// header — returning Corruption if the streams were tampered with.
  /// Then runs the live mutations' settle step, which also finishes any
  /// tombstoning, occult erasure or fam pruning a crash cut short.
  /// When `storage.checkpoints` is set, recovery is snapshot-first: the
  /// newest valid checkpoint whose manifest passes the LSP signature and
  /// SHA binding is loaded, every adopted journal record is byte-compared
  /// against the stream (divergent records — post-checkpoint occult/purge
  /// rewrites — are re-validated at full replay strength), the restored
  /// accumulators are cross-checked against the manifest roots and every
  /// block header, and only the journals past the watermark are replayed.
  /// Any check failing falls back to the next-older checkpoint and finally
  /// to full replay, so a damaged checkpoint can never change the outcome
  /// — only the speed. `info` (optional) reports which path ran.
  static Status Recover(std::string uri, const LedgerOptions& options,
                        Clock* clock, KeyPair lsp_key,
                        const MemberRegistry* members, LedgerStorage storage,
                        std::unique_ptr<Ledger>* out,
                        RecoveryInfo* info = nullptr);

  /// Serializes the full sealed + pending state into an audited snapshot
  /// and publishes it through `storage.checkpoints` (two-slot rotation,
  /// persist-before-publish). The manifest records the covered journal
  /// watermark, the boundary block hash and the three commitment roots,
  /// binds the snapshot bytes by size + SHA-256, and is LSP-signed: a
  /// tampered snapshot or manifest is rejected at load, never trusted.
  /// Must not interleave with commits (a sharded group runs it on the
  /// shard's committer lane); requires at least one sealed block.
  /// `slot_out` (optional) receives the slot written.
  Status WriteCheckpoint(uint32_t* slot_out = nullptr);

  const std::string& uri() const { return uri_; }
  const PublicKey& lsp_key() const { return lsp_key_.public_key(); }

  /// Whether the constructor's genesis journal reached durable storage.
  /// Non-OK means the ledger must not accept traffic (the backing streams
  /// failed while writing genesis); recovery of the partial image will
  /// report the failure explicitly.
  Status init_status() const { return init_status_; }

  // -------------------------------------------------------------------
  // Write path
  // -------------------------------------------------------------------

  /// Appends a client transaction (Figure 1 journal-level commitment).
  /// Validates membership and π_c, assigns a jsn, and threads the journal
  /// through the fam tree, CM-Tree and world-state. Equivalent to
  /// Prevalidate() + CommitPrevalidatedGroup() of one: a block-boundary
  /// seal failure is returned with `*jsn` set, because the journal itself
  /// is durable and a retry converges on it.
  Status Append(const ClientTransaction& tx, uint64_t* jsn);

  /// A client transaction that has passed every shard-independent check:
  /// π_c signature, membership, payload SHA-256 and request hashing. The
  /// prepared journal still lacks its jsn and server timestamp — those are
  /// assigned at commit, on the owning shard.
  struct PrevalidatedTx {
    Journal journal;
  };

  /// Stage 1 of the append pipeline: all the expensive, shard-independent
  /// work (ECDSA π_c verification, membership lookup, payload hashing).
  /// Pure and const — safe to call concurrently from worker threads while
  /// other threads prevalidate against the same ledger, as long as the
  /// single committer thread is the only one mutating it. Uses the member
  /// registry's cached per-key verify context so repeat signers skip the
  /// ECDSA point setup.
  Status Prevalidate(const ClientTransaction& tx, PrevalidatedTx* out) const;

  /// Batched stage 1: prevalidates a chunk of transactions together so all
  /// π_c checks share one batched s⁻¹ inversion and one batched R-point
  /// normalization (crypto VerifyBatch). `outs` and `statuses` are indexed
  /// like `txs`; results are per-transaction — an invalid signature fails
  /// alone without affecting its chunk-mates. Same thread-safety contract
  /// as Prevalidate.
  void PrevalidateBatch(std::span<const ClientTransaction* const> txs,
                        PrevalidatedTx* outs, Status* statuses) const;

  /// Stage 2: dedup-screens the batch, assigns server_ts and jsns, then
  /// persists every surviving journal through one StreamStore::AppendBatch
  /// group (one data fsync + one watermark fsync for the entire group)
  /// before applying them to the accumulators in order. `jsns` and
  /// `statuses` are indexed like `batch`; retried submissions converge on
  /// their original jsn, nonce conflicts fail alone, and a storage
  /// failure fails every surviving journal without mutating the ledger.
  /// A block-boundary seal failure is the return value while every
  /// journal stays committed. Cheap relative to stage 1; must run on the
  /// shard's single committer thread (or any externally serialized
  /// caller).
  Status CommitPrevalidatedGroup(std::vector<PrevalidatedTx>&& batch,
                                 std::vector<uint64_t>* jsns,
                                 std::vector<Status>* statuses);

  /// Seals all pending journals into one block (no-op when empty) on the
  /// calling thread. Fails without sealing if the block header cannot be
  /// persisted; the pending journals stay queued for the next attempt.
  Status SealBlock();

  /// Issues the signed LSP receipt π_s for `jsn`; seals the containing
  /// block first if needed (receipts commit at block granularity).
  Status GetReceipt(uint64_t jsn, Receipt* receipt);

  /// Signs the current ledger commitment (journal count + the three roots).
  /// This is what audited clients pin and gossip; see SignedCommitment.
  Status GetCommitment(SignedCommitment* out) const;

  /// Per-journal effects in [from, to): exactly what a client mirror needs
  /// to replay the server's accumulator transitions (tx-hash into fam, clue
  /// appends, world-state puts). Covers purged journals too — their deltas
  /// were retained at tombstoning time, so audited root-advances span purge
  /// boundaries.
  Status GetDelta(uint64_t from, uint64_t to,
                  std::vector<JournalDelta>* out) const;

  // -------------------------------------------------------------------
  // Read path
  // -------------------------------------------------------------------

  /// Total journals ever appended (including purged positions).
  uint64_t NumJournals() const { return journals_.size(); }

  /// First jsn not erased by a purge (0 if never purged).
  uint64_t PurgedBoundary() const { return purged_boundary_; }

  /// Fetches a journal. Purged journals return NotFound; occulted journals
  /// are returned with `occulted == true` and an empty payload (Protocol 2:
  /// the retained digest still verifies).
  Status GetJournal(uint64_t jsn, Journal* out) const;

  /// All jsns recorded under `clue`, in append order (cSL index lookup).
  Status ListTx(const std::string& clue, std::vector<uint64_t>* jsns) const;

  const std::vector<BlockHeader>& blocks() const { return blocks_; }
  const std::vector<TimeJournalInfo>& time_journals() const {
    return time_journals_;
  }

  /// Copies the sealed headers at heights [first, end), clipped to the
  /// chain; OutOfRange if `first` is past it or the range is inverted.
  Status GetHeaders(uint64_t first, uint64_t end,
                    std::vector<BlockHeader>* out) const;

  // -------------------------------------------------------------------
  // what verification
  // -------------------------------------------------------------------

  Digest FamRoot() const { return core_.fam_root(); }

  /// Historical fam commitment after exactly `count` journals (audit use).
  Status FamRootAtCount(uint64_t count, Digest* out) const {
    return core_.RootAtJournalCount(count, out);
  }
  Digest ClueRoot() const { return core_.clue_root(); }
  Digest StateRoot() const { return core_.state_root(); }

  /// fam existence proof for `jsn` against the current fam root.
  Status GetProof(uint64_t jsn, FamProof* proof) const;

  /// fam-aoa anchored proof (§III-A1 trusted anchors).
  Status GetProofAnchored(uint64_t jsn, const TrustedAnchor& anchor,
                          FamProof* proof) const;

  /// Pins a trusted anchor at the last sealed fam epoch.
  Status MakeAnchor(TrustedAnchor* anchor) const;

  /// Client-side journal existence verification: binds the journal's
  /// tx-hash through the fam proof to `trusted_fam_root`.
  static bool VerifyJournalProof(const Journal& journal, const FamProof& proof,
                                 const Digest& trusted_fam_root);

  /// Clue-oriented lineage proof (§IV-C). `end == 0` means latest.
  Status GetClueProof(const std::string& clue, uint64_t begin, uint64_t end,
                      ClueProof* proof) const;

  /// Resolves a clue's entry-index range from timestamp boundaries
  /// (§IV-C: "verify within a range specified by version (or timestamp)
  /// boundaries"). Entries with server_ts in [from, to) are selected.
  Status ResolveClueRange(const std::string& clue, Timestamp from,
                          Timestamp to, uint64_t* begin, uint64_t* end) const;

  /// Batched fam existence proof for a set of journals: one shared-node
  /// BatchProof per touched epoch + one link chain (see FamBatchProof).
  Status GetProofBatch(const std::vector<uint64_t>& jsns,
                       FamBatchProof* proof) const;

  /// The batched range-read entry point, serialized for transports:
  /// resolves [from, to) against the clue's lineage (ResolveClueRange),
  /// fetches the selected journals, and builds ONE ClueProof over the
  /// whole entry range plus ONE FamBatchProof over their jsns — the
  /// ClueRangeResult that LedgerClient::BatchAuditRange verifies against
  /// a single RefreshTrustedRoots. The bytes are memoized under the query
  /// parameters and stamped with the fam root, so a repeated range read
  /// between writes is served as one bytes copy — no proof rebuild, no
  /// re-serialization — and the stamp guarantees the served bytes equal a
  /// fresh build + Serialize. Retrievability changes that do not move the
  /// root (occult, purge) drop the memo section explicitly.
  Status ProveClueRangeWire(const std::string& clue, Timestamp from,
                            Timestamp to, Bytes* wire) const;

  /// Proof-cache statistics (zeros when the cache is disabled).
  ProofCache::Stats ProofCacheStats() const {
    return proof_cache_ ? proof_cache_->stats() : ProofCache::Stats{};
  }

  /// World-state access (single-layer state accumulator, Figure 2).
  const WorldState& world_state() const { return core_.world_state(); }

  // -------------------------------------------------------------------
  // when verification
  // -------------------------------------------------------------------

  /// Chooses direct TSA pegging (Protocol 3). Mutually exclusive with
  /// AttachTLedger.
  void AttachDirectTsa(TsaService* tsa) { direct_tsa_ = tsa; }

  /// Chooses T-Ledger pegging (Protocol 4).
  void AttachTLedger(TLedger* tledger) { tledger_ = tledger; }

  /// Chooses direct pegging against a pool of independent TSAs (§III-B1's
  /// availability enhancement); endorsements rotate round-robin.
  void AttachTsaPool(TsaPool* pool) { tsa_pool_ = pool; }

  /// Pegs the current fam root to the attached notary and records a time
  /// journal. Returns the time journal's jsn; as for Append, a block seal
  /// failure after the journal committed is returned with `*time_jsn` set.
  Status AnchorTime(uint64_t* time_jsn);

  // -------------------------------------------------------------------
  // Mutations (verifiable purge / occult)
  // -------------------------------------------------------------------

  /// Message each required member must sign to authorize a purge up to
  /// (excluding) `purge_before_jsn`.
  static Digest PurgeRequestHash(const std::string& uri,
                                 uint64_t purge_before_jsn);

  /// Message DBA + regulator must sign to authorize occulting `jsn`.
  static Digest OccultRequestHash(const std::string& uri, uint64_t jsn);

  /// Purge (§III-A2): erases journals [PurgedBoundary(), purge_before_jsn),
  /// except `survivors` which are copied to the survival stream. Requires
  /// Prerequisite 1: endorsements over PurgeRequestHash from a DBA and
  /// every member owning a journal in the purged range. Every input is
  /// validated before anything commits. Records a purge journal doubly
  /// linked with a fresh pseudo-genesis journal; without
  /// `prune_fam_on_purge` the fam tree is retained in full (digest-only,
  /// §III-A2's "erasure not allowed" option). Once the purge journal is
  /// durable its effects hold; a block seal failure after it is returned,
  /// as for Append.
  Status Purge(uint64_t purge_before_jsn,
               const std::vector<Endorsement>& endorsements,
               const std::vector<uint64_t>& survivors, uint64_t* purge_jsn);

  /// Occult (§III-A3): hides journal `jsn`, retaining its digest. Requires
  /// Prerequisite 2: endorsements over OccultRequestHash from a DBA and a
  /// regulator. Erasure is synchronous or deferred per LedgerOptions.
  Status Occult(uint64_t jsn, const std::vector<Endorsement>& endorsements,
                uint64_t* occult_jsn);

  /// Message DBA + regulator sign to authorize occulting every journal of
  /// a clue.
  static Digest OccultClueRequestHash(const std::string& uri,
                                      const std::string& clue);

  /// Occult-by-clue ("a common case", §III-A3): hides every not-yet-
  /// occulted journal recorded under `clue` in one authorized operation.
  /// `occulted_count` receives how many journals were hidden.
  Status OccultByClue(const std::string& clue,
                      const std::vector<Endorsement>& endorsements,
                      size_t* occulted_count, uint64_t* occult_jsn);

  /// Asynchronous occult erasure pass ("data reorganization utility during
  /// system idle"): physically clears payloads of occulted journals.
  /// Returns the number of journals erased.
  size_t ReorganizeOcculted();

  /// Idle-time CM-Tree1 compaction: reclaims copy-on-write snapshot nodes
  /// unreachable from the current clue root.
  Status CompactClueTree(size_t* reclaimed) {
    return core_.cmtree().Compact(reclaimed);
  }

  /// Number of journals occulted but not yet physically erased.
  size_t PendingOccultErasures() const { return pending_occult_.size(); }

  /// Total journals currently marked occulted (bitmap-index popcount).
  uint64_t OccultedCount() const { return occult_bitmap_.Count(); }

  /// Survival stream access: journals preserved across purges.
  uint64_t SurvivorCount() const { return survival_stream_.Count(); }
  Status ReadSurvivor(uint64_t index, Journal* out) const;

  /// jsn of the pseudo-genesis created by the latest purge (Protocol 1
  /// verification datum), or NotFound if never purged.
  Status LatestPseudoGenesis(uint64_t* jsn) const;

 private:
  struct RecoveryTag {};

  /// Recovery constructor: does not create a genesis journal.
  Ledger(RecoveryTag, std::string uri, const LedgerOptions& options,
         Clock* clock, KeyPair lsp_key, const MemberRegistry* members,
         LedgerStorage storage);

  /// Client-key id -> hex memo carried across a checkpoint restore loop.
  using KeyIdMemo = std::vector<std::pair<PublicKey, std::string>>;

  /// The one write path. Assigns `run` the jsns that follow NumJournals(),
  /// persists it with one StreamStore::AppendBatch, then applies each
  /// journal in order. A persist failure is returned and leaves the ledger
  /// untouched, consistent with its streams. Once the run is durable every
  /// journal is applied; the first block-boundary seal failure goes to
  /// `seal_status` (the journals stay queued for the next seal).
  Status CommitRun(std::span<Journal* const> run, Status* seal_status);

  /// In-memory half of a commit, live or replayed: threads an
  /// already-persisted journal through the commitment core, ledger
  /// bookkeeping and ApplyJournalEffects and, outside recovery, seals the
  /// block when it reaches its capacity.
  Status ApplyCommitted(Journal journal);

  /// Ledger bookkeeping of the record at jsn NumJournals(): clue index,
  /// delta log, dedup, server-ts high-water mark, the journal slot
  /// (`journal` is empty for a purge tombstone), occult bit and an
  /// unsealed jsn_to_block_ slot. `key_ids` (optional) memoizes signer ids.
  void IndexRecord(JournalDelta delta, std::optional<Journal> journal,
                   KeyIdMemo* key_ids = nullptr);

  /// The one place a committed journal's in-memory effects are applied:
  /// purge boundary, pseudo-genesis list, occult bit and flag (both
  /// forms) and time journals. ApplyCommitted calls it for every journal,
  /// live or replayed, and the checkpoint restore for every record it
  /// indexes. What still needs a physical follow-up is marked for
  /// SettleJournalEffects.
  void ApplyJournalEffects(const Journal& journal);

  /// The physical follow-up of the marked effects, run by the live
  /// mutations and once by recovery: tombstones the new purge range
  /// (with its dedup entries and occult bits), erases or queues the marked
  /// occulted payloads, prunes fam epochs per `prune_fam_on_purge` and
  /// drops the proof cache's blobs. Returns the first write failure after
  /// applying every step in memory.
  Status SettleJournalEffects();

  /// Commits an occult journal of either form and, once it is durable,
  /// settles its effects. A seal failure after the journal is returned.
  Status CommitOccult(const MutationPayload& occult,
                      const std::vector<Endorsement>& endorsements,
                      uint64_t* occult_jsn);

  /// Full-validation replay of one stream record during recovery: decodes
  /// journal or tombstone, checks payload digest and ordering, and threads
  /// it through the accumulators.
  Status ReplayRecord(uint64_t index, const Bytes& raw);

  /// Index-only restore of one below-watermark record during checkpoint
  /// recovery: rebuilds journals_/delta_log_/clue index/dedup/occult state
  /// WITHOUT touching the accumulators (those were adopted from the
  /// snapshot, which already includes this record). `tx_hash` comes from
  /// the snapshot's tx-hash table. `trusted` is true when `raw` is the
  /// snapshot's own copy (pinned by the manifest's signed SHA-256 — no
  /// per-record re-hashing needed) of an unrewritten frame; it is false
  /// when the stream's frame CRC diverged from the checkpoint's and `raw`
  /// is the stream's version, which is re-validated at full replay
  /// strength here. `key_ids` memoizes client-key -> hex id across the
  /// restore loop.
  Status RestoreIndexedRecord(uint64_t index, Slice raw,
                              const Digest& tx_hash, KeyIdMemo* key_ids,
                              bool trusted);

  /// Shared recovery tail: restores and cross-checks sealed blocks, queues
  /// the unsealed suffix, settles the replayed effects and re-seals any
  /// full boundary. `n` is the journal stream count.
  Status FinishRecovery(uint64_t n);

  /// Attempts recovery from one checkpoint candidate onto this (fresh,
  /// RecoveryTag-constructed) ledger. Any non-OK return means the caller
  /// falls back — this ledger instance must then be discarded.
  Status RecoverFromCheckpoint(const CheckpointManifest& manifest,
                               uint32_t slot, RecoveryInfo* info);

  /// Writes the purge tombstone / occult rewrite for `jsn` to the journal
  /// stream (no-op without storage).
  Status PersistRewrite(uint64_t jsn);
  Status PersistTombstone(uint64_t jsn, const Journal& journal);

  /// Builds and commits an internal (LSP-authored) journal.
  Status AppendInternal(JournalType type, const std::vector<std::string>& clues,
                        Bytes payload, std::vector<Endorsement> endorsements,
                        uint64_t* jsn);

  /// Erases one journal's payload in place (keeps digest + metadata).
  Status ErasePayload(uint64_t jsn);

  /// Whether an occult-clue journal committed now would hide posting
  /// `jsn`: a normal journal, not purged and not yet occulted.
  bool OccultableByClue(uint64_t jsn) const;

  /// Reads the clock and clamps against last_server_ts_ (see that member).
  Timestamp StampServerTime();

  std::string uri_;
  LedgerOptions options_;
  Clock* clock_;
  KeyPair lsp_key_;
  const MemberRegistry* members_;
  LedgerStorage storage_;
  bool recovering_ = false;
  Status init_status_;

  std::vector<std::optional<Journal>> journals_;
  /// Memoized proof plane (null when disabled). Declared before core_ so
  /// it outlives the fam accumulator holding a raw pointer to it.
  /// Sealed-epoch entries are managed by the fam; serialized range reads
  /// are stamped with the fam root and garbage-collected at seal time.
  std::unique_ptr<ProofCache> proof_cache_;
  /// fam, CM-Tree and world state: every root this ledger signs.
  LedgerMirror core_;
  ClueSkipList clue_index_;

  std::vector<BlockHeader> blocks_;
  std::vector<uint64_t> pending_block_;  // jsns awaiting sealing
  std::vector<uint64_t> jsn_to_block_;   // jsn -> block height (sealed)

  TsaService* direct_tsa_ = nullptr;
  TsaPool* tsa_pool_ = nullptr;
  TLedger* tledger_ = nullptr;
  std::vector<TimeJournalInfo> time_journals_;

  uint64_t purged_boundary_ = 0;
  /// Journals below it are tombstoned; it trails purged_boundary_ only
  /// until SettleJournalEffects runs.
  uint64_t settled_boundary_ = 0;
  std::vector<uint64_t> pseudo_genesis_jsns_;
  /// High-water mark for server timestamps. Stamping clamps against it so
  /// server_ts is non-decreasing in jsn order even if the wall clock steps
  /// backwards — ResolveClueRange binary-searches timestamps along a
  /// clue's postings, and the client's batch audit rejects any range
  /// answer whose journals stray outside the queried window, so jsn order
  /// and time order must agree.
  Timestamp last_server_ts_ = 0;
  MemoryStreamStore survival_stream_;
  std::vector<uint64_t> pending_occult_;
  /// Occulted jsns whose payload the next SettleJournalEffects erases or
  /// queues (an already-erased payload is skipped there).
  std::vector<uint64_t> unsettled_occult_;
  BitmapIndex occult_bitmap_;

  /// Append idempotency: (signer id, nonce) -> original commit. A retried
  /// submission with the same request hash returns the original jsn; a
  /// *different* transaction reusing a nonce is rejected (AlreadyExists).
  /// Rebuilt from the journal stream on recovery; the settle step drops
  /// purged journals' entries, so the dedup horizon ends at the purge
  /// boundary. Mutated only on the committer thread.
  struct DedupEntry {
    uint64_t jsn;
    Digest request_hash;
  };
  std::unordered_map<std::string, std::unordered_map<uint64_t, DedupEntry>>
      dedup_;

  /// Per-journal mirror deltas, one per jsn (tombstoned journals included:
  /// the tombstone retains exactly the delta fields). Serves GetDelta.
  std::vector<JournalDelta> delta_log_;
};

}  // namespace ledgerdb

#endif  // LEDGERDB_LEDGER_LEDGER_H_
