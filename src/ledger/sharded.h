#ifndef LEDGERDB_LEDGER_SHARDED_H_
#define LEDGERDB_LEDGER_SHARDED_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "ledger/ledger.h"

namespace ledgerdb {

/// Commitment over a sharded ledger group: the ordered shard fam roots,
/// folded into one digest. A verifier pins the combined digest and checks
/// any journal with (shard proof, shard root, sibling roots).
struct GroupCommitment {
  std::vector<Digest> shard_roots;

  /// H(chain of shard roots) — the single published group commitment.
  Digest Combined() const;
};

/// Tunables of a ShardedLedgerGroup's append pipeline, fixed for the
/// group's lifetime (ShardedLedgerGroup::PipelineOptions). Declared at
/// namespace scope: a nested struct's member initializers cannot feed a
/// defaulted argument of its enclosing class.
struct GroupPipelineOptions {
  /// Shared prevalidation workers (0 = hardware concurrency, at least 2).
  size_t prevalidate_threads = 0;
  /// After a committer lane has one ready ticket, how long it may wait for
  /// a full group before flushing (0 = flush whatever is contiguously
  /// ready right now).
  uint64_t max_group_delay_us = 0;
};

/// Horizontal scale-out for a single logical ledger (§II-C: LedgerDB's
/// production throughput exceeds 300K TPS via a centralized scale-out
/// architecture; each Ledger object here is single-threaded by design).
/// Journals are partitioned across `shard_count` Ledger shards — by the
/// first clue's hash when present (keeping every clue's lineage on one
/// shard), else by request hash. Every shard is an ordinary, fully
/// verifiable Ledger; the group additionally publishes a combined
/// commitment binding all shard roots.
///
/// ## Parallel append pipeline
///
/// AppendBatch()/AppendAsync() are the group's only append path, a
/// two-stage pipeline: the expensive shard-independent stage (π_c ECDSA
/// verification, membership lookup, payload hashing —
/// Ledger::Prevalidate) fans out across a shared worker pool, while
/// commits drain through one ordered committer lane per shard. Each lane
/// coalesces the contiguously-ready prefix of its queue into a commit
/// group (Ledger::CommitPrevalidatedGroup) — one storage flush per group
/// instead of per journal — and seals full blocks inline on the same
/// thread, so no shard ever sees concurrent mutation and per-shard
/// journal order equals submission order. The pool and the lanes start
/// with the group and stop in its destructor. See docs/parallel_append.md.
class ShardedLedgerGroup {
 public:
  /// Identifies a journal inside the group.
  struct Location {
    size_t shard = 0;
    uint64_t jsn = 0;
  };

  /// Result of one pipelined append.
  struct AppendOutcome {
    Status status;
    Location location;
  };

  /// Max tickets a committer lane coalesces into one commit group (one
  /// storage flush / fsync pair for the whole group).
  static constexpr size_t kMaxCommitGroup = 64;

  using PipelineOptions = GroupPipelineOptions;

  /// `shard_storage`, when non-empty, supplies one LedgerStorage per shard
  /// (padded with disabled storage if shorter), making each shard durable
  /// and individually recoverable via Ledger::Recover. Starts the append
  /// pipeline, which runs until the group is destroyed.
  ShardedLedgerGroup(const std::string& uri, size_t shard_count,
                     const LedgerOptions& options, Clock* clock,
                     KeyPair lsp_key, const MemberRegistry* members,
                     std::vector<LedgerStorage> shard_storage = {},
                     const PipelineOptions& pipeline = {});

  /// What group recovery found, per shard.
  struct RecoverOutcome {
    size_t recovered = 0;
    size_t quarantined = 0;
    std::vector<Status> shard_status;  // OK or the shard's recovery failure
    /// Indexed like shard_status: how each healthy shard came back
    /// (checkpoint watermark, tail length, reconciled records).
    std::vector<RecoveryInfo> shard_info;
  };

  /// Rebuilds a group from per-shard streams (`shard_storage` must cover
  /// every shard). Graceful degradation: a shard whose recovery fails is
  /// quarantined — its slot stays empty, its recovery error is retained,
  /// and every operation routed to it returns Status::Unavailable while
  /// the remaining shards keep serving. Fails outright only when no shard
  /// recovers at all. The healthy shards' pipeline starts on success.
  static Status Recover(const std::string& uri, size_t shard_count,
                        const LedgerOptions& options, Clock* clock,
                        KeyPair lsp_key, const MemberRegistry* members,
                        std::vector<LedgerStorage> shard_storage,
                        std::unique_ptr<ShardedLedgerGroup>* out,
                        RecoverOutcome* outcome = nullptr,
                        const PipelineOptions& pipeline = {});

  /// Drains every in-flight append and checkpoint, joins the lanes and then
  /// the prevalidation pool, and only then destroys the lanes and shards.
  /// No append or checkpoint call may run concurrently with it.
  ~ShardedLedgerGroup();

  size_t shard_count() const { return shards_.size(); }
  /// nullptr when the shard is quarantined.
  Ledger* shard(size_t i) { return shards_[i].get(); }
  const Ledger* shard(size_t i) const { return shards_[i].get(); }

  bool IsQuarantined(size_t shard) const {
    return shard < shards_.size() && shards_[shard] == nullptr;
  }
  size_t QuarantinedCount() const;

  /// OK for a healthy shard; the original recovery failure for a
  /// quarantined one.
  Status ShardHealth(size_t shard) const;

  /// Shard that owns `clue` (stable: lineage never crosses shards).
  size_t ShardOfClue(const std::string& clue) const;

  // -------------------------------------------------------------------
  // Parallel append pipeline
  // -------------------------------------------------------------------

  /// Pipelined bulk append. Prevalidation of all transactions fans out
  /// across the worker pool; commits retire through the per-shard
  /// committer lanes in submission order, so per-clue lineage order is
  /// preserved. Returns OK iff every transaction committed; per-entry
  /// results land in `locations` (and `statuses` when non-null), indexed
  /// like `txs`. Thread-safe: concurrent AppendBatch calls interleave
  /// safely (each caller's own submission order is still preserved).
  Status AppendBatch(std::span<const ClientTransaction> txs,
                     std::vector<Location>* locations,
                     std::vector<Status>* statuses = nullptr);

  /// Pipelined single append; the future resolves once the journal has
  /// committed on its shard (or failed prevalidation). Reads of shard
  /// state (GetJournal, roots, proofs) are safe only while no append is
  /// in flight — resolve every outstanding future before reading.
  std::future<AppendOutcome> AppendAsync(ClientTransaction tx);

  Status GetJournal(const Location& location, Journal* journal) const;
  Status GetReceipt(const Location& location, Receipt* receipt);

  /// Existence proof inside the owning shard, plus the group context
  /// needed to check it against the combined commitment.
  Status GetProof(const Location& location, FamProof* proof) const;

  /// Current group commitment (all shard fam roots). Quarantined shards
  /// contribute a zero digest — the commitment stays position-stable but
  /// explicitly does not vouch for an unavailable shard's journals.
  GroupCommitment Commitment() const;

  /// Verifies a journal against a pinned group commitment: the shard
  /// proof must bind to its shard root, and the shard roots must fold to
  /// the pinned combined digest.
  static bool VerifyJournalProof(const Journal& journal, const FamProof& proof,
                                 const Location& location,
                                 const GroupCommitment& commitment,
                                 const Digest& pinned_combined);

  /// Clue APIs route to the owning shard.
  Status ListTx(const std::string& clue, std::vector<uint64_t>* jsns,
                size_t* shard) const;
  Status GetClueProof(const std::string& clue, uint64_t begin, uint64_t end,
                      ClueProof* proof, size_t* shard) const;

  /// Total journals across shards (including per-shard genesis entries).
  uint64_t TotalJournals() const;

  // -------------------------------------------------------------------
  // Verified checkpoints
  // -------------------------------------------------------------------

  /// Writes one verified checkpoint for `shard` (Ledger::WriteCheckpoint).
  /// Safe concurrently with pipelined appends: the checkpoint rides the
  /// shard's committer lane as a maintenance task and executes between
  /// commit groups, so the single-writer invariant holds without stopping
  /// the pipeline.
  Status CheckpointShard(size_t shard, uint32_t* slot_out = nullptr);

  /// Checkpoints every shard; quarantined shards are recorded as
  /// Unavailable. Per-shard outcomes land in `per_shard` (indexed like
  /// shards) when non-null; returns the first failure, if any.
  Status CheckpointAll(std::vector<Status>* per_shard = nullptr);

 private:
  /// One append travelling through the pipeline. `tx` points at the
  /// caller's span element (AppendBatch, which outlives the batch) or at
  /// `owned_tx` (AppendAsync). The prevalidation task fills in
  /// `prevalidated` and `prevalidate_status`, then sets `ready` under the
  /// owning lane's mutex, which hands the results to the lane.
  struct PendingAppend {
    ClientTransaction owned_tx;
    const ClientTransaction* tx = nullptr;
    size_t shard = 0;
    Ledger::PrevalidatedTx prevalidated;
    Status prevalidate_status;
    bool ready = false;  // guarded by lanes_[shard]->mu
    std::promise<AppendOutcome> done;
  };

  /// Recovery-only constructor: shards are filled in by Recover().
  ShardedLedgerGroup() = default;

  /// Starts the prevalidation pool and one committer lane per healthy
  /// shard; called once, by the constructor or by Recover().
  void StartPipeline(const PipelineOptions& pipeline);

  /// Unavailable for quarantined shards, InvalidArgument out of range.
  Status CheckShard(size_t shard) const;

  /// Any non-quarantined shard (for shard-independent work like batched
  /// prevalidation). Never null: group construction guarantees at least
  /// one healthy shard.
  const Ledger* AnyHealthyShard() const;

  /// Clue/request-hash routing of the append pipeline. Rejects
  /// transactions routed to a quarantined shard with Unavailable.
  Status RouteShard(const ClientTransaction& tx, size_t* shard) const;

  /// One ordered commit lane per shard: an explicit thread draining a
  /// bounded ticket deque, so it can coalesce the contiguously-ready
  /// queue prefix into commit groups (Ledger::CommitPrevalidatedGroup —
  /// one storage flush per group) without ever reordering tickets. `mu`
  /// guards `queue`, `maintenance`, `stopping` and the `ready` flag of
  /// every queued ticket.
  struct CommitterLane {
    std::mutex mu;
    std::condition_variable cv;  // ready tickets, maintenance, stop
    std::condition_variable space_cv;  // backpressure for producers
    std::deque<std::shared_ptr<PendingAppend>> queue;
    /// Shard-exclusive work (checkpoints) the lane runs between commit
    /// groups — the pipeline's seam for maintenance without stopping it.
    std::deque<std::function<void()>> maintenance;
    bool stopping = false;
    std::thread thread;
  };

  /// Routes `p`, and on success enqueues its commit ticket on the owning
  /// shard's lane (in the caller's submission order). Returns false when
  /// routing failed (the future is already resolved with the error);
  /// prevalidation has NOT been scheduled either way — the caller batches
  /// routed appends into SubmitPrevalidateChunk.
  bool EnqueueCommitTicket(const std::shared_ptr<PendingAppend>& p);

  /// Schedules one pool task that prevalidates the whole chunk through
  /// Ledger::PrevalidateBatch (shared batched ECDSA inversions) and
  /// releases each append's commit ticket.
  void SubmitPrevalidateChunk(std::vector<std::shared_ptr<PendingAppend>> chunk);

  /// Body of a committer lane thread.
  void CommitterLoop(CommitterLane* lane, Ledger* ledger, size_t shard,
                     uint64_t max_group_delay_us);

  std::vector<std::unique_ptr<Ledger>> shards_;
  std::vector<Status> shard_health_;  // indexed like shards_; OK if healthy

  /// Indexed like shards_; null for a quarantined shard.
  std::vector<std::unique_ptr<CommitterLane>> lanes_;
  std::unique_ptr<ThreadPool> prevalidate_pool_;
};

}  // namespace ledgerdb

#endif  // LEDGERDB_LEDGER_SHARDED_H_
