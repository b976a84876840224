#include "ledger/sharded.h"

#include <algorithm>
#include <iterator>
#include <string_view>
#include <thread>
#include <utility>

#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace ledgerdb {

Digest GroupCommitment::Combined() const {
  Sha256 h;
  h.Update(Slice(std::string_view("group-commitment")));
  for (const Digest& root : shard_roots) {
    h.Update(root.bytes.data(), root.bytes.size());
  }
  return h.Finish();
}

ShardedLedgerGroup::ShardedLedgerGroup(const std::string& uri,
                                       size_t shard_count,
                                       const LedgerOptions& options,
                                       Clock* clock, KeyPair lsp_key,
                                       const MemberRegistry* members,
                                       std::vector<LedgerStorage> shard_storage,
                                       const PipelineOptions& pipeline) {
  if (shard_count == 0) shard_count = 1;
  shards_.reserve(shard_count);
  shard_health_.assign(shard_count, Status::OK());
  for (size_t i = 0; i < shard_count; ++i) {
    LedgerStorage storage =
        i < shard_storage.size() ? shard_storage[i] : LedgerStorage{};
    // All shards share the logical uri so client signatures (which cover
    // the uri) route unchanged.
    shards_.push_back(std::make_unique<Ledger>(uri, options, clock, lsp_key,
                                               members, storage));
  }
  StartPipeline(pipeline);
}

Status ShardedLedgerGroup::Recover(const std::string& uri, size_t shard_count,
                                   const LedgerOptions& options, Clock* clock,
                                   KeyPair lsp_key,
                                   const MemberRegistry* members,
                                   std::vector<LedgerStorage> shard_storage,
                                   std::unique_ptr<ShardedLedgerGroup>* out,
                                   RecoverOutcome* outcome,
                                   const PipelineOptions& pipeline) {
  if (shard_count == 0) shard_count = 1;
  if (shard_storage.size() < shard_count) {
    return Status::InvalidArgument(
        "group recovery requires storage for every shard");
  }
  auto group = std::unique_ptr<ShardedLedgerGroup>(new ShardedLedgerGroup());
  group->shards_.resize(shard_count);
  group->shard_health_.assign(shard_count, Status::OK());
  std::vector<RecoveryInfo> shard_info(shard_count);
  size_t recovered = 0;
  for (size_t i = 0; i < shard_count; ++i) {
    std::unique_ptr<Ledger> shard;
    Status s = Ledger::Recover(uri, options, clock, lsp_key, members,
                               shard_storage[i], &shard, &shard_info[i]);
    if (s.ok()) {
      group->shards_[i] = std::move(shard);
      ++recovered;
    } else {
      // Quarantine: keep the group up, remember why the shard is down.
      group->shard_health_[i] = s;
    }
  }
  if (outcome != nullptr) {
    outcome->recovered = recovered;
    outcome->quarantined = shard_count - recovered;
    outcome->shard_status = group->shard_health_;
    outcome->shard_info = std::move(shard_info);
  }
  LEDGERDB_OBS_GAUGE_SET(obs::names::kShardQuarantinedCount,
                         static_cast<int64_t>(shard_count - recovered));
  if (recovered == 0) {
    return Status::Corruption("group recovery failed: no shard recovered (" +
                              group->shard_health_[0].ToString() + ")");
  }
  group->StartPipeline(pipeline);
  *out = std::move(group);
  return Status::OK();
}

ShardedLedgerGroup::~ShardedLedgerGroup() {
  // The lanes drain first: their queued tickets may wait on prevalidations
  // that still need live pool workers. The pool joins next. The lanes are
  // destroyed last, because a prevalidation task notifies a lane after it
  // releases the lane's mutex.
  for (auto& lane : lanes_) {
    if (lane == nullptr) continue;
    {
      std::lock_guard<std::mutex> lock(lane->mu);
      lane->stopping = true;
    }
    lane->cv.notify_one();
  }
  for (auto& lane : lanes_) {
    if (lane != nullptr) lane->thread.join();
  }
  prevalidate_pool_.reset();
}

size_t ShardedLedgerGroup::QuarantinedCount() const {
  size_t n = 0;
  for (const auto& shard : shards_) n += (shard == nullptr);
  return n;
}

Status ShardedLedgerGroup::ShardHealth(size_t shard) const {
  if (shard >= shards_.size()) {
    return Status::InvalidArgument("shard out of range");
  }
  return shard_health_[shard];
}

Status ShardedLedgerGroup::CheckShard(size_t shard) const {
  if (shard >= shards_.size()) {
    return Status::InvalidArgument("shard out of range");
  }
  if (shards_[shard] == nullptr) {
    return Status::Unavailable("shard " + std::to_string(shard) +
                               " quarantined after failed recovery: " +
                               shard_health_[shard].message());
  }
  return Status::OK();
}

const Ledger* ShardedLedgerGroup::AnyHealthyShard() const {
  for (const auto& shard : shards_) {
    if (shard != nullptr) return shard.get();
  }
  return nullptr;  // unreachable: construction guarantees a healthy shard
}

size_t ShardedLedgerGroup::ShardOfClue(const std::string& clue) const {
  Digest d = Sha256::Hash(clue);
  uint64_t h = 0;
  for (int i = 0; i < 8; ++i) h = (h << 8) | d.bytes[i];
  return h % shards_.size();
}

Status ShardedLedgerGroup::RouteShard(const ClientTransaction& tx,
                                      size_t* shard) const {
  if (!tx.clues.empty()) {
    *shard = ShardOfClue(tx.clues[0]);
    // A journal's clues must all live on one shard, or lineage would split.
    for (const std::string& clue : tx.clues) {
      if (ShardOfClue(clue) != *shard) {
        return Status::InvalidArgument(
            "clues of one journal map to different shards");
      }
    }
    return CheckShard(*shard);
  }
  Digest rh = tx.RequestHash();
  uint64_t h = 0;
  for (int i = 0; i < 8; ++i) h = (h << 8) | rh.bytes[i];
  *shard = h % shards_.size();
  return CheckShard(*shard);
}

// ---------------------------------------------------------------------------
// Parallel append pipeline
// ---------------------------------------------------------------------------

namespace {
/// Ticket backlog bound per committer lane; producers block (backpressure)
/// when their shard's lane is this far behind.
constexpr size_t kLaneCapacity = 4096;
}  // namespace

void ShardedLedgerGroup::StartPipeline(const PipelineOptions& pipeline) {
  size_t threads = pipeline.prevalidate_threads;
  if (threads == 0) threads = std::max(2u, std::thread::hardware_concurrency());
  prevalidate_pool_ =
      std::make_unique<ThreadPool>(threads, /*queue_capacity=*/4096);

  // One committer lane per healthy shard: commits and block seals execute
  // serially in submission order, preserving the Ledger single-writer
  // invariant. A quarantined shard gets no lane; routing rejects its
  // appends and CheckShard its checkpoints.
  lanes_.resize(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i] == nullptr) continue;
    lanes_[i] = std::make_unique<CommitterLane>();
    lanes_[i]->thread = std::thread(
        [this, lane = lanes_[i].get(), ledger = shards_[i].get(), i,
         delay_us = pipeline.max_group_delay_us] {
          CommitterLoop(lane, ledger, i, delay_us);
        });
  }
}

bool ShardedLedgerGroup::EnqueueCommitTicket(
    const std::shared_ptr<PendingAppend>& p) {
  Status route = RouteShard(*p->tx, &p->shard);
  if (!route.ok()) {
    p->done.set_value({route, Location{}});
    return false;
  }

  // Stage 2 reservation: the commit ticket enters the shard's ordered
  // lane NOW (in submission order); the lane commits only a ready head,
  // so per-shard commit order — and therefore per-clue lineage order —
  // matches submission order even when prevalidations finish out of
  // order.
  CommitterLane& lane = *lanes_[p->shard];
  bool was_empty = false;
  {
    std::unique_lock<std::mutex> lock(lane.mu);
    lane.space_cv.wait(lock, [&] { return lane.queue.size() < kLaneCapacity; });
    was_empty = lane.queue.empty();
    lane.queue.push_back(p);
  }
  // Only a new head concerns the lane: it wakes to time the stall until
  // that head is ready.
  if (was_empty) lane.cv.notify_one();
  LEDGERDB_OBS_GAUGE_ADD(obs::names::kShardLaneDepthCount, 1);
  return true;
}

void ShardedLedgerGroup::CommitterLoop(CommitterLane* lane, Ledger* ledger,
                                       size_t shard,
                                       uint64_t max_group_delay_us) {
  const auto max_delay = std::chrono::microseconds(max_group_delay_us);
  // Length of the queue's contiguously-ready prefix, capped at one group.
  auto ready_prefix = [lane] {
    size_t n = 0;
    while (n < lane->queue.size() && n < kMaxCommitGroup &&
           lane->queue[n]->ready) {
      ++n;
    }
    return n;
  };
  // The current head: whether the lane has seen it yet, and when. A head
  // first seen not ready is a stall — the pipeline's bubble — and the
  // commit wait runs from first sight until the head is ready.
  bool head_seen = false;
  uint64_t head_seen_us = 0;
  std::unique_lock<std::mutex> lock(lane->mu);
  for (;;) {
    // One wait: a ready head, queued maintenance, or a stop with an empty
    // queue (the lane drains its whole queue before exiting).
    lane->cv.wait(lock, [&] {
      if (!lane->maintenance.empty()) return true;
      if (lane->queue.empty()) return lane->stopping;
      const bool ready = lane->queue.front()->ready;
      if (!head_seen) {
        head_seen = true;
        head_seen_us = obs::Enabled() ? obs::NowUs() : 0;
        if (!ready) LEDGERDB_OBS_COUNT(obs::names::kShardCommitterStallsTotal);
      }
      return ready;
    });
    if (!lane->maintenance.empty()) {
      // Maintenance runs between commit groups on this thread, so the
      // shard sees no concurrent mutation; it is honored even on the way
      // out so no caller blocks on an abandoned task.
      std::deque<std::function<void()>> maintenance;
      maintenance.swap(lane->maintenance);
      lock.unlock();
      for (auto& task : maintenance) task();
      lock.lock();
      continue;
    }
    if (lane->queue.empty()) return;  // stopping, and drained
    if (head_seen_us != 0) {
      LEDGERDB_OBS_OBSERVE(obs::names::kShardCommitWaitUs,
                           obs::NowUs() - head_seen_us);
    }
    head_seen = false;
    if (max_delay.count() > 0) {
      lane->cv.wait_for(lock, max_delay, [&] {
        return lane->stopping || ready_prefix() == kMaxCommitGroup;
      });
    }

    // Pop the contiguously-ready prefix — never reordering: it ends at the
    // first not-ready ticket — and commit it with the lock released.
    const size_t n = ready_prefix();
    std::vector<std::shared_ptr<PendingAppend>> group(
        std::make_move_iterator(lane->queue.begin()),
        std::make_move_iterator(lane->queue.begin() + n));
    lane->queue.erase(lane->queue.begin(), lane->queue.begin() + n);
    lock.unlock();
    lane->space_cv.notify_all();
    LEDGERDB_OBS_GAUGE_ADD(obs::names::kShardLaneDepthCount,
                           -static_cast<int64_t>(n));

    // Resolve failed prevalidations individually (still in submission
    // order) and commit the survivors as one group — one storage flush
    // for the whole set.
    std::vector<Ledger::PrevalidatedTx> batch;
    std::vector<std::shared_ptr<PendingAppend>> committing;
    batch.reserve(group.size());
    committing.reserve(group.size());
    for (std::shared_ptr<PendingAppend>& p : group) {
      if (!p->prevalidate_status.ok()) {
        p->done.set_value({p->prevalidate_status, Location{}});
        continue;
      }
      batch.push_back(std::move(p->prevalidated));
      committing.push_back(std::move(p));
    }
    if (!committing.empty()) {
      std::vector<uint64_t> jsns;
      std::vector<Status> statuses;
      // The group-level status only carries a block-seal failure (the
      // journals themselves are durable); per-ticket outcomes are what the
      // callers observe.
      (void)ledger->CommitPrevalidatedGroup(std::move(batch), &jsns,
                                            &statuses);
      for (size_t i = 0; i < committing.size(); ++i) {
        committing[i]->done.set_value(
            {std::move(statuses[i]), Location{shard, jsns[i]}});
      }
    }
    lock.lock();
  }
}

void ShardedLedgerGroup::SubmitPrevalidateChunk(
    std::vector<std::shared_ptr<PendingAppend>> chunk) {
  if (chunk.empty()) return;
  // Stage 1: shard-independent prevalidation on any worker. The chunk is
  // batched so every π_c ECDSA check in it shares one batched s⁻¹
  // inversion and one batched R-point normalization (VerifyBatch);
  // results stay per-transaction. All shards share the logical uri and
  // member registry, so any shard's ledger can prevalidate the chunk
  // regardless of routing.
  const Ledger* ledger = AnyHealthyShard();
  LEDGERDB_OBS_OBSERVE(obs::names::kShardPrevalidateChunkCount, chunk.size());
  prevalidate_pool_->Submit([this, chunk = std::move(chunk), ledger] {
    std::vector<const ClientTransaction*> txs(chunk.size());
    std::vector<Ledger::PrevalidatedTx> outs(chunk.size());
    std::vector<Status> statuses(chunk.size());
    for (size_t i = 0; i < chunk.size(); ++i) txs[i] = chunk[i]->tx;
    ledger->PrevalidateBatch(txs, outs.data(), statuses.data());
    for (size_t i = 0; i < chunk.size(); ++i) {
      chunk[i]->prevalidated = std::move(outs[i]);
      chunk[i]->prevalidate_status = std::move(statuses[i]);
    }
    // Publish the results once per lane the chunk touches: one lock and
    // one notify per lane, not per ticket.
    std::vector<char> published(chunk.size(), 0);
    for (size_t i = 0; i < chunk.size(); ++i) {
      if (published[i]) continue;
      const size_t shard = chunk[i]->shard;
      CommitterLane& lane = *lanes_[shard];
      {
        std::lock_guard<std::mutex> lock(lane.mu);
        for (size_t j = i; j < chunk.size(); ++j) {
          if (chunk[j]->shard != shard) continue;
          chunk[j]->ready = true;
          published[j] = 1;
        }
      }
      lane.cv.notify_one();
    }
  });
}

Status ShardedLedgerGroup::AppendBatch(std::span<const ClientTransaction> txs,
                                       std::vector<Location>* locations,
                                       std::vector<Status>* statuses) {
  // Chunk size for batched prevalidation: big enough to amortize the two
  // shared inversions (the batch-inverse gain saturates well before this),
  // small enough to keep many chunks in flight across the pool.
  constexpr size_t kPrevalidateChunk = 64;
  LEDGERDB_OBS_COUNT(obs::names::kShardBatchAppendsTotal);
  std::vector<std::future<AppendOutcome>> futures;
  futures.reserve(txs.size());
  std::vector<std::shared_ptr<PendingAppend>> chunk;
  chunk.reserve(kPrevalidateChunk);
  for (const ClientTransaction& tx : txs) {
    auto p = std::make_shared<PendingAppend>();
    p->tx = &tx;  // the span outlives the batch: we block on every future
    futures.push_back(p->done.get_future());
    if (!EnqueueCommitTicket(p)) continue;
    chunk.push_back(std::move(p));
    if (chunk.size() == kPrevalidateChunk) {
      SubmitPrevalidateChunk(std::move(chunk));
      chunk.clear();
      chunk.reserve(kPrevalidateChunk);
    }
  }
  SubmitPrevalidateChunk(std::move(chunk));

  if (locations != nullptr) locations->assign(txs.size(), Location{});
  if (statuses != nullptr) statuses->assign(txs.size(), Status::OK());
  Status first_error = Status::OK();
  for (size_t i = 0; i < futures.size(); ++i) {
    AppendOutcome outcome = futures[i].get();
    if (locations != nullptr) (*locations)[i] = outcome.location;
    if (statuses != nullptr) (*statuses)[i] = outcome.status;
    if (first_error.ok() && !outcome.status.ok()) {
      first_error = outcome.status;
    }
  }
  return first_error;
}

std::future<ShardedLedgerGroup::AppendOutcome> ShardedLedgerGroup::AppendAsync(
    ClientTransaction tx) {
  auto p = std::make_shared<PendingAppend>();
  p->owned_tx = std::move(tx);
  p->tx = &p->owned_tx;
  std::future<AppendOutcome> future = p->done.get_future();
  if (EnqueueCommitTicket(p)) {
    SubmitPrevalidateChunk({std::move(p)});
  }
  return future;
}

Status ShardedLedgerGroup::GetJournal(const Location& location,
                                      Journal* journal) const {
  LEDGERDB_RETURN_IF_ERROR(CheckShard(location.shard));
  return shards_[location.shard]->GetJournal(location.jsn, journal);
}

Status ShardedLedgerGroup::GetReceipt(const Location& location,
                                      Receipt* receipt) {
  LEDGERDB_RETURN_IF_ERROR(CheckShard(location.shard));
  return shards_[location.shard]->GetReceipt(location.jsn, receipt);
}

Status ShardedLedgerGroup::GetProof(const Location& location,
                                    FamProof* proof) const {
  LEDGERDB_RETURN_IF_ERROR(CheckShard(location.shard));
  return shards_[location.shard]->GetProof(location.jsn, proof);
}

GroupCommitment ShardedLedgerGroup::Commitment() const {
  GroupCommitment commitment;
  commitment.shard_roots.reserve(shards_.size());
  for (const auto& shard : shards_) {
    // Quarantined shard: zero digest keeps the root vector position-stable
    // without vouching for journals we cannot read.
    commitment.shard_roots.push_back(shard != nullptr ? shard->FamRoot()
                                                      : Digest{});
  }
  return commitment;
}

bool ShardedLedgerGroup::VerifyJournalProof(const Journal& journal,
                                            const FamProof& proof,
                                            const Location& location,
                                            const GroupCommitment& commitment,
                                            const Digest& pinned_combined) {
  if (location.shard >= commitment.shard_roots.size()) return false;
  // The supplied shard-root set must fold into the pinned group digest.
  if (!(commitment.Combined() == pinned_combined)) return false;
  return Ledger::VerifyJournalProof(journal, proof,
                                    commitment.shard_roots[location.shard]);
}

Status ShardedLedgerGroup::ListTx(const std::string& clue,
                                  std::vector<uint64_t>* jsns,
                                  size_t* shard) const {
  size_t s = ShardOfClue(clue);
  if (shard != nullptr) *shard = s;
  LEDGERDB_RETURN_IF_ERROR(CheckShard(s));
  return shards_[s]->ListTx(clue, jsns);
}

Status ShardedLedgerGroup::GetClueProof(const std::string& clue,
                                        uint64_t begin, uint64_t end,
                                        ClueProof* proof,
                                        size_t* shard) const {
  size_t s = ShardOfClue(clue);
  if (shard != nullptr) *shard = s;
  LEDGERDB_RETURN_IF_ERROR(CheckShard(s));
  return shards_[s]->GetClueProof(clue, begin, end, proof);
}

uint64_t ShardedLedgerGroup::TotalJournals() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    if (shard != nullptr) total += shard->NumJournals();
  }
  return total;
}

// ---------------------------------------------------------------------------
// Verified checkpoints
// ---------------------------------------------------------------------------

Status ShardedLedgerGroup::CheckpointShard(size_t shard, uint32_t* slot_out) {
  LEDGERDB_RETURN_IF_ERROR(CheckShard(shard));
  // The checkpoint must not interleave with commits, so it rides the
  // shard's committer lane as a maintenance task and executes between
  // commit groups on the lane thread.
  Ledger* ledger = shards_[shard].get();
  CommitterLane& lane = *lanes_[shard];
  std::promise<Status> done;
  std::future<Status> future = done.get_future();
  {
    std::lock_guard<std::mutex> lock(lane.mu);
    lane.maintenance.push_back([&done, ledger, slot_out] {
      done.set_value(ledger->WriteCheckpoint(slot_out));
    });
  }
  lane.cv.notify_one();
  return future.get();
}

Status ShardedLedgerGroup::CheckpointAll(std::vector<Status>* per_shard) {
  if (per_shard != nullptr) per_shard->assign(shards_.size(), Status::OK());
  Status first_error = Status::OK();
  for (size_t i = 0; i < shards_.size(); ++i) {
    Status s = CheckpointShard(i);
    if (per_shard != nullptr) (*per_shard)[i] = s;
    if (first_error.ok() && !s.ok()) first_error = s;
  }
  return first_error;
}

}  // namespace ledgerdb
