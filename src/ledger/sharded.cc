#include "ledger/sharded.h"

#include <algorithm>
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
                                       std::vector<LedgerStorage> shard_storage) {
  if (shard_count == 0) shard_count = 1;
  shards_.reserve(shard_count);
  shard_health_.assign(shard_count, Status::OK());
  ckpt_auto_ok_.assign(shard_count, 1);
  for (size_t i = 0; i < shard_count; ++i) {
    LedgerStorage storage =
        i < shard_storage.size() ? shard_storage[i] : LedgerStorage{};
    // All shards share the logical uri so client signatures (which cover
    // the uri) route unchanged.
    shards_.push_back(std::make_unique<Ledger>(uri, options, clock, lsp_key,
                                               members, storage));
  }
}

Status ShardedLedgerGroup::Recover(const std::string& uri, size_t shard_count,
                                   const LedgerOptions& options, Clock* clock,
                                   KeyPair lsp_key,
                                   const MemberRegistry* members,
                                   std::vector<LedgerStorage> shard_storage,
                                   std::unique_ptr<ShardedLedgerGroup>* out,
                                   RecoverOutcome* outcome) {
  if (shard_count == 0) shard_count = 1;
  if (shard_storage.size() < shard_count) {
    return Status::InvalidArgument(
        "group recovery requires storage for every shard");
  }
  auto group = std::unique_ptr<ShardedLedgerGroup>(new ShardedLedgerGroup());
  group->shards_.resize(shard_count);
  group->shard_health_.assign(shard_count, Status::OK());
  group->ckpt_auto_ok_.assign(shard_count, 1);
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
  *out = std::move(group);
  return Status::OK();
}

ShardedLedgerGroup::~ShardedLedgerGroup() {
  // The checkpoint lane routes work through the committer lanes — stop it
  // before the pipeline so no ticket lands on a draining lane.
  StopCheckpointing();
  StopParallelAppend();
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

void ShardedLedgerGroup::StartParallelAppend(size_t prevalidate_threads) {
  std::lock_guard<std::mutex> lock(engine_mu_);
  if (prevalidate_pool_ != nullptr) return;
  if (prevalidate_threads == 0) {
    prevalidate_threads = std::max(2u, std::thread::hardware_concurrency());
  }
  prevalidate_pool_ =
      std::make_unique<ThreadPool>(prevalidate_threads, /*queue_capacity=*/4096);

  // One committer lane per shard: commits and block seals execute
  // serially in submission order, preserving the Ledger single-writer
  // invariant; the lane thread groups contiguously-ready tickets for
  // group commit.
  lanes_.clear();
  for (size_t i = 0; i < shards_.size(); ++i) {
    lanes_.push_back(std::make_unique<CommitterLane>());
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    CommitterLane* lane = lanes_[i].get();
    Ledger* ledger = shards_[i].get();
    lane->thread =
        std::thread([this, lane, ledger, i] { CommitterLoop(lane, ledger, i); });
  }
}

void ShardedLedgerGroup::StopParallelAppend() {
  std::unique_ptr<ThreadPool> pool;
  std::vector<std::unique_ptr<CommitterLane>> lanes;
  {
    std::lock_guard<std::mutex> lock(engine_mu_);
    pool = std::move(prevalidate_pool_);
    lanes = std::move(lanes_);
    lanes_.clear();
  }
  // Committer lanes drain first; their queued tickets block on
  // prevalidations still executing on the (live) pool.
  for (auto& lane : lanes) {
    if (lane == nullptr) continue;
    {
      std::lock_guard<std::mutex> lock(lane->mu);
      lane->stopping = true;
    }
    lane->cv.notify_all();
  }
  for (auto& lane : lanes) {
    if (lane != nullptr && lane->thread.joinable()) lane->thread.join();
  }
  pool.reset();
}

bool ShardedLedgerGroup::EnqueueCommitTicket(
    const std::shared_ptr<PendingAppend>& p) {
  Status route = RouteShard(*p->tx, &p->shard);
  if (!route.ok()) {
    p->done.set_value({route, Location{}});
    return false;
  }
  StartParallelAppend();

  // Stage 2 reservation: the commit ticket enters the shard's ordered
  // lane NOW (in submission order); the lane blocks on `ready`, so
  // per-shard commit order — and therefore per-clue lineage order —
  // matches submission order even when prevalidations finish out of
  // order.
  CommitterLane& lane = *lanes_[p->shard];
  {
    std::unique_lock<std::mutex> lock(lane.mu);
    lane.space_cv.wait(lock, [&] { return lane.queue.size() < kLaneCapacity; });
    lane.queue.push_back(p);
  }
  lane.cv.notify_all();
  LEDGERDB_OBS_GAUGE_ADD(obs::names::kShardLaneDepthCount, 1);
  return true;
}

void ShardedLedgerGroup::CommitterLoop(CommitterLane* lane, Ledger* ledger,
                                       size_t shard) {
  const size_t max_group = std::max<size_t>(1, pipeline_options_.max_group_size);
  const auto max_delay =
      std::chrono::microseconds(pipeline_options_.max_group_delay_us);
  for (;;) {
    // Head of the group: wait for a ticket, a maintenance task, or the
    // stop signal (the lane drains its whole queue before exiting).
    std::vector<std::shared_ptr<PendingAppend>> group;
    std::deque<std::function<void()>> maintenance;
    {
      std::unique_lock<std::mutex> lock(lane->mu);
      lane->cv.wait(lock, [&] {
        return !lane->queue.empty() || !lane->maintenance.empty() ||
               lane->stopping;
      });
      maintenance.swap(lane->maintenance);
      if (lane->queue.empty()) {
        const bool stopping = lane->stopping;
        lock.unlock();
        // Maintenance runs between commit groups on this thread — the
        // shard sees no concurrent mutation — and is honored even on the
        // way out so no caller blocks on an abandoned ticket.
        for (auto& task : maintenance) task();
        if (stopping) return;
        continue;
      }
      group.push_back(std::move(lane->queue.front()));
      lane->queue.pop_front();
    }
    for (auto& task : maintenance) task();
    lane->space_cv.notify_all();
    LEDGERDB_OBS_GAUGE_ADD(obs::names::kShardLaneDepthCount, -1);

    {
      // The lane stalls here whenever the head ticket's prevalidation has
      // not finished yet — the wait time is the pipeline's bubble.
      uint64_t wait_start = obs::Enabled() ? obs::NowUs() : 0;
      std::unique_lock<std::mutex> tlock(group[0]->mu);
      if (!group[0]->ready) {
        LEDGERDB_OBS_COUNT(obs::names::kShardCommitterStallsTotal);
      }
      group[0]->cv.wait(tlock, [&] { return group[0]->ready; });
      if (wait_start != 0) {
        LEDGERDB_OBS_OBSERVE(obs::names::kShardCommitWaitUs,
                             obs::NowUs() - wait_start);
      }
    }

    // Coalesce the contiguously-ready queue prefix into the same group —
    // never reordering: the scan stops at the first not-ready ticket
    // (after waiting out the optional delay budget).
    const auto deadline = std::chrono::steady_clock::now() + max_delay;
    bool budget = max_delay.count() > 0;
    while (group.size() < max_group) {
      std::shared_ptr<PendingAppend> next;
      {
        std::unique_lock<std::mutex> lock(lane->mu);
        if (lane->queue.empty()) {
          if (!budget || lane->stopping) break;
          lane->cv.wait_until(lock, deadline, [&] {
            return !lane->queue.empty() || lane->stopping;
          });
          if (lane->queue.empty()) break;
        }
        next = lane->queue.front();
      }
      bool ready = false;
      {
        std::unique_lock<std::mutex> tlock(next->mu);
        if (!next->ready && budget) {
          next->cv.wait_until(tlock, deadline, [&] { return next->ready; });
        }
        ready = next->ready;
      }
      if (budget && std::chrono::steady_clock::now() >= deadline) {
        budget = false;
      }
      if (!ready) break;
      {
        // Only this thread pops, so `next` is still the front.
        std::lock_guard<std::mutex> lock(lane->mu);
        lane->queue.pop_front();
      }
      lane->space_cv.notify_all();
      LEDGERDB_OBS_GAUGE_ADD(obs::names::kShardLaneDepthCount, -1);
      group.push_back(std::move(next));
    }

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
    if (committing.empty()) continue;
    std::vector<uint64_t> jsns;
    std::vector<Status> statuses;
    // The group-level status only carries a block-seal failure (the
    // journals themselves are durable); per-ticket outcomes are what the
    // callers observe.
    (void)ledger->CommitPrevalidatedGroup(std::move(batch), &jsns, &statuses);
    for (size_t i = 0; i < committing.size(); ++i) {
      committing[i]->done.set_value(
          {std::move(statuses[i]), Location{shard, jsns[i]}});
    }
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
  prevalidate_pool_->Submit([chunk = std::move(chunk), ledger] {
    std::vector<const ClientTransaction*> txs(chunk.size());
    std::vector<Ledger::PrevalidatedTx> outs(chunk.size());
    std::vector<Status> statuses(chunk.size());
    for (size_t i = 0; i < chunk.size(); ++i) txs[i] = chunk[i]->tx;
    ledger->PrevalidateBatch(txs, outs.data(), statuses.data());
    for (size_t i = 0; i < chunk.size(); ++i) {
      const std::shared_ptr<PendingAppend>& p = chunk[i];
      std::lock_guard<std::mutex> lock(p->mu);
      p->prevalidated = std::move(outs[i]);
      p->prevalidate_status = std::move(statuses[i]);
      p->ready = true;
      p->cv.notify_all();
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

Status ShardedLedgerGroup::GetProofBatch(size_t shard,
                                         const std::vector<uint64_t>& jsns,
                                         FamBatchProof* proof) const {
  LEDGERDB_RETURN_IF_ERROR(CheckShard(shard));
  return shards_[shard]->GetProofBatch(jsns, proof);
}

Status ShardedLedgerGroup::ProveClueRange(const std::string& clue,
                                          Timestamp from, Timestamp to,
                                          ClueRangeResult* out,
                                          size_t* shard) const {
  size_t s = ShardOfClue(clue);
  if (shard != nullptr) *shard = s;
  LEDGERDB_RETURN_IF_ERROR(CheckShard(s));
  return shards_[s]->ProveClueRange(clue, from, to, out);
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
  Ledger* ledger = shards_[shard].get();
  CommitterLane* lane = nullptr;
  {
    std::lock_guard<std::mutex> lock(engine_mu_);
    if (shard < lanes_.size() && lanes_[shard] != nullptr &&
        lanes_[shard]->thread.joinable()) {
      lane = lanes_[shard].get();
    }
  }

  Status result;
  bool ran = false;
  if (lane != nullptr) {
    // Pipeline running: the checkpoint must not interleave with commits,
    // so it rides the shard's committer lane as a maintenance ticket and
    // executes between commit groups on the lane thread.
    std::promise<Status> done;
    std::future<Status> future = done.get_future();
    bool enqueued = false;
    {
      std::lock_guard<std::mutex> lock(lane->mu);
      if (!lane->stopping) {
        lane->maintenance.push_back(
            [&done, ledger, slot_out] { done.set_value(ledger->WriteCheckpoint(slot_out)); });
        enqueued = true;
      }
    }
    if (enqueued) {
      lane->cv.notify_all();
      result = future.get();
      ran = true;
    }
  }
  if (!ran) {
    // No live lane: no commit can interleave, so write inline.
    result = ledger->WriteCheckpoint(slot_out);
  }

  {
    // "Nothing sealed yet" is not a health failure — it only means the
    // shard has no block to cover; keep the background lane trying.
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    ckpt_auto_ok_[shard] = (result.ok() || result.IsInvalidArgument()) ? 1 : 0;
  }
  return result;
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

void ShardedLedgerGroup::StartCheckpointing(uint64_t cadence_ms) {
  if (cadence_ms == 0) cadence_ms = 1;
  std::lock_guard<std::mutex> lock(ckpt_mu_);
  ckpt_cadence_ms_ = cadence_ms;
  if (ckpt_thread_.joinable()) return;  // cadence updated, lane already up
  ckpt_stopping_ = false;
  ckpt_thread_ = std::thread([this] { CheckpointLoop(); });
}

void ShardedLedgerGroup::StopCheckpointing() {
  std::thread thread;
  {
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    if (!ckpt_thread_.joinable()) return;
    ckpt_stopping_ = true;
    thread = std::move(ckpt_thread_);
  }
  ckpt_cv_.notify_all();
  thread.join();
}

bool ShardedLedgerGroup::AutoCheckpointEnabled(size_t shard) const {
  std::lock_guard<std::mutex> lock(ckpt_mu_);
  return shard < ckpt_auto_ok_.size() && ckpt_auto_ok_[shard] != 0;
}

void ShardedLedgerGroup::CheckpointLoop() {
  std::unique_lock<std::mutex> lock(ckpt_mu_);
  for (;;) {
    ckpt_cv_.wait_for(lock, std::chrono::milliseconds(ckpt_cadence_ms_),
                      [&] { return ckpt_stopping_; });
    if (ckpt_stopping_) return;
    for (size_t i = 0; i < shards_.size(); ++i) {
      if (ckpt_auto_ok_[i] == 0) continue;  // paused until a manual success
      lock.unlock();
      Status s = IsQuarantined(i) ? Status::OK() : CheckpointShard(i);
      (void)s;  // CheckpointShard records per-shard health itself
      lock.lock();
      if (ckpt_stopping_) return;
    }
  }
}

}  // namespace ledgerdb
