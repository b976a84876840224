// Concurrency tests for the pipelined append engine: AppendBatch /
// AppendAsync fan π_c prevalidation across a worker pool and drain commits
// through one ordered committer lane per shard. The invariants checked
// here are exactly the acceptance criteria of the parallel-append design
// (docs/parallel_append.md):
//   * per-clue lineage order equals submission order (ListTx),
//   * the concurrent group is bit-identical (fam/clue/state roots, group
//     commitment, block-header hashes) to a serial replay of the same
//     per-shard journal order,
//   * every shard passes a Dasein audit over a LocalTransport,
//   * every shard recovers from its streams via Ledger::Recover, blocks
//     included,
//   * checkpoints taken on the lanes while appends race them let group
//     recovery start from a checkpoint on every shard.
// Runs under ThreadSanitizer via the `tsan` CTest label.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "audit/dasein_auditor.h"
#include "ledger/sharded.h"
#include "storage/checkpoint.h"
#include "storage/env.h"

namespace ledgerdb {
namespace {

constexpr size_t kShards = 4;
constexpr size_t kThreads = 8;
constexpr size_t kTxPerThread = 1250;  // 10k total
constexpr size_t kCluesPerThread = 25;

class ParallelAppendTest : public ::testing::Test {
 protected:
  ParallelAppendTest()
      : clock_(0),
        ca_(KeyPair::FromSeedString("pa-ca")),
        registry_(&ca_),
        lsp_(KeyPair::FromSeedString("pa-lsp")) {
    registry_.Register(ca_.Certify("lsp", lsp_.public_key(), Role::kLsp));
    for (size_t t = 0; t < kThreads; ++t) {
      users_.push_back(KeyPair::FromSeedString("pa-user-" + std::to_string(t)));
      registry_.Register(ca_.Certify("user-" + std::to_string(t),
                                     users_.back().public_key(), Role::kUser));
    }
    options_.fractal_height = 8;
  }

  ClientTransaction MakeTx(size_t thread_id, size_t seq) {
    ClientTransaction tx;
    tx.ledger_uri = "lg://parallel";
    tx.clues = {"t" + std::to_string(thread_id) + "-clue-" +
                std::to_string(seq % kCluesPerThread)};
    tx.payload = StringToBytes("t" + std::to_string(thread_id) + "-seq-" +
                               std::to_string(seq));
    tx.nonce = thread_id * 1000000 + seq;
    tx.Sign(users_[thread_id]);
    return tx;
  }

  /// Eight threads drive concurrent AppendBatch calls into a durable
  /// 4-shard group, then every invariant in the file header is checked.
  void CheckConcurrentBatches(uint32_t block_capacity);

  SimulatedClock clock_;
  CertificateAuthority ca_;
  MemberRegistry registry_;
  KeyPair lsp_;
  std::vector<KeyPair> users_;
  LedgerOptions options_;
};

void ParallelAppendTest::CheckConcurrentBatches(uint32_t block_capacity) {
  options_.block_capacity = block_capacity;
  // Per-shard durable streams so every shard can be recovered afterwards.
  std::vector<std::unique_ptr<MemoryStreamStore>> stores;
  std::vector<LedgerStorage> storage;
  for (size_t s = 0; s < kShards; ++s) {
    stores.push_back(std::make_unique<MemoryStreamStore>());
    stores.push_back(std::make_unique<MemoryStreamStore>());
    storage.push_back(
        {stores[2 * s].get(), stores[2 * s + 1].get()});
  }
  ShardedLedgerGroup group("lg://parallel", kShards, options_, &clock_, lsp_,
                           &registry_, std::move(storage),
                           {.prevalidate_threads = 8});

  // Pre-sign all transactions (signing is client-side work, not the path
  // under test) and keep them alive for the whole run.
  std::vector<std::vector<ClientTransaction>> txs(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    txs[t].reserve(kTxPerThread);
    for (size_t i = 0; i < kTxPerThread; ++i) txs[t].push_back(MakeTx(t, i));
  }

  // 8 threads each drive one AppendBatch concurrently.
  std::vector<std::vector<ShardedLedgerGroup::Location>> locations(kThreads);
  std::vector<Status> batch_status(kThreads);
  std::vector<std::thread> drivers;
  for (size_t t = 0; t < kThreads; ++t) {
    drivers.emplace_back([&, t] {
      batch_status[t] = group.AppendBatch(txs[t], &locations[t], nullptr);
    });
  }
  for (std::thread& d : drivers) d.join();

  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(batch_status[t].ok()) << batch_status[t].ToString();
    ASSERT_EQ(locations[t].size(), kTxPerThread);
  }
  EXPECT_EQ(group.TotalJournals(), kThreads * kTxPerThread + kShards);

  // --- Clue lineage: ListTx preserves per-clue submission order. --------
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t c = 0; c < kCluesPerThread; ++c) {
      std::string clue =
          "t" + std::to_string(t) + "-clue-" + std::to_string(c);
      size_t shard = 0;
      std::vector<uint64_t> jsns;
      ASSERT_TRUE(group.ListTx(clue, &jsns, &shard).ok()) << clue;
      ASSERT_EQ(jsns.size(), kTxPerThread / kCluesPerThread) << clue;
      size_t expected_seq = c;
      for (uint64_t jsn : jsns) {
        Journal journal;
        ASSERT_TRUE(group.GetJournal({shard, jsn}, &journal).ok());
        std::string payload(journal.payload.begin(), journal.payload.end());
        EXPECT_EQ(payload, "t" + std::to_string(t) + "-seq-" +
                               std::to_string(expected_seq))
            << clue;
        expected_seq += kCluesPerThread;
      }
    }
  }

  // --- Serial replay: rebuild each shard from its recorded journal order
  // on a fresh single-threaded ledger; roots must be bit-identical. ------
  std::unordered_map<std::string, const ClientTransaction*> by_request_hash;
  for (size_t t = 0; t < kThreads; ++t) {
    for (const ClientTransaction& tx : txs[t]) {
      by_request_hash[tx.RequestHash().ToHex()] = &tx;
    }
  }
  GroupCommitment replay_commitment;
  for (size_t s = 0; s < kShards; ++s) {
    const Ledger* shard = group.shard(s);
    Ledger reference("lg://parallel", options_, &clock_, lsp_, &registry_);
    for (uint64_t jsn = 1; jsn < shard->NumJournals(); ++jsn) {
      Journal journal;
      ASSERT_TRUE(shard->GetJournal(jsn, &journal).ok());
      auto it = by_request_hash.find(journal.request_hash.ToHex());
      ASSERT_NE(it, by_request_hash.end());
      uint64_t ref_jsn = 0;
      ASSERT_TRUE(reference.Append(*it->second, &ref_jsn).ok());
      ASSERT_EQ(ref_jsn, jsn);
    }
    EXPECT_EQ(reference.FamRoot(), shard->FamRoot()) << "shard " << s;
    EXPECT_EQ(reference.ClueRoot(), shard->ClueRoot()) << "shard " << s;
    EXPECT_EQ(reference.StateRoot(), shard->StateRoot()) << "shard " << s;
    // The committer lanes sealed the same chain as inline serial appends.
    const std::vector<BlockHeader>& sealed = shard->blocks();
    const std::vector<BlockHeader>& ref_blocks = reference.blocks();
    ASSERT_EQ(sealed.size(), ref_blocks.size()) << "shard " << s;
    for (size_t b = 0; b < sealed.size(); ++b) {
      EXPECT_EQ(sealed[b].Hash(), ref_blocks[b].Hash())
          << "shard " << s << " block " << b;
    }
    replay_commitment.shard_roots.push_back(reference.FamRoot());
  }
  EXPECT_EQ(replay_commitment.Combined(), group.Commitment().Combined());

  // --- Dasein audit over each shard; the last journal's receipt seals the
  // partial tail block. ---------------------------------------------------
  for (size_t s = 0; s < kShards; ++s) {
    Ledger* shard = group.shard(s);
    Receipt receipt;
    ASSERT_TRUE(shard->GetReceipt(shard->NumJournals() - 1, &receipt).ok());
    LocalTransport transport(shard);
    LedgerClient::Options copts;
    copts.lsp_key = shard->lsp_key();
    copts.fractal_height = options_.fractal_height;
    DaseinAuditor::Context context;
    context.members = &registry_;
    AuditReport report;
    Status audit =
        DaseinAuditor(&transport, copts, context).Audit(receipt, {}, &report);
    ASSERT_TRUE(audit.ok()) << audit.ToString() << " — "
                            << report.failure_reason;
    EXPECT_TRUE(report.passed) << report.failure_reason;
  }

  // --- Recovery: every shard rebuilds from its streams and agrees. ------
  for (size_t s = 0; s < kShards; ++s) {
    std::unique_ptr<Ledger> recovered;
    Status recover = Ledger::Recover(
        "lg://parallel", options_, &clock_, lsp_, &registry_,
        {stores[2 * s].get(), stores[2 * s + 1].get()}, &recovered);
    ASSERT_TRUE(recover.ok()) << "shard " << s << ": " << recover.ToString();
    EXPECT_EQ(recovered->NumJournals(), group.shard(s)->NumJournals());
    EXPECT_EQ(recovered->FamRoot(), group.shard(s)->FamRoot());
    EXPECT_EQ(recovered->ClueRoot(), group.shard(s)->ClueRoot());
    EXPECT_EQ(recovered->StateRoot(), group.shard(s)->StateRoot());
    EXPECT_EQ(recovered->blocks().size(), group.shard(s)->blocks().size());
  }
}

TEST_F(ParallelAppendTest, ConcurrentBatchesMatchSerialReplay) {
  // The default block capacity, and small blocks that make every commit
  // group cross block boundaries on the committer lane.
  for (uint32_t block_capacity : {LedgerOptions{}.block_capacity, 8u}) {
    SCOPED_TRACE("block_capacity " + std::to_string(block_capacity));
    CheckConcurrentBatches(block_capacity);
    if (HasFatalFailure()) return;
  }
}

TEST_F(ParallelAppendTest, AppendAsyncResolvesWithCommittedLocation) {
  ShardedLedgerGroup group("lg://parallel", kShards, options_, &clock_, lsp_,
                           &registry_, {}, {.prevalidate_threads = 4});

  std::vector<std::future<ShardedLedgerGroup::AppendOutcome>> futures;
  for (size_t i = 0; i < 64; ++i) {
    futures.push_back(group.AppendAsync(MakeTx(i % kThreads, i)));
  }
  // Resolve every future before reading shard state: ledger reads are
  // only safe once no committer lane is mutating the shard.
  std::vector<ShardedLedgerGroup::AppendOutcome> outcomes;
  for (auto& f : futures) outcomes.push_back(f.get());
  for (const ShardedLedgerGroup::AppendOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    Journal journal;
    EXPECT_TRUE(group.GetJournal(outcome.location, &journal).ok());
  }
}

TEST_F(ParallelAppendTest, CheckpointsRaceAsyncAppendsOnTheLanes) {
  // Checkpoints ride the committer lanes between commit groups while four
  // threads keep the lanes busy; recovery must then start from a
  // checkpoint on every shard and land on the same group commitment.
  constexpr size_t kGroupShards = 2;
  constexpr size_t kAppenders = 4;
  constexpr size_t kAsyncPerThread = 100;
  options_.block_capacity = 8;
  MemEnv env;
  std::vector<std::unique_ptr<MemoryStreamStore>> streams;
  std::vector<std::unique_ptr<CheckpointStore>> checkpoints;
  std::vector<LedgerStorage> storage;
  for (size_t s = 0; s < kGroupShards; ++s) {
    streams.push_back(std::make_unique<MemoryStreamStore>());
    streams.push_back(std::make_unique<MemoryStreamStore>());
    checkpoints.push_back(
        std::make_unique<CheckpointStore>(&env, "ckpt" + std::to_string(s)));
    storage.push_back({streams[2 * s].get(), streams[2 * s + 1].get(),
                       checkpoints[s].get()});
  }

  std::vector<std::vector<ClientTransaction>> txs(kAppenders);
  for (size_t t = 0; t < kAppenders; ++t) {
    for (size_t i = 0; i < kAsyncPerThread; ++i) txs[t].push_back(MakeTx(t, i));
  }
  GroupCommitment before;
  {
    ShardedLedgerGroup group("lg://parallel", kGroupShards, options_, &clock_,
                             lsp_, &registry_, storage,
                             {.prevalidate_threads = 2});
    // Seal a block on every shard first: a shard with nothing sealed has
    // no checkpoint to write.
    std::vector<ClientTransaction> warmup;
    for (size_t i = 0; i < 64; ++i) warmup.push_back(MakeTx(4 + i % 4, i));
    std::vector<ShardedLedgerGroup::Location> locations;
    ASSERT_TRUE(group.AppendBatch(warmup, &locations).ok());
    for (size_t s = 0; s < kGroupShards; ++s) {
      ASSERT_FALSE(group.shard(s)->blocks().empty()) << "shard " << s;
    }

    std::atomic<size_t> appenders_left{kAppenders};
    std::vector<std::vector<Status>> append_status(kAppenders);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kAppenders; ++t) {
      threads.emplace_back([&, t] {
        std::vector<std::future<ShardedLedgerGroup::AppendOutcome>> futures;
        for (const ClientTransaction& tx : txs[t]) {
          futures.push_back(group.AppendAsync(tx));
        }
        for (auto& f : futures) append_status[t].push_back(f.get().status);
        appenders_left.fetch_sub(1);
      });
    }
    std::vector<Status> checkpoint_status;
    threads.emplace_back([&] {
      do {
        checkpoint_status.push_back(group.CheckpointAll());
      } while (appenders_left.load() > 0);
    });
    for (std::thread& thread : threads) thread.join();

    for (size_t t = 0; t < kAppenders; ++t) {
      ASSERT_EQ(append_status[t].size(), kAsyncPerThread);
      for (const Status& s : append_status[t]) {
        EXPECT_TRUE(s.ok()) << "appender " << t << ": " << s.ToString();
      }
    }
    ASSERT_FALSE(checkpoint_status.empty());
    for (const Status& s : checkpoint_status) {
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    EXPECT_EQ(group.TotalJournals(),
              warmup.size() + kAppenders * kAsyncPerThread + kGroupShards);
    before = group.Commitment();
  }

  std::unique_ptr<ShardedLedgerGroup> recovered;
  ShardedLedgerGroup::RecoverOutcome outcome;
  Status s = ShardedLedgerGroup::Recover("lg://parallel", kGroupShards,
                                         options_, &clock_, lsp_, &registry_,
                                         storage, &recovered, &outcome);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(outcome.shard_info.size(), kGroupShards);
  for (size_t i = 0; i < kGroupShards; ++i) {
    EXPECT_TRUE(outcome.shard_info[i].used_checkpoint)
        << "shard " << i << " fell back to full replay";
  }
  EXPECT_EQ(recovered->Commitment().Combined(), before.Combined());
}

TEST_F(ParallelAppendTest, InvalidTransactionsFailWithoutPoisoningTheBatch) {
  ShardedLedgerGroup group("lg://parallel", kShards, options_, &clock_, lsp_,
                           &registry_);
  std::vector<ClientTransaction> txs;
  txs.push_back(MakeTx(0, 0));
  // Tampered payload: π_c no longer covers it.
  txs.push_back(MakeTx(1, 1));
  txs.back().payload = StringToBytes("tampered");
  // Unregistered signer.
  txs.push_back(MakeTx(2, 2));
  KeyPair stranger = KeyPair::FromSeedString("pa-stranger");
  txs.back().Sign(stranger);
  txs.push_back(MakeTx(3, 3));

  std::vector<ShardedLedgerGroup::Location> locations;
  std::vector<Status> statuses;
  Status overall = group.AppendBatch(txs, &locations, &statuses);

  EXPECT_FALSE(overall.ok());
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_TRUE(statuses[1].IsVerificationFailed());
  EXPECT_TRUE(statuses[2].IsPermissionDenied());
  EXPECT_TRUE(statuses[3].ok());
  // The two good journals really committed.
  Journal journal;
  EXPECT_TRUE(group.GetJournal(locations[0], &journal).ok());
  EXPECT_TRUE(group.GetJournal(locations[3], &journal).ok());
  // Rejected transactions never entered any shard.
  EXPECT_EQ(group.TotalJournals(), 2u + kShards);
}

TEST_F(ParallelAppendTest, MixedShardCluesRejectedInBatch) {
  ShardedLedgerGroup group("lg://parallel", kShards, options_, &clock_, lsp_,
                           &registry_);
  // Find two clues on different shards.
  std::string a = "clue-a", b;
  for (int i = 0;; ++i) {
    b = "clue-" + std::to_string(i);
    if (group.ShardOfClue(b) != group.ShardOfClue(a)) break;
  }
  ClientTransaction tx;
  tx.ledger_uri = "lg://parallel";
  tx.clues = {a, b};
  tx.payload = StringToBytes("split");
  tx.Sign(users_[0]);
  std::vector<ClientTransaction> txs{tx};
  std::vector<ShardedLedgerGroup::Location> locations;
  std::vector<Status> statuses;
  EXPECT_TRUE(group.AppendBatch(txs, &locations, &statuses)
                  .IsInvalidArgument());
  EXPECT_TRUE(statuses[0].IsInvalidArgument());
}

}  // namespace
}  // namespace ledgerdb
