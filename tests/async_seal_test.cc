// Concurrency tests for asynchronous block sealing: the committer hands
// each block boundary to a per-shard sealer lane (Ledger::SealJob →
// CompleteSeal) and keeps appending, so sealing races
//   * the committer itself (ApplyCommitted appending past the boundary),
//   * readers — GetProof / GetReceipt / ListTx / SealBacklog — that run
//     while the sealer backlog is still draining.
// The invariants checked here:
//   * receipts obtained while the sealer raced resolve to sealed blocks
//     and verify against the LSP key,
//   * the final ledgers are bit-identical (fam/clue/state roots, group
//     commitment) to a serial replay with inline sealing,
//   * the full Dasein audit passes and every shard recovers from its
//     streams with the same block structure.
// Runs under ThreadSanitizer via the `tsan` CTest label.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "audit/dasein_auditor.h"
#include "ledger/sharded.h"

namespace ledgerdb {
namespace {

constexpr size_t kShards = 4;
constexpr size_t kWriters = 4;
constexpr size_t kReaders = 4;
constexpr size_t kRounds = 3;
constexpr size_t kTxPerWriterPerRound = 96;
constexpr size_t kCluesPerWriter = 8;
constexpr size_t kBlockCapacity = 8;

class AsyncSealTest : public ::testing::Test {
 protected:
  AsyncSealTest()
      : clock_(0),
        ca_(KeyPair::FromSeedString("as-ca")),
        registry_(&ca_),
        lsp_(KeyPair::FromSeedString("as-lsp")) {
    registry_.Register(ca_.Certify("lsp", lsp_.public_key(), Role::kLsp));
    for (size_t w = 0; w < kWriters; ++w) {
      users_.push_back(KeyPair::FromSeedString("as-user-" + std::to_string(w)));
      registry_.Register(ca_.Certify("user-" + std::to_string(w),
                                     users_.back().public_key(), Role::kUser));
    }
    options_.fractal_height = 8;
    // Small blocks: every round crosses many boundaries, so the sealer
    // lane always has work racing the committer and the readers.
    options_.block_capacity = kBlockCapacity;
  }

  ClientTransaction MakeTx(size_t writer, size_t seq) {
    ClientTransaction tx;
    tx.ledger_uri = "lg://async-seal";
    tx.clues = {"w" + std::to_string(writer) + "-clue-" +
                std::to_string(seq % kCluesPerWriter)};
    tx.payload = StringToBytes("w" + std::to_string(writer) + "-seq-" +
                               std::to_string(seq));
    tx.nonce = writer * 1000000 + seq;
    tx.Sign(users_[writer]);
    return tx;
  }

  SimulatedClock clock_;
  CertificateAuthority ca_;
  MemberRegistry registry_;
  KeyPair lsp_;
  std::vector<KeyPair> users_;
  LedgerOptions options_;
};

TEST_F(AsyncSealTest, ReadersRaceBackgroundSealerAcrossBoundaries) {
  std::vector<std::unique_ptr<MemoryStreamStore>> stores;
  std::vector<LedgerStorage> storage;
  for (size_t s = 0; s < kShards; ++s) {
    stores.push_back(std::make_unique<MemoryStreamStore>());
    stores.push_back(std::make_unique<MemoryStreamStore>());
    storage.push_back({stores[2 * s].get(), stores[2 * s + 1].get()});
  }
  ShardedLedgerGroup group("lg://async-seal", kShards, options_, &clock_,
                           lsp_, &registry_, std::move(storage));
  group.StartParallelAppend(4);

  // Pre-sign everything; keep alive for replay at the end.
  std::vector<std::vector<std::vector<ClientTransaction>>> txs(kRounds);
  for (size_t r = 0; r < kRounds; ++r) {
    txs[r].resize(kWriters);
    for (size_t w = 0; w < kWriters; ++w) {
      txs[r][w].reserve(kTxPerWriterPerRound);
      for (size_t i = 0; i < kTxPerWriterPerRound; ++i) {
        txs[r][w].push_back(MakeTx(w, r * kTxPerWriterPerRound + i));
      }
    }
  }

  for (size_t r = 0; r < kRounds; ++r) {
    // Writers: concurrent AppendBatch; the committer lanes cross block
    // boundaries mid-batch, scheduling seal jobs that race the ongoing
    // appends on the per-shard sealer lanes.
    std::vector<std::vector<ShardedLedgerGroup::Location>> locations(kWriters);
    std::vector<Status> batch_status(kWriters);
    std::vector<std::thread> writers;
    for (size_t w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        batch_status[w] = group.AppendBatch(txs[r][w], &locations[w], nullptr);
      });
    }
    for (std::thread& t : writers) t.join();
    for (size_t w = 0; w < kWriters; ++w) {
      ASSERT_TRUE(batch_status[w].ok()) << batch_status[w].ToString();
      ASSERT_EQ(locations[w].size(), kTxPerWriterPerRound);
    }

    // Readers: every append has resolved (shard journal state is
    // quiescent) but the sealer backlog may still be draining — proofs,
    // receipts and clue lookups race the background CompleteSeal calls.
    std::vector<std::thread> readers;
    for (size_t reader = 0; reader < kReaders; ++reader) {
      readers.emplace_back([&, reader] {
        for (size_t w = 0; w < kWriters; ++w) {
          for (size_t i = reader; i < locations[w].size(); i += kReaders) {
            const ShardedLedgerGroup::Location& loc = locations[w][i];
            FamProof proof;
            ASSERT_TRUE(group.GetProof(loc, &proof).ok());
            (void)group.shard(loc.shard)->SealBacklog();
            // Receipts only for journals inside completed boundaries:
            // GetReceipt blocks on the in-flight seal future for the
            // journal's block (receipts are block-granular), and must
            // never observe a half-sealed block.
            uint64_t journals = group.shard(loc.shard)->NumJournals();
            if (loc.jsn < (journals / kBlockCapacity) * kBlockCapacity) {
              Receipt receipt;
              ASSERT_TRUE(group.GetReceipt(loc, &receipt).ok());
              ASSERT_TRUE(receipt.Verify(lsp_.public_key()));
              ASSERT_EQ(receipt.jsn, loc.jsn);
            }
            if (i % 16 == reader) {
              std::string clue = "w" + std::to_string(w) + "-clue-" +
                                 std::to_string(i % kCluesPerWriter);
              std::vector<uint64_t> jsns;
              size_t shard = 0;
              ASSERT_TRUE(group.ListTx(clue, &jsns, &shard).ok());
            }
          }
        }
      });
    }
    for (std::thread& t : readers) t.join();
  }

  group.StopParallelAppend();

  // Enough boundaries actually went through the async sealer.
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_GE(group.shard(s)->blocks().size(), 3u) << "shard " << s;
  }
  EXPECT_EQ(group.TotalJournals(),
            kRounds * kWriters * kTxPerWriterPerRound + kShards);

  // --- Serial replay with inline sealing: bit-identical roots. ----------
  std::unordered_map<std::string, const ClientTransaction*> by_request_hash;
  for (size_t r = 0; r < kRounds; ++r) {
    for (size_t w = 0; w < kWriters; ++w) {
      for (const ClientTransaction& tx : txs[r][w]) {
        by_request_hash[tx.RequestHash().ToHex()] = &tx;
      }
    }
  }
  GroupCommitment replay_commitment;
  for (size_t s = 0; s < kShards; ++s) {
    const Ledger* shard = group.shard(s);
    Ledger reference("lg://async-seal", options_, &clock_, lsp_, &registry_);
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
    // Async-sealed block headers match the inline-sealed reference chain.
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

  // --- Dasein audit over each shard (sealing the partial tail first). ---
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

  // --- Recovery: streams written by the racing sealer rebuild the same
  // ledger, blocks included. --------------------------------------------
  for (size_t s = 0; s < kShards; ++s) {
    std::unique_ptr<Ledger> recovered;
    Status recover = Ledger::Recover(
        "lg://async-seal", options_, &clock_, lsp_, &registry_,
        {stores[2 * s].get(), stores[2 * s + 1].get()}, &recovered);
    ASSERT_TRUE(recover.ok()) << "shard " << s << ": " << recover.ToString();
    EXPECT_EQ(recovered->NumJournals(), group.shard(s)->NumJournals());
    EXPECT_EQ(recovered->FamRoot(), group.shard(s)->FamRoot());
    EXPECT_EQ(recovered->ClueRoot(), group.shard(s)->ClueRoot());
    EXPECT_EQ(recovered->StateRoot(), group.shard(s)->StateRoot());
    EXPECT_EQ(recovered->blocks().size(), group.shard(s)->blocks().size());
  }
}

TEST_F(AsyncSealTest, StopDrainsSealerAndInlineSealingResumes) {
  ShardedLedgerGroup group("lg://async-seal", kShards, options_, &clock_,
                           lsp_, &registry_);
  std::vector<ClientTransaction> txs;
  for (size_t i = 0; i < 4 * kBlockCapacity * kShards; ++i) {
    txs.push_back(MakeTx(i % kWriters, i));
  }
  std::vector<ShardedLedgerGroup::Location> locations;
  ASSERT_TRUE(group.AppendBatch(txs, &locations, nullptr).ok());
  group.StopParallelAppend();
  // Stop waited out the sealer backlog: no seal is in flight.
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(group.shard(s)->SealBacklog(), 0u);
    EXPECT_TRUE(group.shard(s)->WaitForSeals().ok());
  }
  // The scheduler is detached: the serial path seals inline again.
  ShardedLedgerGroup::Location loc;
  size_t before = 0;
  for (size_t s = 0; s < kShards; ++s) before += group.shard(s)->blocks().size();
  for (size_t i = 0; i < kBlockCapacity * kShards; ++i) {
    ASSERT_TRUE(group.Append(MakeTx(0, 100000 + i), &loc).ok());
  }
  size_t after = 0;
  for (size_t s = 0; s < kShards; ++s) after += group.shard(s)->blocks().size();
  EXPECT_GT(after, before);
}

}  // namespace
}  // namespace ledgerdb
