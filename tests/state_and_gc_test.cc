#include <gtest/gtest.h>

#include "common/random.h"
#include "ledger/world_state.h"
#include "mpt/mpt.h"
#include "storage/bitmap_index.h"
#include "storage/node_store.h"

namespace ledgerdb {
namespace {

// ---------------------------------------------------------------------------
// BitmapIndex (the occult bitmap)
// ---------------------------------------------------------------------------

TEST(BitmapIndexTest, SetGetClear) {
  BitmapIndex bitmap;
  EXPECT_FALSE(bitmap.Get(10));
  bitmap.Set(10);
  EXPECT_TRUE(bitmap.Get(10));
  EXPECT_GE(bitmap.size(), 11u);
  bitmap.Clear(10);
  EXPECT_FALSE(bitmap.Get(10));
  EXPECT_EQ(bitmap.Count(), 0u);
}

TEST(BitmapIndexTest, GrowsOnSet) {
  BitmapIndex bitmap;
  bitmap.Set(1000);
  EXPECT_TRUE(bitmap.Get(1000));
  EXPECT_FALSE(bitmap.Get(999));
  EXPECT_EQ(bitmap.Count(), 1u);
}

TEST(BitmapIndexTest, CountRangeAndScan) {
  BitmapIndex bitmap;
  std::vector<uint64_t> positions = {0, 1, 63, 64, 65, 127, 128, 500};
  for (uint64_t p : positions) bitmap.Set(p);
  EXPECT_EQ(bitmap.Count(), positions.size());
  EXPECT_EQ(bitmap.CountRange(0, 64), 3u);    // 0, 1, 63
  EXPECT_EQ(bitmap.CountRange(64, 129), 4u);  // 64, 65, 127, 128
  EXPECT_EQ(bitmap.SetBits(60, 130),
            (std::vector<uint64_t>{63, 64, 65, 127, 128}));
  EXPECT_TRUE(bitmap.SetBits(200, 400).empty());
}

TEST(BitmapIndexTest, NextSetBit) {
  BitmapIndex bitmap;
  bitmap.Set(5);
  bitmap.Set(200);
  EXPECT_EQ(bitmap.NextSetBit(0), 5u);
  EXPECT_EQ(bitmap.NextSetBit(5), 5u);
  EXPECT_EQ(bitmap.NextSetBit(6), 200u);
  EXPECT_EQ(bitmap.NextSetBit(201), bitmap.size());
}

TEST(BitmapIndexTest, MatchesReferenceUnderRandomOps) {
  BitmapIndex bitmap;
  std::vector<bool> reference(2048, false);
  Random rng(88);
  for (int op = 0; op < 5000; ++op) {
    uint64_t pos = rng.Uniform(2048);
    if (rng.Uniform(3) == 0) {
      bitmap.Clear(pos);
      reference[pos] = false;
    } else {
      bitmap.Set(pos);
      reference[pos] = true;
    }
  }
  uint64_t expected = 0;
  for (bool b : reference) expected += b ? 1 : 0;
  EXPECT_EQ(bitmap.Count(), expected);
  for (uint64_t p = 0; p < 2048; ++p) {
    ASSERT_EQ(bitmap.Get(p), reference[p]) << p;
  }
}

// ---------------------------------------------------------------------------
// WorldState transition history
// ---------------------------------------------------------------------------

TEST(WorldStateTest, TransitionHistoryProvesEveryVersion) {
  WorldState state;
  state.Put("k", StringToBytes("v0"));
  state.Put("k", StringToBytes("v1"));
  // The transition accumulator proves BOTH versions against Root().
  for (uint64_t version = 0; version < 2; ++version) {
    const Bytes value = StringToBytes(version == 0 ? "v0" : "v1");
    MembershipProof update;
    ASSERT_TRUE(state.GetUpdateProof(version, &update).ok());
    EXPECT_TRUE(
        WorldState::VerifyUpdate("k", version, value, update, state.Root()));
  }
}

// ---------------------------------------------------------------------------
// MPT garbage collection
// ---------------------------------------------------------------------------

TEST(MptGcTest, SweepReclaimsUnreachableSnapshots) {
  NodeStore store;
  Mpt mpt(&store);
  Digest root = Mpt::EmptyRoot();
  std::vector<Digest> roots;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(mpt.Put(root, Sha3_256::Hash("k" + std::to_string(i % 50)),
                        Slice(std::string_view("v" + std::to_string(i))), &root)
                    .ok());
    roots.push_back(root);
  }
  size_t before = store.Size();

  // Retain only the latest snapshot.
  std::unordered_set<Digest, DigestHasher> live;
  ASSERT_TRUE(mpt.CollectReachable(root, &live).ok());
  size_t removed = store.Sweep(live);
  EXPECT_GT(removed, 0u);
  EXPECT_EQ(store.Size(), before - removed);
  EXPECT_EQ(store.Size(), live.size());

  // The retained snapshot fully works: gets and proofs for all 50 keys.
  for (int k = 0; k < 50; ++k) {
    Digest key = Sha3_256::Hash("k" + std::to_string(k));
    Bytes value;
    ASSERT_TRUE(mpt.Get(root, key, &value).ok()) << k;
    MptProof proof;
    ASSERT_TRUE(mpt.GetProof(root, key, &proof).ok()) << k;
    EXPECT_TRUE(Mpt::VerifyProof(root, key, Slice(value), proof));
  }
  // An old, swept snapshot no longer resolves.
  Bytes value;
  EXPECT_FALSE(mpt.Get(roots[0], Sha3_256::Hash("k0"), &value).ok());
}

TEST(MptGcTest, MultiRootRetention) {
  NodeStore store;
  Mpt mpt(&store);
  Digest r1 = Mpt::EmptyRoot(), r2 = Mpt::EmptyRoot();
  ASSERT_TRUE(mpt.Put(r1, Sha3_256::Hash("a"), Slice(std::string_view("1")), &r1).ok());
  r2 = r1;
  ASSERT_TRUE(mpt.Put(r2, Sha3_256::Hash("b"), Slice(std::string_view("2")), &r2).ok());

  // Keep both snapshots: everything stays resolvable.
  std::unordered_set<Digest, DigestHasher> live;
  ASSERT_TRUE(mpt.CollectReachable(r1, &live).ok());
  ASSERT_TRUE(mpt.CollectReachable(r2, &live).ok());
  EXPECT_EQ(store.Sweep(live), 0u);
  Bytes value;
  EXPECT_TRUE(mpt.Get(r1, Sha3_256::Hash("a"), &value).ok());
  EXPECT_TRUE(mpt.Get(r2, Sha3_256::Hash("b"), &value).ok());
}

TEST(MptGcTest, CollectOnEmptyRootIsNoop) {
  NodeStore store;
  Mpt mpt(&store);
  std::unordered_set<Digest, DigestHasher> live;
  ASSERT_TRUE(mpt.CollectReachable(Mpt::EmptyRoot(), &live).ok());
  EXPECT_TRUE(live.empty());
}

}  // namespace
}  // namespace ledgerdb
