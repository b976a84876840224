#include <gtest/gtest.h>

#include "accum/bamt.h"
#include "common/random.h"
#include "mpt/mpt.h"
#include "storage/node_store.h"

namespace ledgerdb {
namespace {

Digest TestDigest(uint64_t i) {
  Bytes buf;
  PutU64(&buf, i);
  return Sha256::Hash(buf);
}

// ---------------------------------------------------------------------------
// bAMT accumulator
// ---------------------------------------------------------------------------

TEST(BamtTest, BatchesSealAtCapacity) {
  BamtAccumulator bamt(8);
  for (uint64_t i = 0; i < 20; ++i) bamt.Append(TestDigest(i));
  EXPECT_EQ(bamt.NumBatches(), 2u);
  bamt.Flush();
  EXPECT_EQ(bamt.NumBatches(), 3u);
}

TEST(BamtTest, ProofsVerify) {
  BamtAccumulator bamt(16);
  const uint64_t n = 200;
  for (uint64_t i = 0; i < n; ++i) bamt.Append(TestDigest(i));
  bamt.Flush();
  Digest root = bamt.Root();
  for (uint64_t i = 0; i < n; ++i) {
    BamtProof proof;
    ASSERT_TRUE(bamt.GetProof(i, &proof).ok()) << i;
    EXPECT_TRUE(BamtAccumulator::VerifyProof(TestDigest(i), proof, root));
    EXPECT_FALSE(BamtAccumulator::VerifyProof(TestDigest(i + 1), proof, root));
  }
}

TEST(BamtTest, UnsealedJournalHasNoProof) {
  BamtAccumulator bamt(8);
  bamt.Append(TestDigest(0));
  BamtProof proof;
  EXPECT_TRUE(bamt.GetProof(0, &proof).IsNotFound());
  EXPECT_TRUE(bamt.GetProof(5, &proof).IsOutOfRange());
}

TEST(BamtTest, ProofRejectsWrongBatchBinding) {
  BamtAccumulator bamt(4);
  for (uint64_t i = 0; i < 16; ++i) bamt.Append(TestDigest(i));
  BamtProof proof;
  ASSERT_TRUE(bamt.GetProof(0, &proof).ok());
  proof.in_top.leaf_index = 2;  // claim another batch slot
  EXPECT_FALSE(BamtAccumulator::VerifyProof(TestDigest(0), proof, bamt.Root()));
}

TEST(BamtTest, TopPathStillGrowsUnlikeFam) {
  // The regression fam removes: bAMT's top-level path keeps growing with
  // total ledger size.
  BamtAccumulator small(16), large(16);
  for (uint64_t i = 0; i < 64; ++i) small.Append(TestDigest(i));
  for (uint64_t i = 0; i < 16384; ++i) large.Append(TestDigest(i));
  BamtProof ps, pl;
  ASSERT_TRUE(small.GetProof(3, &ps).ok());
  ASSERT_TRUE(large.GetProof(3, &pl).ok());
  EXPECT_GT(pl.in_top.CostInHashes(), ps.in_top.CostInHashes());
  EXPECT_EQ(pl.in_batch.CostInHashes(), ps.in_batch.CostInHashes());
}

// ---------------------------------------------------------------------------
// MPT structural edge cases with crafted (non-scattered) keys. Random
// SHA-3 keys almost never share long prefixes, so these force the
// extension-split and deep-branch paths explicitly.
// ---------------------------------------------------------------------------

Digest CraftedKey(std::initializer_list<uint8_t> prefix, uint8_t fill) {
  Digest key;
  key.bytes.fill(fill);
  size_t i = 0;
  for (uint8_t b : prefix) key.bytes[i++] = b;
  return key;
}

class MptEdgeTest : public ::testing::Test {
 protected:
  Status Put(const Digest& key, const std::string& value) {
    return mpt_.Put(root_, key, Slice(std::string_view(value)), &root_);
  }

  void ExpectValue(const Digest& key, const std::string& value) {
    Bytes out;
    ASSERT_TRUE(mpt_.Get(root_, key, &out).ok());
    EXPECT_EQ(out, StringToBytes(value));
    MptProof proof;
    ASSERT_TRUE(mpt_.GetProof(root_, key, &proof).ok());
    Bytes expected = StringToBytes(value);
    EXPECT_TRUE(Mpt::VerifyProof(root_, key, Slice(expected), proof));
  }

  NodeStore store_;
  Mpt mpt_{&store_};
  Digest root_ = Mpt::EmptyRoot();
};

TEST_F(MptEdgeTest, LongSharedPrefixForcesDeepExtensionSplit) {
  // 30 shared bytes (60 nibbles), divergence near the leaf.
  Digest a = CraftedKey({}, 0xaa);
  Digest b = CraftedKey({}, 0xaa);
  b.bytes[30] = 0xab;
  ASSERT_TRUE(Put(a, "va").ok());
  ASSERT_TRUE(Put(b, "vb").ok());
  ExpectValue(a, "va");
  ExpectValue(b, "vb");
}

TEST_F(MptEdgeTest, DivergenceAtEveryDepth) {
  // Keys sharing i leading nibbles for i = 0..16: exercises splits at many
  // depths in one trie.
  std::vector<Digest> keys;
  for (uint8_t i = 0; i < 16; ++i) {
    Digest key;
    key.bytes.fill(0x11);
    key.bytes[i / 2] = (i % 2 == 0) ? static_cast<uint8_t>(0x91)
                                    : static_cast<uint8_t>(0x19);
    keys.push_back(key);
    ASSERT_TRUE(Put(key, "v" + std::to_string(i)).ok()) << int(i);
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    ExpectValue(keys[i], "v" + std::to_string(i));
  }
}

TEST_F(MptEdgeTest, SplitExtensionAtItsLastNibble) {
  // Three keys: two share 4 leading nibbles; the third diverges exactly at
  // the last nibble of the resulting extension.
  Digest a = CraftedKey({0x12, 0x34}, 0x00);
  Digest b = CraftedKey({0x12, 0x34}, 0x00);
  b.bytes[31] = 0x01;
  Digest c = CraftedKey({0x12, 0x35}, 0x00);  // diverges at nibble index 3
  ASSERT_TRUE(Put(a, "a").ok());
  ASSERT_TRUE(Put(b, "b").ok());
  ASSERT_TRUE(Put(c, "c").ok());
  ExpectValue(a, "a");
  ExpectValue(b, "b");
  ExpectValue(c, "c");
}

TEST_F(MptEdgeTest, SplitExtensionAtItsFirstNibble) {
  Digest a = CraftedKey({0x11}, 0x22);
  Digest b = CraftedKey({0x11}, 0x22);
  b.bytes[31] = 0x23;                        // long shared prefix
  Digest c = CraftedKey({0x91}, 0x22);       // diverges at the first nibble
  ASSERT_TRUE(Put(a, "a").ok());
  ASSERT_TRUE(Put(b, "b").ok());
  ASSERT_TRUE(Put(c, "c").ok());
  ExpectValue(a, "a");
  ExpectValue(b, "b");
  ExpectValue(c, "c");
}

TEST_F(MptEdgeTest, SixteenWayFanoutAtOneBranch) {
  // All 16 children of a single branch node populated.
  std::vector<Digest> keys;
  for (int v = 0; v < 16; ++v) {
    Digest key;
    key.bytes.fill(0x55);
    key.bytes[4] = static_cast<uint8_t>((v << 4) | 0x5);
    keys.push_back(key);
    ASSERT_TRUE(Put(key, "fan" + std::to_string(v)).ok());
  }
  for (int v = 0; v < 16; ++v) ExpectValue(keys[v], "fan" + std::to_string(v));
}

TEST_F(MptEdgeTest, CraftedAdversarialInsertOrderStillCanonical) {
  // Same content inserted in adversarial orders yields identical roots.
  std::vector<Digest> keys;
  for (uint8_t i = 0; i < 12; ++i) {
    Digest key;
    key.bytes.fill(static_cast<uint8_t>(i % 3));
    key.bytes[i % 8] = static_cast<uint8_t>(0xf0 | i);
    keys.push_back(key);
  }
  Digest root_fwd = Mpt::EmptyRoot(), root_rev = Mpt::EmptyRoot();
  NodeStore s1, s2;
  Mpt m1(&s1), m2(&s2);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(m1.Put(root_fwd, keys[i], Slice(std::string_view("v")), &root_fwd).ok());
  }
  for (size_t i = keys.size(); i-- > 0;) {
    ASSERT_TRUE(m2.Put(root_rev, keys[i], Slice(std::string_view("v")), &root_rev).ok());
  }
  EXPECT_EQ(root_fwd, root_rev);
}

}  // namespace
}  // namespace ledgerdb
