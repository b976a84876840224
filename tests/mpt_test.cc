#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "mpt/mpt.h"
#include "storage/node_store.h"

namespace ledgerdb {
namespace {

Digest KeyOf(const std::string& name) { return Sha3_256::Hash(name); }

Bytes ValueOf(const std::string& v) { return StringToBytes(v); }

class MptTest : public ::testing::Test {
 protected:
  NodeStore store_;
};

TEST_F(MptTest, EmptyTrieHasNoKeys) {
  Mpt mpt(&store_);
  Bytes value;
  EXPECT_TRUE(mpt.Get(Mpt::EmptyRoot(), KeyOf("a"), &value).IsNotFound());
}

TEST_F(MptTest, SingleInsertAndGet) {
  Mpt mpt(&store_);
  Digest root;
  ASSERT_TRUE(
      mpt.Put(Mpt::EmptyRoot(), KeyOf("clue-1"), Slice(std::string_view("v1")), &root).ok());
  Bytes value;
  ASSERT_TRUE(mpt.Get(root, KeyOf("clue-1"), &value).ok());
  EXPECT_EQ(value, ValueOf("v1"));
  EXPECT_TRUE(mpt.Get(root, KeyOf("clue-2"), &value).IsNotFound());
}

TEST_F(MptTest, OverwriteValue) {
  Mpt mpt(&store_);
  Digest r1, r2;
  ASSERT_TRUE(mpt.Put(Mpt::EmptyRoot(), KeyOf("k"), Slice(std::string_view("old")), &r1).ok());
  ASSERT_TRUE(mpt.Put(r1, KeyOf("k"), Slice(std::string_view("new")), &r2).ok());
  Bytes value;
  ASSERT_TRUE(mpt.Get(r2, KeyOf("k"), &value).ok());
  EXPECT_EQ(value, ValueOf("new"));
  // Old snapshot still serves the old value (copy-on-write versioning).
  ASSERT_TRUE(mpt.Get(r1, KeyOf("k"), &value).ok());
  EXPECT_EQ(value, ValueOf("old"));
}

TEST_F(MptTest, ManyKeysAgainstReferenceMap) {
  Mpt mpt(&store_);
  Random rng(17);
  std::map<std::string, std::string> reference;
  Digest root = Mpt::EmptyRoot();
  for (int i = 0; i < 500; ++i) {
    std::string key = "clue-" + std::to_string(rng.Uniform(200));
    std::string value = "v" + std::to_string(i);
    reference[key] = value;
    ASSERT_TRUE(mpt.Put(root, KeyOf(key), Slice(std::string_view(value)), &root).ok());
  }
  for (const auto& [key, value] : reference) {
    Bytes out;
    ASSERT_TRUE(mpt.Get(root, KeyOf(key), &out).ok()) << key;
    EXPECT_EQ(out, StringToBytes(value)) << key;
  }
}

TEST_F(MptTest, SnapshotsAreImmutable) {
  Mpt mpt(&store_);
  std::vector<Digest> roots;
  Digest root = Mpt::EmptyRoot();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(mpt.Put(root, KeyOf("k" + std::to_string(i)),
                        Slice(std::string_view("v")), &root)
                    .ok());
    roots.push_back(root);
  }
  // Snapshot i contains keys 0..i and nothing later.
  for (int i = 0; i < 50; ++i) {
    Bytes value;
    EXPECT_TRUE(mpt.Get(roots[i], KeyOf("k" + std::to_string(i)), &value).ok());
    if (i + 1 < 50) {
      EXPECT_TRUE(mpt.Get(roots[i], KeyOf("k" + std::to_string(i + 1)), &value)
                      .IsNotFound());
    }
  }
}

TEST_F(MptTest, ProofRoundTrip) {
  Mpt mpt(&store_);
  Digest root = Mpt::EmptyRoot();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(mpt.Put(root, KeyOf("key" + std::to_string(i)),
                        Slice(std::string_view("value" + std::to_string(i))), &root)
                    .ok());
  }
  for (int i = 0; i < 100; ++i) {
    MptProof proof;
    Digest key = KeyOf("key" + std::to_string(i));
    ASSERT_TRUE(mpt.GetProof(root, key, &proof).ok());
    Bytes expected = ValueOf("value" + std::to_string(i));
    EXPECT_TRUE(Mpt::VerifyProof(root, key, Slice(expected), proof)) << i;
  }
}

TEST_F(MptTest, ProofRejectsWrongValue) {
  Mpt mpt(&store_);
  Digest root = Mpt::EmptyRoot();
  ASSERT_TRUE(mpt.Put(Mpt::EmptyRoot(), KeyOf("k"), Slice(std::string_view("true-value")), &root).ok());
  MptProof proof;
  ASSERT_TRUE(mpt.GetProof(root, KeyOf("k"), &proof).ok());
  Bytes forged = ValueOf("forged-value");
  EXPECT_FALSE(Mpt::VerifyProof(root, KeyOf("k"), Slice(forged), proof));
}

TEST_F(MptTest, ProofRejectsWrongRoot) {
  Mpt mpt(&store_);
  Digest root = Mpt::EmptyRoot();
  ASSERT_TRUE(mpt.Put(root, KeyOf("k"), Slice(std::string_view("v")), &root).ok());
  MptProof proof;
  ASSERT_TRUE(mpt.GetProof(root, KeyOf("k"), &proof).ok());
  Digest bad_root = root;
  bad_root.bytes[0] ^= 1;
  Bytes v = ValueOf("v");
  EXPECT_FALSE(Mpt::VerifyProof(bad_root, KeyOf("k"), Slice(v), proof));
}

TEST_F(MptTest, ProofRejectsTamperedNode) {
  Mpt mpt(&store_);
  Digest root = Mpt::EmptyRoot();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(mpt.Put(root, KeyOf("k" + std::to_string(i)),
                        Slice(std::string_view("v")), &root)
                    .ok());
  }
  MptProof proof;
  ASSERT_TRUE(mpt.GetProof(root, KeyOf("k3"), &proof).ok());
  ASSERT_GT(proof.nodes.size(), 1u);
  proof.nodes[1][proof.nodes[1].size() / 2] ^= 0x55;
  Bytes v = ValueOf("v");
  EXPECT_FALSE(Mpt::VerifyProof(root, KeyOf("k3"), Slice(v), proof));
}

TEST_F(MptTest, ProofRejectsWrongKey) {
  Mpt mpt(&store_);
  Digest root = Mpt::EmptyRoot();
  ASSERT_TRUE(mpt.Put(root, KeyOf("k1"), Slice(std::string_view("v")), &root).ok());
  ASSERT_TRUE(mpt.Put(root, KeyOf("k2"), Slice(std::string_view("v")), &root).ok());
  MptProof proof;
  ASSERT_TRUE(mpt.GetProof(root, KeyOf("k1"), &proof).ok());
  Bytes v = ValueOf("v");
  EXPECT_FALSE(Mpt::VerifyProof(root, KeyOf("k2"), Slice(v), proof));
}

TEST_F(MptTest, EmptyProofRejected) {
  MptProof proof;
  Bytes v = ValueOf("v");
  EXPECT_FALSE(Mpt::VerifyProof(KeyOf("root"), KeyOf("k"), Slice(v), proof));
}

TEST_F(MptTest, DeterministicRootForSameContent) {
  // Insertion order must not affect the final root (canonical trie).
  Mpt mpt(&store_);
  Digest r1 = Mpt::EmptyRoot(), r2 = Mpt::EmptyRoot();
  std::vector<std::string> keys = {"a", "b", "c", "d", "e", "f", "g", "h"};
  for (const auto& k : keys) {
    ASSERT_TRUE(mpt.Put(r1, KeyOf(k), Slice(std::string_view("v-" + k)), &r1).ok());
  }
  for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
    ASSERT_TRUE(mpt.Put(r2, KeyOf(*it), Slice(std::string_view("v-" + *it)), &r2).ok());
  }
  EXPECT_EQ(r1, r2);
}

// Property sweep: different key counts exercise leaf-split, extension-split
// and deep-branch paths.
class MptPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MptPropertyTest, AllInsertedKeysProvable) {
  NodeStore store;
  Mpt mpt(&store);
  const int n = GetParam();
  Digest root = Mpt::EmptyRoot();
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(mpt.Put(root, KeyOf("key-" + std::to_string(i)),
                        Slice(std::string_view(std::to_string(i * i))), &root)
                    .ok());
  }
  for (int i = 0; i < n; ++i) {
    Digest key = KeyOf("key-" + std::to_string(i));
    MptProof proof;
    ASSERT_TRUE(mpt.GetProof(root, key, &proof).ok()) << i;
    Bytes expected = StringToBytes(std::to_string(i * i));
    ASSERT_TRUE(Mpt::VerifyProof(root, key, Slice(expected), proof)) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(KeyCounts, MptPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 16, 64, 257, 1000));

}  // namespace
}  // namespace ledgerdb
