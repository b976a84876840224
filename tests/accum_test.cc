#include <gtest/gtest.h>

#include "accum/bim.h"
#include "accum/fam.h"
#include "accum/naive_merkle.h"
#include "accum/shrubs.h"
#include "accum/tim.h"
#include "common/random.h"

namespace ledgerdb {
namespace {

Digest TestDigest(uint64_t i) {
  Bytes buf;
  PutU64(&buf, i);
  return Sha256::Hash(buf);
}

// ---------------------------------------------------------------------------
// Shrubs accumulator
// ---------------------------------------------------------------------------

TEST(ShrubsTest, EmptyAccumulator) {
  ShrubsAccumulator acc;
  EXPECT_TRUE(acc.empty());
  EXPECT_TRUE(acc.Frontier().empty());
  EXPECT_TRUE(acc.Root().IsZero());
}

TEST(ShrubsTest, FrontierSizeIsPopcount) {
  // Figure 3(a): the node-set proof tracks the peak set, whose size equals
  // popcount(n).
  ShrubsAccumulator acc;
  for (uint64_t n = 1; n <= 64; ++n) {
    acc.Append(TestDigest(n));
    EXPECT_EQ(acc.Frontier().size(),
              static_cast<size_t>(__builtin_popcountll(n)))
        << "n=" << n;
  }
}

TEST(ShrubsTest, AppendIsAmortizedConstant) {
  // Total hashes after n appends must be < 2n (1 leaf hash + <1 merge
  // amortized), unlike an eager-root design.
  ShrubsAccumulator acc;
  const uint64_t n = 4096;
  for (uint64_t i = 0; i < n; ++i) acc.Append(TestDigest(i));
  EXPECT_LT(acc.HashCount(), 2 * n);
  EXPECT_GE(acc.HashCount(), n);
}

TEST(ShrubsTest, ProofRoundTripAllLeaves) {
  ShrubsAccumulator acc;
  const uint64_t n = 100;
  for (uint64_t i = 0; i < n; ++i) acc.Append(TestDigest(i));
  Digest root = acc.Root();
  for (uint64_t i = 0; i < n; ++i) {
    MembershipProof proof;
    ASSERT_TRUE(acc.GetProof(i, &proof).ok());
    EXPECT_TRUE(ShrubsAccumulator::VerifyProof(TestDigest(i), proof, root))
        << "leaf " << i;
    EXPECT_TRUE(ShrubsAccumulator::VerifyProofAgainstPeaks(TestDigest(i), proof,
                                                           acc.Frontier()));
  }
}

TEST(ShrubsTest, ProofRejectsWrongPayload) {
  ShrubsAccumulator acc;
  for (uint64_t i = 0; i < 37; ++i) acc.Append(TestDigest(i));
  MembershipProof proof;
  ASSERT_TRUE(acc.GetProof(5, &proof).ok());
  // 'foobar' exists, 'foopar' must fail (§III-A existence semantics).
  EXPECT_TRUE(ShrubsAccumulator::VerifyProof(TestDigest(5), proof, acc.Root()));
  EXPECT_FALSE(ShrubsAccumulator::VerifyProof(TestDigest(6), proof, acc.Root()));
}

TEST(ShrubsTest, ProofRejectsTamperedSibling) {
  ShrubsAccumulator acc;
  for (uint64_t i = 0; i < 64; ++i) acc.Append(TestDigest(i));
  MembershipProof proof;
  ASSERT_TRUE(acc.GetProof(10, &proof).ok());
  ASSERT_FALSE(proof.siblings.empty());
  proof.siblings[0].bytes[0] ^= 1;
  EXPECT_FALSE(ShrubsAccumulator::VerifyProof(TestDigest(10), proof, acc.Root()));
}

TEST(ShrubsTest, ProofRejectsTamperedPeak) {
  ShrubsAccumulator acc;
  for (uint64_t i = 0; i < 37; ++i) acc.Append(TestDigest(i));
  MembershipProof proof;
  ASSERT_TRUE(acc.GetProof(36, &proof).ok());
  proof.peaks[0].bytes[5] ^= 0x40;
  EXPECT_FALSE(ShrubsAccumulator::VerifyProof(TestDigest(36), proof, acc.Root()));
}

TEST(ShrubsTest, HistoricalProofs) {
  ShrubsAccumulator acc;
  std::vector<Digest> roots;
  for (uint64_t i = 0; i < 200; ++i) {
    acc.Append(TestDigest(i));
    roots.push_back(acc.Root());
  }
  // Every leaf verifies against every historical root that includes it.
  Random rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    uint64_t as_of = rng.Range(1, 200);
    uint64_t leaf = rng.Uniform(as_of);
    MembershipProof proof;
    ASSERT_TRUE(acc.GetProofAtSize(leaf, as_of, &proof).ok());
    EXPECT_TRUE(
        ShrubsAccumulator::VerifyProof(TestDigest(leaf), proof, roots[as_of - 1]))
        << "leaf " << leaf << " as_of " << as_of;
  }
}

TEST(ShrubsTest, OutOfRangeProofsRejected) {
  ShrubsAccumulator acc;
  acc.Append(TestDigest(0));
  MembershipProof proof;
  EXPECT_TRUE(acc.GetProof(1, &proof).IsOutOfRange());
  EXPECT_TRUE(acc.GetProofAtSize(0, 2, &proof).IsOutOfRange());
}

TEST(ShrubsTest, SingleLeafProofIsItself) {
  // Figure 3(a): "The proof for cell1 is {cell1} itself."
  ShrubsAccumulator acc;
  acc.Append(TestDigest(1));
  MembershipProof proof;
  ASSERT_TRUE(acc.GetProof(0, &proof).ok());
  EXPECT_TRUE(proof.siblings.empty());
  EXPECT_EQ(proof.peaks.size(), 1u);
  EXPECT_EQ(acc.Root(), proof.peaks[0]);
}

TEST(ShrubsTest, NodeAccess) {
  ShrubsAccumulator acc;
  for (uint64_t i = 0; i < 8; ++i) acc.Append(TestDigest(i));
  Digest node, left, right, parent;
  ASSERT_TRUE(acc.GetNode(0, 0, &left).ok());
  ASSERT_TRUE(acc.GetNode(0, 1, &right).ok());
  ASSERT_TRUE(acc.GetNode(1, 0, &parent).ok());
  EXPECT_EQ(HashMerkleNode(left, right), parent);
  EXPECT_TRUE(acc.GetNode(4, 0, &node).IsOutOfRange());
  EXPECT_TRUE(acc.GetNode(0, 8, &node).IsOutOfRange());
}

// Property sweep: proofs verify at many accumulator sizes, including
// powers of two and their neighbors (mountain-boundary edge cases).
class ShrubsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShrubsPropertyTest, AllProofsVerify) {
  const uint64_t n = GetParam();
  ShrubsAccumulator acc;
  for (uint64_t i = 0; i < n; ++i) acc.Append(TestDigest(i * 31 + 7));
  Digest root = acc.Root();
  for (uint64_t i = 0; i < n; ++i) {
    MembershipProof proof;
    ASSERT_TRUE(acc.GetProof(i, &proof).ok());
    ASSERT_TRUE(
        ShrubsAccumulator::VerifyProof(TestDigest(i * 31 + 7), proof, root))
        << "n=" << n << " leaf=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ShrubsPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 31,
                                           32, 33, 63, 64, 65, 127, 128, 255));

// ---------------------------------------------------------------------------
// tim accumulator
// ---------------------------------------------------------------------------

TEST(TimTest, RootMatchesShrubsBaggedRoot) {
  TimAccumulator tim;
  ShrubsAccumulator shrubs;
  for (uint64_t i = 0; i < 100; ++i) {
    tim.Append(TestDigest(i));
    shrubs.Append(TestDigest(i));
    EXPECT_EQ(tim.Root(), shrubs.Root());
  }
}

TEST(TimTest, ProofsVerify) {
  TimAccumulator tim;
  for (uint64_t i = 0; i < 300; ++i) tim.Append(TestDigest(i));
  for (uint64_t i : {0ULL, 1ULL, 150ULL, 299ULL}) {
    MembershipProof proof;
    ASSERT_TRUE(tim.GetProof(i, &proof).ok());
    EXPECT_TRUE(TimAccumulator::VerifyProof(TestDigest(i), proof, tim.Root()));
  }
}

TEST(TimTest, EagerRootCostsMoreHashesThanShrubs) {
  TimAccumulator tim;
  ShrubsAccumulator shrubs;
  for (uint64_t i = 0; i < 4096; ++i) {
    tim.Append(TestDigest(i));
    shrubs.Append(TestDigest(i));
  }
  EXPECT_GT(tim.HashCount(), shrubs.HashCount());
}

TEST(TimTest, ProofLengthGrowsWithLedgerSize) {
  TimAccumulator small, large;
  for (uint64_t i = 0; i < 64; ++i) small.Append(TestDigest(i));
  for (uint64_t i = 0; i < 65536; ++i) large.Append(TestDigest(i));
  MembershipProof ps, pl;
  ASSERT_TRUE(small.GetProof(3, &ps).ok());
  ASSERT_TRUE(large.GetProof(3, &pl).ok());
  EXPECT_GT(pl.CostInHashes(), ps.CostInHashes());
}

// ---------------------------------------------------------------------------
// bim chain
// ---------------------------------------------------------------------------

TEST(BimTest, BlocksSealAtCapacity) {
  BimChain chain(8);
  for (uint64_t i = 0; i < 20; ++i) chain.Append(TestDigest(i));
  EXPECT_EQ(chain.NumBlocks(), 2u);  // 16 sealed, 4 pending
  chain.Flush();
  EXPECT_EQ(chain.NumBlocks(), 3u);
}

TEST(BimTest, HeaderChainValidates) {
  BimChain chain(4);
  for (uint64_t i = 0; i < 16; ++i) chain.Append(TestDigest(i));
  EXPECT_TRUE(chain.ValidateHeaderChain());
}

TEST(BimTest, ProofsVerifyAgainstHeaders) {
  BimChain chain(16);
  for (uint64_t i = 0; i < 64; ++i) chain.Append(TestDigest(i));
  for (uint64_t i = 0; i < 64; ++i) {
    BimProof proof;
    ASSERT_TRUE(chain.GetProof(i, &proof).ok());
    const BimBlockHeader& header = chain.headers()[proof.block_height];
    EXPECT_TRUE(BimChain::VerifyProof(TestDigest(i), proof, header));
    EXPECT_FALSE(BimChain::VerifyProof(TestDigest(i + 1), proof, header));
  }
}

TEST(BimTest, UnsealedTransactionHasNoProof) {
  BimChain chain(8);
  chain.Append(TestDigest(0));
  BimProof proof;
  EXPECT_TRUE(chain.GetProof(0, &proof).IsNotFound());
  chain.Flush();
  EXPECT_TRUE(chain.GetProof(0, &proof).ok());
}

TEST(BimTest, TamperedHeaderChainDetected) {
  BimChain chain(4);
  for (uint64_t i = 0; i < 12; ++i) chain.Append(TestDigest(i));
  auto headers = chain.headers();
  // A proof bound to the wrong block height fails.
  BimProof proof;
  ASSERT_TRUE(chain.GetProof(0, &proof).ok());
  EXPECT_FALSE(BimChain::VerifyProof(TestDigest(0), proof, headers[1]));
}

// ---------------------------------------------------------------------------
// fam accumulator
// ---------------------------------------------------------------------------

TEST(FamTest, EpochSealing) {
  FamAccumulator fam(3);  // epoch capacity 8
  EXPECT_EQ(fam.epoch_capacity(), 8u);
  for (uint64_t i = 0; i < 8; ++i) fam.Append(TestDigest(i));
  EXPECT_EQ(fam.NumSealedEpochs(), 1u);
  // After sealing, epoch 1 already holds the merged cell; 7 more journals
  // fill it.
  for (uint64_t i = 8; i < 15; ++i) fam.Append(TestDigest(i));
  EXPECT_EQ(fam.NumSealedEpochs(), 2u);
}

TEST(FamTest, RootCommitsHistoryThroughMergedCell) {
  FamAccumulator fam(3);
  for (uint64_t i = 0; i < 8; ++i) fam.Append(TestDigest(i));
  Digest sealed_root;
  ASSERT_TRUE(fam.SealedEpochRoot(0, &sealed_root).ok());
  // The live epoch contains exactly the merged cell; its root must commit
  // the sealed epoch root.
  ShrubsAccumulator expect;
  expect.Append(sealed_root);
  EXPECT_EQ(fam.Root(), expect.Root());
}

TEST(FamTest, ProofsVerifyAcrossEpochs) {
  FamAccumulator fam(4);  // capacity 16
  const uint64_t n = 100;
  for (uint64_t i = 0; i < n; ++i) fam.Append(TestDigest(i));
  Digest root = fam.Root();
  for (uint64_t i = 0; i < n; ++i) {
    FamProof proof;
    ASSERT_TRUE(fam.GetProof(i, &proof).ok());
    EXPECT_TRUE(FamAccumulator::VerifyProof(TestDigest(i), proof, root))
        << "jsn " << i;
    EXPECT_FALSE(FamAccumulator::VerifyProof(TestDigest(i + 1), proof, root));
  }
}

TEST(FamTest, AnchoredProofSkipsHistory) {
  FamAccumulator fam(4);
  for (uint64_t i = 0; i < 200; ++i) fam.Append(TestDigest(i));
  TrustedAnchor anchor;
  ASSERT_TRUE(fam.MakeAnchor(&anchor).ok());

  // Journal in the anchored epoch: the anchored proof is shorter than the
  // full-chain proof for an early journal.
  FamProof full, anchored;
  ASSERT_TRUE(fam.GetProof(1, &full).ok());
  ASSERT_TRUE(fam.GetProofAnchored(1, anchor, &anchored).ok());
  EXPECT_TRUE(FamAccumulator::VerifyProofAnchored(TestDigest(1), anchored, anchor));
  EXPECT_LE(anchored.epoch_links.size(), full.epoch_links.size());
}

TEST(FamTest, AnchoredProofRejectsJournalAfterAnchor) {
  FamAccumulator fam(3);
  for (uint64_t i = 0; i < 20; ++i) fam.Append(TestDigest(i));
  TrustedAnchor anchor;
  ASSERT_TRUE(fam.MakeAnchor(&anchor).ok());
  FamProof proof;
  // jsn 19 lives in the live epoch (after the anchor).
  EXPECT_TRUE(fam.GetProofAnchored(19, anchor, &proof).IsInvalidArgument());
}

TEST(FamTest, AnchoredVerifyRejectsWrongAnchor) {
  FamAccumulator fam(3);
  for (uint64_t i = 0; i < 32; ++i) fam.Append(TestDigest(i));
  TrustedAnchor anchor;
  ASSERT_TRUE(fam.MakeAnchor(&anchor).ok());
  FamProof proof;
  ASSERT_TRUE(fam.GetProofAnchored(0, anchor, &proof).ok());
  TrustedAnchor bad = anchor;
  bad.epoch_root.bytes[0] ^= 1;
  EXPECT_FALSE(FamAccumulator::VerifyProofAnchored(TestDigest(0), proof, bad));
}

TEST(FamTest, ProofRejectsTamperedLink) {
  FamAccumulator fam(3);
  for (uint64_t i = 0; i < 40; ++i) fam.Append(TestDigest(i));
  FamProof proof;
  ASSERT_TRUE(fam.GetProof(0, &proof).ok());
  ASSERT_FALSE(proof.epoch_links.empty());
  proof.epoch_links[0].peaks[0].bytes[3] ^= 2;
  EXPECT_FALSE(FamAccumulator::VerifyProof(TestDigest(0), proof, fam.Root()));
}

TEST(FamTest, ProofRejectsNonMergedLinkLeaf) {
  FamAccumulator fam(3);
  for (uint64_t i = 0; i < 40; ++i) fam.Append(TestDigest(i));
  FamProof proof;
  ASSERT_TRUE(fam.GetProof(0, &proof).ok());
  ASSERT_FALSE(proof.epoch_links.empty());
  proof.epoch_links[0].leaf_index = 1;  // merged cell must be leaf 0
  EXPECT_FALSE(FamAccumulator::VerifyProof(TestDigest(0), proof, fam.Root()));
}

TEST(FamTest, MakeAnchorRequiresSealedEpoch) {
  FamAccumulator fam(5);
  fam.Append(TestDigest(0));
  TrustedAnchor anchor;
  EXPECT_TRUE(fam.MakeAnchor(&anchor).IsNotFound());
}

TEST(FamTest, ProofCostBoundedByEpochCapacity) {
  // For journals in the live epoch with an up-to-date ledger, the local
  // path length never exceeds the fractal height δ (Figure 4's O(H) bound),
  // whereas tim's path keeps growing.
  FamAccumulator fam(4);
  TimAccumulator tim;
  const uint64_t n = 1 << 12;
  for (uint64_t i = 0; i < n; ++i) {
    fam.Append(TestDigest(i));
    tim.Append(TestDigest(i));
  }
  FamProof fproof;
  ASSERT_TRUE(fam.GetProof(n - 1, &fproof).ok());
  EXPECT_LE(fproof.local.siblings.size(), 4u);
  MembershipProof tproof;
  ASSERT_TRUE(tim.GetProof(n - 1, &tproof).ok());
  EXPECT_GE(tproof.CostInHashes(), 11u);  // log2(4096) - ish
}

TEST(FamVerifierTest, SyncAndVerifyAllJournals) {
  FamAccumulator fam(3);
  FamVerifier verifier;
  for (uint64_t i = 0; i < 50; ++i) {
    fam.Append(TestDigest(i));
    ASSERT_TRUE(verifier.Sync(fam).ok());
  }
  EXPECT_EQ(verifier.TrustedEpochs(), fam.NumSealedEpochs());
  for (uint64_t i = 0; i < 50; ++i) {
    MembershipProof proof;
    uint64_t epoch = 0;
    ASSERT_TRUE(fam.GetEpochProof(i, &proof, &epoch).ok());
    EXPECT_TRUE(verifier.Verify(TestDigest(i), proof, epoch)) << i;
    EXPECT_FALSE(verifier.Verify(TestDigest(i + 1), proof, epoch));
  }
}

TEST(FamVerifierTest, LateSyncCatchesUp) {
  FamAccumulator fam(3);
  for (uint64_t i = 0; i < 100; ++i) fam.Append(TestDigest(i));
  FamVerifier verifier;
  ASSERT_TRUE(verifier.Sync(fam).ok());
  MembershipProof proof;
  uint64_t epoch = 0;
  ASSERT_TRUE(fam.GetEpochProof(7, &proof, &epoch).ok());
  EXPECT_TRUE(verifier.Verify(TestDigest(7), proof, epoch));
}

TEST(FamVerifierTest, RejectsFutureEpoch) {
  FamAccumulator fam(3);
  for (uint64_t i = 0; i < 40; ++i) fam.Append(TestDigest(i));
  FamVerifier verifier;
  ASSERT_TRUE(verifier.Sync(fam).ok());
  MembershipProof proof;
  uint64_t epoch = 0;
  ASSERT_TRUE(fam.GetEpochProof(39, &proof, &epoch).ok());
  // Claiming an epoch beyond the verifier's horizon fails closed.
  EXPECT_FALSE(verifier.Verify(TestDigest(39), proof, epoch + 5));
}

TEST(FamVerifierTest, EpochLinkOutOfRange) {
  FamAccumulator fam(3);
  fam.Append(TestDigest(0));
  MembershipProof link;
  EXPECT_TRUE(fam.GetEpochLink(0, &link).IsOutOfRange());
}

TEST(FamTest, RootAtJournalCountMatchesHistory) {
  FamAccumulator fam(3);
  std::vector<Digest> roots;
  for (uint64_t i = 0; i < 60; ++i) {
    fam.Append(TestDigest(i));
    roots.push_back(fam.Root());
  }
  for (uint64_t count = 1; count <= 60; ++count) {
    Digest root;
    ASSERT_TRUE(fam.RootAtJournalCount(count, &root).ok());
    EXPECT_EQ(root, roots[count - 1]) << "count=" << count;
  }
  Digest zero;
  ASSERT_TRUE(fam.RootAtJournalCount(0, &zero).ok());
  EXPECT_TRUE(zero.IsZero());
  EXPECT_TRUE(fam.RootAtJournalCount(61, &zero).IsOutOfRange());
}

class FamHeightTest : public ::testing::TestWithParam<int> {};

TEST_P(FamHeightTest, RandomProofsVerifyAtManyHeights) {
  const int delta = GetParam();
  FamAccumulator fam(delta);
  const uint64_t n = 3 * fam.epoch_capacity() + 5;
  for (uint64_t i = 0; i < n; ++i) fam.Append(TestDigest(i));
  Digest root = fam.Root();
  Random rng(delta);
  for (int trial = 0; trial < 64; ++trial) {
    uint64_t jsn = rng.Uniform(n);
    FamProof proof;
    ASSERT_TRUE(fam.GetProof(jsn, &proof).ok());
    ASSERT_TRUE(FamAccumulator::VerifyProof(TestDigest(jsn), proof, root))
        << "delta=" << delta << " jsn=" << jsn;
  }
}

INSTANTIATE_TEST_SUITE_P(Heights, FamHeightTest, ::testing::Values(1, 2, 3, 5, 8));

// ---------------------------------------------------------------------------
// Naive Merkle (ablation strawman)
// ---------------------------------------------------------------------------

TEST(NaiveMerkleTest, RootMatchesManualComputation) {
  NaiveMerkleTree tree;
  Digest a = TestDigest(1), b = TestDigest(2);
  tree.Append(a);
  tree.Append(b);
  EXPECT_EQ(tree.Root(), HashMerkleNode(HashMerkleLeaf(a), HashMerkleLeaf(b)));
}

TEST(NaiveMerkleTest, RebuildCostIsLinear) {
  NaiveMerkleTree tree;
  for (uint64_t i = 0; i < 256; ++i) tree.Append(TestDigest(i));
  uint64_t before = tree.HashCount();
  tree.Root();
  uint64_t cost = tree.HashCount() - before;
  EXPECT_GE(cost, 255u);  // full rebuild
}

// ---------------------------------------------------------------------------
// BimLightClient (boa)
// ---------------------------------------------------------------------------

TEST(BimLightClientTest, SyncAndVerify) {
  BimChain chain(8);
  for (uint64_t i = 0; i < 40; ++i) chain.Append(TestDigest(i));
  BimLightClient client;
  ASSERT_TRUE(client.Sync(chain).ok());
  EXPECT_EQ(client.HeaderCount(), chain.NumBlocks());
  for (uint64_t i = 0; i < 40; ++i) {
    BimProof proof;
    ASSERT_TRUE(chain.GetProof(i, &proof).ok());
    EXPECT_TRUE(client.VerifyTransaction(TestDigest(i), proof));
    EXPECT_FALSE(client.VerifyTransaction(TestDigest(i + 100), proof));
  }
}

TEST(BimLightClientTest, IncrementalSync) {
  BimChain chain(4);
  for (uint64_t i = 0; i < 8; ++i) chain.Append(TestDigest(i));
  BimLightClient client;
  ASSERT_TRUE(client.Sync(chain).ok());
  EXPECT_EQ(client.HeaderCount(), 2u);
  for (uint64_t i = 8; i < 16; ++i) chain.Append(TestDigest(i));
  ASSERT_TRUE(client.Sync(chain).ok());
  EXPECT_EQ(client.HeaderCount(), 4u);
}

TEST(BimLightClientTest, RejectsUnknownBlockHeight) {
  BimChain chain(4);
  for (uint64_t i = 0; i < 4; ++i) chain.Append(TestDigest(i));
  BimLightClient client;
  ASSERT_TRUE(client.Sync(chain).ok());
  BimProof proof;
  ASSERT_TRUE(chain.GetProof(0, &proof).ok());
  proof.block_height = 99;
  EXPECT_FALSE(client.VerifyTransaction(TestDigest(0), proof));
}

TEST(BimLightClientTest, StorageGrowsWithBlocks) {
  // The boa O(n)-headers cost that motivates fam-aoa.
  BimChain chain(2);
  BimLightClient client;
  for (uint64_t i = 0; i < 8; ++i) chain.Append(TestDigest(i));
  ASSERT_TRUE(client.Sync(chain).ok());
  size_t small = client.StorageBytes();
  for (uint64_t i = 8; i < 64; ++i) chain.Append(TestDigest(i));
  ASSERT_TRUE(client.Sync(chain).ok());
  EXPECT_GT(client.StorageBytes(), small * 4);
}

}  // namespace
}  // namespace ledgerdb
