#include <gtest/gtest.h>

#include <algorithm>

#include "accum/tim.h"
#include "cmtree/cc_mpt.h"
#include "cmtree/cm_tree.h"
#include "common/random.h"

namespace ledgerdb {
namespace {

Digest JournalDigest(const std::string& payload) {
  return Sha256::Hash(payload);
}

// ---------------------------------------------------------------------------
// Shrubs batch proofs (foundation of CM-Tree2 verification)
// ---------------------------------------------------------------------------

TEST(BatchProofTest, SingleLeafMatchesIndividualProof) {
  ShrubsAccumulator acc;
  for (uint64_t i = 0; i < 37; ++i) acc.Append(JournalDigest(std::to_string(i)));
  BatchProof batch;
  ASSERT_TRUE(acc.GetBatchProof({5}, &batch).ok());
  EXPECT_TRUE(ShrubsAccumulator::VerifyBatchProof({JournalDigest("5")}, batch,
                                                  acc.Root()));
}

TEST(BatchProofTest, FullRangeNeedsNoSuppliedNodes) {
  // Verifying every leaf of a perfect tree derives all interior nodes.
  ShrubsAccumulator acc;
  std::vector<Digest> digests;
  std::vector<uint64_t> indices;
  for (uint64_t i = 0; i < 16; ++i) {
    digests.push_back(JournalDigest(std::to_string(i)));
    acc.Append(digests.back());
    indices.push_back(i);
  }
  BatchProof batch;
  ASSERT_TRUE(acc.GetBatchProof(indices, &batch).ok());
  EXPECT_TRUE(batch.nodes.empty());
  EXPECT_TRUE(ShrubsAccumulator::VerifyBatchProof(digests, batch, acc.Root()));
}

TEST(BatchProofTest, MinimalNodeSetForPrefixRange) {
  // The paper's worked example (§IV-C): first 4 of 8 entries need only one
  // supplied non-leaf node — the sibling subtree root.
  ShrubsAccumulator acc;
  std::vector<Digest> digests;
  for (uint64_t i = 0; i < 8; ++i) {
    digests.push_back(JournalDigest(std::to_string(i)));
    acc.Append(digests.back());
  }
  BatchProof batch;
  ASSERT_TRUE(acc.GetBatchProof({0, 1, 2, 3}, &batch).ok());
  EXPECT_EQ(batch.nodes.size(), 1u);  // only cell_32 analog is supplied
  std::vector<Digest> range(digests.begin(), digests.begin() + 4);
  EXPECT_TRUE(ShrubsAccumulator::VerifyBatchProof(range, batch, acc.Root()));
}

TEST(BatchProofTest, CheaperThanIndividualProofs) {
  ShrubsAccumulator acc;
  std::vector<Digest> digests;
  for (uint64_t i = 0; i < 1024; ++i) {
    digests.push_back(JournalDigest(std::to_string(i)));
    acc.Append(digests.back());
  }
  std::vector<uint64_t> indices;
  size_t individual_cost = 0;
  for (uint64_t i = 100; i < 140; ++i) {
    indices.push_back(i);
    MembershipProof p;
    ASSERT_TRUE(acc.GetProof(i, &p).ok());
    individual_cost += p.CostInHashes();
  }
  BatchProof batch;
  ASSERT_TRUE(acc.GetBatchProof(indices, &batch).ok());
  EXPECT_LT(batch.CostInHashes(), individual_cost);
  std::vector<Digest> range(digests.begin() + 100, digests.begin() + 140);
  EXPECT_TRUE(ShrubsAccumulator::VerifyBatchProof(range, batch, acc.Root()));
}

TEST(BatchProofTest, RejectsTamperedDigest) {
  ShrubsAccumulator acc;
  std::vector<Digest> digests;
  for (uint64_t i = 0; i < 20; ++i) {
    digests.push_back(JournalDigest(std::to_string(i)));
    acc.Append(digests.back());
  }
  BatchProof batch;
  ASSERT_TRUE(acc.GetBatchProof({3, 4, 5}, &batch).ok());
  std::vector<Digest> claimed = {digests[3], JournalDigest("forged"), digests[5]};
  EXPECT_FALSE(ShrubsAccumulator::VerifyBatchProof(claimed, batch, acc.Root()));
}

TEST(BatchProofTest, RejectsSpuriousExtraNodes) {
  ShrubsAccumulator acc;
  for (uint64_t i = 0; i < 16; ++i) acc.Append(JournalDigest(std::to_string(i)));
  BatchProof batch;
  ASSERT_TRUE(acc.GetBatchProof({0, 1}, &batch).ok());
  // Inject a node the verifier never consumes: must be rejected to keep
  // proofs canonical.
  BatchProof::ProofNode extra;
  extra.level = 0;
  extra.index = 9;
  extra.digest = JournalDigest("junk");
  batch.nodes.push_back(extra);
  EXPECT_FALSE(ShrubsAccumulator::VerifyBatchProof(
      {JournalDigest("0"), JournalDigest("1")}, batch, acc.Root()));
}

TEST(BatchProofTest, NonPowerOfTwoSizesAcrossMountains) {
  // Targets spanning multiple mountains of a 13-leaf accumulator.
  ShrubsAccumulator acc;
  std::vector<Digest> digests;
  for (uint64_t i = 0; i < 13; ++i) {
    digests.push_back(JournalDigest(std::to_string(i)));
    acc.Append(digests.back());
  }
  std::vector<uint64_t> indices = {0, 7, 8, 11, 12};
  std::vector<Digest> claimed;
  for (uint64_t i : indices) claimed.push_back(digests[i]);
  BatchProof batch;
  ASSERT_TRUE(acc.GetBatchProof(indices, &batch).ok());
  EXPECT_TRUE(ShrubsAccumulator::VerifyBatchProof(claimed, batch, acc.Root()));
}

TEST(BatchProofTest, OutOfRangeIndexRejected) {
  ShrubsAccumulator acc;
  acc.Append(JournalDigest("0"));
  BatchProof batch;
  EXPECT_TRUE(acc.GetBatchProof({1}, &batch).IsOutOfRange());
}

TEST(BatchProofTest, PlannerMatchesPaperWorkedExample) {
  // §IV-C's example: clue 3359fd16 has 8 journals; verifying the first 4
  // needs non-leaf proofs {cell21, cell22, cell32} = N2, of which
  // {cell21, cell22} ∈ N2 ∩ N3 (derivable), so only {cell32} is shipped.
  // In (level, index) coordinates: cell21 = (1,0), cell22 = (1,1),
  // cell32 = (2,1).
  ShrubsAccumulator acc;
  for (uint64_t i = 0; i < 8; ++i) acc.Append(JournalDigest(std::to_string(i)));
  ShrubsAccumulator::ProofPlan plan;
  ASSERT_TRUE(acc.PlanBatchProof({0, 1, 2, 3}, &plan).ok());
  EXPECT_EQ(plan.n1, (std::vector<uint64_t>{0, 1, 2, 3}));
  // Shipped: exactly the sibling subtree root (2,1).
  ASSERT_EQ(plan.shipped.size(), 1u);
  EXPECT_EQ(plan.shipped[0], (std::pair<int, uint64_t>{2, 1}));
  // (1,0) and (1,1) are on proof paths (N2) but derivable (N3).
  auto contains = [](const std::vector<std::pair<int, uint64_t>>& v, int l,
                     uint64_t i) {
    return std::find(v.begin(), v.end(), std::pair<int, uint64_t>{l, i}) !=
           v.end();
  };
  EXPECT_TRUE(contains(plan.n2, 1, 0));
  EXPECT_TRUE(contains(plan.n2, 1, 1));
  EXPECT_TRUE(contains(plan.n3, 1, 0));
  EXPECT_TRUE(contains(plan.n3, 1, 1));
  EXPECT_FALSE(contains(plan.n3, 2, 1));  // the shipped node is not derivable
}

TEST(BatchProofTest, PlannerShippedSetMatchesProofNodes) {
  ShrubsAccumulator acc;
  for (uint64_t i = 0; i < 100; ++i) acc.Append(JournalDigest(std::to_string(i)));
  Random rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<uint64_t> indices;
    uint64_t count = rng.Range(1, 12);
    for (uint64_t i = 0; i < count; ++i) indices.push_back(rng.Uniform(100));
    ShrubsAccumulator::ProofPlan plan;
    ASSERT_TRUE(acc.PlanBatchProof(indices, &plan).ok());
    BatchProof proof;
    ASSERT_TRUE(acc.GetBatchProof(indices, &proof).ok());
    ASSERT_EQ(plan.shipped.size(), proof.nodes.size());
    for (size_t i = 0; i < proof.nodes.size(); ++i) {
      EXPECT_EQ(plan.shipped[i].first, proof.nodes[i].level);
      EXPECT_EQ(plan.shipped[i].second, proof.nodes[i].index);
    }
  }
}

class BatchProofPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t>> {};

TEST_P(BatchProofPropertyTest, RandomRangesVerify) {
  auto [size, seed] = GetParam();
  ShrubsAccumulator acc;
  std::vector<Digest> digests;
  for (uint64_t i = 0; i < size; ++i) {
    digests.push_back(JournalDigest("j" + std::to_string(i)));
    acc.Append(digests.back());
  }
  Random rng(seed);
  for (int trial = 0; trial < 16; ++trial) {
    uint64_t begin = rng.Uniform(size);
    uint64_t end = begin + 1 + rng.Uniform(size - begin);
    std::vector<uint64_t> indices;
    std::vector<Digest> claimed;
    for (uint64_t i = begin; i < end; ++i) {
      indices.push_back(i);
      claimed.push_back(digests[i]);
    }
    BatchProof batch;
    ASSERT_TRUE(acc.GetBatchProof(indices, &batch).ok());
    ASSERT_TRUE(ShrubsAccumulator::VerifyBatchProof(claimed, batch, acc.Root()))
        << "size=" << size << " range=[" << begin << "," << end << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, BatchProofPropertyTest,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(2, 2),
                      std::make_tuple(7, 3), std::make_tuple(8, 4),
                      std::make_tuple(33, 5), std::make_tuple(100, 6),
                      std::make_tuple(255, 7), std::make_tuple(256, 8)));

// ---------------------------------------------------------------------------
// CM-Tree
// ---------------------------------------------------------------------------

class CmTreeTest : public ::testing::Test {};

TEST_F(CmTreeTest, AppendAssignsClueVersions) {
  CmTree tree;
  uint64_t idx;
  ASSERT_TRUE(tree.Append("DCI001", JournalDigest("a"), &idx).ok());
  EXPECT_EQ(idx, 0u);
  ASSERT_TRUE(tree.Append("DCI001", JournalDigest("b"), &idx).ok());
  EXPECT_EQ(idx, 1u);
  ASSERT_TRUE(tree.Append("DCI002", JournalDigest("c"), &idx).ok());
  EXPECT_EQ(idx, 0u);
  EXPECT_EQ(tree.ClueCount("DCI001"), 2u);
  EXPECT_EQ(tree.ClueCount("DCI002"), 1u);
  EXPECT_EQ(tree.ClueCount("DCI404"), 0u);
}

TEST_F(CmTreeTest, CopyrightLineageExample) {
  // The paper's §IV-A example: an artwork with 3 lifecycle records; the
  // clue-oriented verification must validate all 3 and their count.
  CmTree tree;
  std::vector<Digest> records = {JournalDigest("produced-2005"),
                                 JournalDigest("royalty-2010"),
                                 JournalDigest("transfer-2015")};
  for (const Digest& d : records) {
    ASSERT_TRUE(tree.Append("DCI001", d, nullptr).ok());
  }
  ClueProof proof;
  ASSERT_TRUE(tree.GetClueProof("DCI001", 0, 0, &proof).ok());
  EXPECT_EQ(proof.entry_count, 3u);
  EXPECT_TRUE(CmTree::VerifyClueProof(tree.Root(), records, proof));
}

TEST_F(CmTreeTest, ProofRejectsMissingRecord) {
  // Completeness: claiming only 2 of the 3 records must fail.
  CmTree tree;
  std::vector<Digest> records = {JournalDigest("r0"), JournalDigest("r1"),
                                 JournalDigest("r2")};
  for (const Digest& d : records) ASSERT_TRUE(tree.Append("c", d, nullptr).ok());
  ClueProof proof;
  ASSERT_TRUE(tree.GetClueProof("c", 0, 0, &proof).ok());
  std::vector<Digest> partial = {records[0], records[1]};
  EXPECT_FALSE(CmTree::VerifyClueProof(tree.Root(), partial, proof));
}

TEST_F(CmTreeTest, ProofRejectsForgedEntryCount) {
  CmTree tree;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(tree.Append("c", JournalDigest(std::to_string(i)), nullptr).ok());
  }
  ClueProof proof;
  ASSERT_TRUE(tree.GetClueProof("c", 0, 2, &proof).ok());
  proof.entry_count = 2;  // pretend the clue has only the claimed entries
  std::vector<Digest> claimed = {JournalDigest("0"), JournalDigest("1")};
  EXPECT_FALSE(CmTree::VerifyClueProof(tree.Root(), claimed, proof));
}

TEST_F(CmTreeTest, RangeProofs) {
  CmTree tree;
  std::vector<Digest> records;
  for (int i = 0; i < 50; ++i) {
    records.push_back(JournalDigest("rec" + std::to_string(i)));
    ASSERT_TRUE(tree.Append("asset", records.back(), nullptr).ok());
  }
  ClueProof proof;
  ASSERT_TRUE(tree.GetClueProof("asset", 10, 20, &proof).ok());
  std::vector<Digest> range(records.begin() + 10, records.begin() + 20);
  EXPECT_TRUE(CmTree::VerifyClueProof(tree.Root(), range, proof));
  // Off-by-one range content fails.
  std::vector<Digest> wrong(records.begin() + 11, records.begin() + 21);
  EXPECT_FALSE(CmTree::VerifyClueProof(tree.Root(), wrong, proof));
}

TEST_F(CmTreeTest, HistoricalRootsRemainVerifiable) {
  CmTree tree;
  std::vector<Digest> records;
  records.push_back(JournalDigest("v0"));
  ASSERT_TRUE(tree.Append("k", records[0], nullptr).ok());
  Digest root_v1 = tree.Root();
  ClueProof proof_v1;
  ASSERT_TRUE(tree.GetClueProof("k", 0, 0, &proof_v1).ok());

  records.push_back(JournalDigest("v1"));
  ASSERT_TRUE(tree.Append("k", records[1], nullptr).ok());

  // The old proof still verifies against the old snapshot root, not the new.
  EXPECT_TRUE(CmTree::VerifyClueProof(root_v1, {records[0]}, proof_v1));
  EXPECT_FALSE(CmTree::VerifyClueProof(tree.Root(), {records[0]}, proof_v1));
}

TEST_F(CmTreeTest, ManyCluesIndependent) {
  CmTree tree;
  Random rng(5);
  std::unordered_map<std::string, std::vector<Digest>> reference;
  for (int i = 0; i < 400; ++i) {
    std::string clue = "clue-" + std::to_string(rng.Uniform(40));
    Digest d = JournalDigest("p" + std::to_string(i));
    reference[clue].push_back(d);
    ASSERT_TRUE(tree.Append(clue, d, nullptr).ok());
  }
  for (const auto& [clue, digests] : reference) {
    ClueProof proof;
    ASSERT_TRUE(tree.GetClueProof(clue, 0, 0, &proof).ok());
    EXPECT_TRUE(CmTree::VerifyClueProof(tree.Root(), digests, proof)) << clue;
  }
}

TEST_F(CmTreeTest, UnknownClueAndBadRanges) {
  CmTree tree;
  ASSERT_TRUE(tree.Append("c", JournalDigest("a"), nullptr).ok());
  ClueProof proof;
  EXPECT_TRUE(tree.GetClueProof("missing", 0, 0, &proof).IsNotFound());
  EXPECT_TRUE(tree.GetClueProof("c", 1, 1, &proof).IsOutOfRange());
  EXPECT_TRUE(tree.GetClueProof("c", 0, 5, &proof).IsOutOfRange());
}

// ---------------------------------------------------------------------------
// ccMPT baseline
// ---------------------------------------------------------------------------

class CcMptTest : public ::testing::Test {
 protected:
  void AppendJournal(const std::string& clue, const std::string& payload) {
    Digest d = JournalDigest(payload);
    uint64_t jsn = ledger_.Append(d);
    digests_[clue].push_back(d);
    ASSERT_TRUE(ccmpt_.Append(clue, jsn).ok());
  }

  TimAccumulator ledger_;
  CcMpt ccmpt_{&ledger_};
  std::unordered_map<std::string, std::vector<Digest>> digests_;
};

TEST_F(CcMptTest, CounterTracksAppends) {
  AppendJournal("c1", "a");
  AppendJournal("c1", "b");
  AppendJournal("c2", "c");
  EXPECT_EQ(ccmpt_.ClueCount("c1"), 2u);
  EXPECT_EQ(ccmpt_.ClueCount("c2"), 1u);
  EXPECT_EQ(ccmpt_.ClueCount("c3"), 0u);
}

TEST_F(CcMptTest, ProofRoundTrip) {
  for (int i = 0; i < 20; ++i) AppendJournal("clue", "p" + std::to_string(i));
  CcMptProof proof;
  ASSERT_TRUE(ccmpt_.GetClueProof("clue", &proof).ok());
  EXPECT_EQ(proof.counter, 20u);
  EXPECT_TRUE(CcMpt::VerifyClueProof(ccmpt_.Root(), ledger_.Root(),
                                     digests_["clue"], proof));
}

TEST_F(CcMptTest, ProofRejectsForgedJournal) {
  for (int i = 0; i < 5; ++i) AppendJournal("clue", "p" + std::to_string(i));
  CcMptProof proof;
  ASSERT_TRUE(ccmpt_.GetClueProof("clue", &proof).ok());
  auto forged = digests_["clue"];
  forged[2] = JournalDigest("forged");
  EXPECT_FALSE(
      CcMpt::VerifyClueProof(ccmpt_.Root(), ledger_.Root(), forged, proof));
}

TEST_F(CcMptTest, ProofRejectsMissingJournal) {
  for (int i = 0; i < 5; ++i) AppendJournal("clue", "p" + std::to_string(i));
  CcMptProof proof;
  ASSERT_TRUE(ccmpt_.GetClueProof("clue", &proof).ok());
  // Drop one journal from the claim: counter check must catch it.
  auto partial = digests_["clue"];
  partial.pop_back();
  proof.jsns.pop_back();
  proof.journal_proofs.pop_back();
  EXPECT_FALSE(
      CcMpt::VerifyClueProof(ccmpt_.Root(), ledger_.Root(), partial, proof));
}

TEST_F(CcMptTest, RejectsUnknownJsn) {
  EXPECT_TRUE(ccmpt_.Append("c", 99).IsInvalidArgument());
}

TEST_F(CcMptTest, CmTreeProofCheaperThanCcMptForLargeLedger) {
  // Figure 9's mechanism: ccMPT proof cost grows with total ledger size,
  // CM-Tree's does not.
  CmTree cmtree;
  // Bulk ledger traffic unrelated to the clue.
  for (int i = 0; i < 4096; ++i) ledger_.Append(JournalDigest("bulk" + std::to_string(i)));
  for (int i = 0; i < 10; ++i) {
    AppendJournal("clue", "entry" + std::to_string(i));
    ASSERT_TRUE(
        cmtree.Append("clue", JournalDigest("entry" + std::to_string(i)), nullptr).ok());
  }
  CcMptProof cc_proof;
  ASSERT_TRUE(ccmpt_.GetClueProof("clue", &cc_proof).ok());
  ClueProof cm_proof;
  ASSERT_TRUE(cmtree.GetClueProof("clue", 0, 0, &cm_proof).ok());
  EXPECT_LT(cm_proof.batch.CostInHashes(),
            static_cast<size_t>(cc_proof.journal_proofs.size()) * 12);
  EXPECT_GT(cc_proof.CostInHashes(), cm_proof.CostInHashes());
}

}  // namespace
}  // namespace ledgerdb
