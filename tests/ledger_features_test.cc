#include <gtest/gtest.h>

#include "ledger/ledger.h"

namespace ledgerdb {
namespace {

/// Fixture for the extended ledger features: timestamp-bounded clue
/// ranges, occult-by-clue, fam pruning on purge, and the TSA pool
/// attachment.
class LedgerFeaturesTest : public ::testing::Test {
 protected:
  LedgerFeaturesTest()
      : clock_(1000 * kMicrosPerSecond),
        ca_(KeyPair::FromSeedString("f-ca")),
        registry_(&ca_),
        lsp_(KeyPair::FromSeedString("f-lsp")),
        alice_(KeyPair::FromSeedString("f-alice")),
        dba_(KeyPair::FromSeedString("f-dba")),
        regulator_(KeyPair::FromSeedString("f-reg")) {
    registry_.Register(ca_.Certify("lsp", lsp_.public_key(), Role::kLsp));
    registry_.Register(ca_.Certify("alice", alice_.public_key(), Role::kUser));
    registry_.Register(ca_.Certify("dba", dba_.public_key(), Role::kDba));
    registry_.Register(ca_.Certify("reg", regulator_.public_key(), Role::kRegulator));
    LedgerOptions options;
    options.fractal_height = 3;
    options.block_capacity = 4;
    ledger_ = std::make_unique<Ledger>("lg://f", options, &clock_, lsp_,
                                       &registry_);
  }

  uint64_t Append(const std::string& payload,
                  std::vector<std::string> clues = {}) {
    ClientTransaction tx;
    tx.ledger_uri = "lg://f";
    tx.clues = std::move(clues);
    tx.payload = StringToBytes(payload);
    tx.nonce = nonce_++;
    tx.client_ts = clock_.Now();
    tx.Sign(alice_);
    uint64_t jsn = 0;
    EXPECT_TRUE(ledger_->Append(tx, &jsn).ok());
    clock_.Advance(kMicrosPerSecond);
    return jsn;
  }

  Digest TxHashOf(uint64_t jsn) {
    Journal j;
    EXPECT_TRUE(ledger_->GetJournal(jsn, &j).ok());
    return j.TxHash();
  }

  SimulatedClock clock_;
  CertificateAuthority ca_;
  MemberRegistry registry_;
  KeyPair lsp_, alice_, dba_, regulator_;
  std::unique_ptr<Ledger> ledger_;
  uint64_t nonce_ = 0;
};

// ---------------------------------------------------------------------------
// Timestamp-bounded clue ranges
// ---------------------------------------------------------------------------

TEST_F(LedgerFeaturesTest, ResolveClueRangeByTimestamp) {
  // Entries at t0, t0+1s, t0+2s, ... (clock advances 1s per append).
  std::vector<Timestamp> stamps;
  std::vector<Digest> digests;
  for (int i = 0; i < 6; ++i) {
    stamps.push_back(clock_.Now());
    digests.push_back(TxHashOf(Append("v" + std::to_string(i), {"series"})));
  }
  uint64_t begin = 0, end = 0;
  // Select the middle entries [1, 4).
  ASSERT_TRUE(
      ledger_->ResolveClueRange("series", stamps[1], stamps[4], &begin, &end).ok());
  EXPECT_EQ(begin, 1u);
  EXPECT_EQ(end, 4u);

  // The resolved range verifies end to end.
  ClueProof proof;
  ASSERT_TRUE(ledger_->GetClueProof("series", begin, end, &proof).ok());
  std::vector<Digest> range(digests.begin() + 1, digests.begin() + 4);
  EXPECT_TRUE(CmTree::VerifyClueProof(ledger_->ClueRoot(), range, proof));
}

TEST_F(LedgerFeaturesTest, ResolveClueRangeEmptyAndUnknown) {
  Append("v", {"series"});
  uint64_t begin, end;
  EXPECT_TRUE(ledger_->ResolveClueRange("nope", 0, 10, &begin, &end).IsNotFound());
  EXPECT_TRUE(ledger_->ResolveClueRange("series", 0, 1, &begin, &end).IsNotFound());
}

// ---------------------------------------------------------------------------
// Occult by clue
// ---------------------------------------------------------------------------

TEST_F(LedgerFeaturesTest, OccultByClueHidesAllEntries) {
  std::vector<uint64_t> jsns;
  std::vector<Digest> digests;
  for (int i = 0; i < 3; ++i) {
    jsns.push_back(Append("pii-" + std::to_string(i), {"person-42"}));
    digests.push_back(TxHashOf(jsns.back()));
  }
  Append("unrelated", {"other"});

  Digest req = Ledger::OccultClueRequestHash("lg://f", "person-42");
  std::vector<Endorsement> sigs = {{dba_.public_key(), dba_.Sign(req)},
                                   {regulator_.public_key(), regulator_.Sign(req)}};
  size_t count = 0;
  uint64_t oj = 0;
  ASSERT_TRUE(ledger_->OccultByClue("person-42", sigs, &count, &oj).ok());
  EXPECT_EQ(count, 3u);

  for (uint64_t jsn : jsns) {
    Journal j;
    ASSERT_TRUE(ledger_->GetJournal(jsn, &j).ok());
    EXPECT_TRUE(j.occulted);
    EXPECT_TRUE(j.payload.empty());
  }
  // The lineage itself remains verifiable (retained digests).
  ClueProof proof;
  ASSERT_TRUE(ledger_->GetClueProof("person-42", 0, 0, &proof).ok());
  EXPECT_TRUE(CmTree::VerifyClueProof(ledger_->ClueRoot(), digests, proof));
  // Unrelated journals untouched.
  Journal other;
  std::vector<uint64_t> other_jsns;
  ASSERT_TRUE(ledger_->ListTx("other", &other_jsns).ok());
  ASSERT_TRUE(ledger_->GetJournal(other_jsns[0], &other).ok());
  EXPECT_FALSE(other.occulted);
}

TEST_F(LedgerFeaturesTest, OccultByClueNeedsBothRoles) {
  Append("x", {"c"});
  Digest req = Ledger::OccultClueRequestHash("lg://f", "c");
  std::vector<Endorsement> only_dba = {{dba_.public_key(), dba_.Sign(req)}};
  size_t count;
  EXPECT_TRUE(
      ledger_->OccultByClue("c", only_dba, &count, nullptr).IsPermissionDenied());
}

TEST_F(LedgerFeaturesTest, OccultByClueIdempotentPerEntry) {
  uint64_t jsn = Append("x", {"c"});
  Digest one_req = Ledger::OccultRequestHash("lg://f", jsn);
  std::vector<Endorsement> one_sigs = {{dba_.public_key(), dba_.Sign(one_req)},
                                       {regulator_.public_key(), regulator_.Sign(one_req)}};
  ASSERT_TRUE(ledger_->Occult(jsn, one_sigs, nullptr).ok());

  Append("y", {"c"});
  Digest req = Ledger::OccultClueRequestHash("lg://f", "c");
  std::vector<Endorsement> sigs = {{dba_.public_key(), dba_.Sign(req)},
                                   {regulator_.public_key(), regulator_.Sign(req)}};
  size_t count = 0;
  ASSERT_TRUE(ledger_->OccultByClue("c", sigs, &count, nullptr).ok());
  EXPECT_EQ(count, 1u);  // only the not-yet-occulted entry
}

// ---------------------------------------------------------------------------
// fam pruning on purge
// ---------------------------------------------------------------------------

TEST_F(LedgerFeaturesTest, PruneFamOnPurgeFreesNodesKeepsRecentProofs) {
  LedgerOptions options;
  options.fractal_height = 3;  // 8-leaf epochs
  options.block_capacity = 4;
  options.prune_fam_on_purge = true;
  Ledger pruned("lg://f", options, &clock_, lsp_, &registry_);

  auto append = [&](const std::string& p) {
    ClientTransaction tx;
    tx.ledger_uri = "lg://f";
    tx.payload = StringToBytes(p);
    tx.nonce = nonce_++;
    tx.Sign(alice_);
    uint64_t jsn = 0;
    EXPECT_TRUE(pruned.Append(tx, &jsn).ok());
    return jsn;
  };
  for (int i = 0; i < 40; ++i) append("p" + std::to_string(i));

  Digest req = Ledger::PurgeRequestHash("lg://f", 30);
  std::vector<Endorsement> sigs = {{dba_.public_key(), dba_.Sign(req)},
                                   {alice_.public_key(), alice_.Sign(req)}};
  ASSERT_TRUE(pruned.Purge(30, sigs, {}, nullptr).ok());

  // Proofs for deep history are gone...
  FamProof proof;
  EXPECT_TRUE(pruned.GetProof(2, &proof).IsNotFound());
  // ...but recent journals still prove against the full chain, because
  // pruned epochs kept their merged-cell link paths.
  Journal recent;
  ASSERT_TRUE(pruned.GetJournal(35, &recent).ok());
  ASSERT_TRUE(pruned.GetProof(35, &proof).ok());
  EXPECT_TRUE(Ledger::VerifyJournalProof(recent, proof, pruned.FamRoot()));
}

TEST(FamPruneTest, PruneKeepsChainVerifiable) {
  FamAccumulator fam(3);
  auto digest = [](uint64_t i) {
    Bytes b;
    PutU64(&b, i);
    return Sha256::Hash(b);
  };
  for (uint64_t i = 0; i < 64; ++i) fam.Append(digest(i));
  size_t before = fam.TotalNodes();
  size_t freed = fam.PruneSealedEpochsBefore(4);
  EXPECT_GT(freed, 0u);
  EXPECT_LT(fam.TotalNodes(), before);
  EXPECT_TRUE(fam.EpochPruned(0));
  EXPECT_FALSE(fam.EpochPruned(5));

  // The FamVerifier can still sync the whole chain via cached links.
  FamVerifier verifier;
  ASSERT_TRUE(verifier.Sync(fam).ok());
  // Journals in surviving epochs verify.
  MembershipProof local;
  uint64_t epoch = 0;
  ASSERT_TRUE(fam.GetEpochProof(40, &local, &epoch).ok());
  EXPECT_TRUE(verifier.Verify(digest(40), local, epoch));
  // Journals in pruned epochs are unavailable.
  EXPECT_TRUE(fam.GetEpochProof(1, &local, &epoch).IsNotFound());
  // Historical roots at pruned interior positions are unavailable; sealed
  // boundaries still reconstruct.
  Digest root;
  EXPECT_TRUE(fam.RootAtJournalCount(3, &root).IsNotFound());
  EXPECT_TRUE(fam.RootAtJournalCount(8, &root).ok());
}

// ---------------------------------------------------------------------------
// CM-Tree compaction
// ---------------------------------------------------------------------------

TEST_F(LedgerFeaturesTest, CompactClueTreeReclaimsSnapshots) {
  std::vector<Digest> digests;
  for (int i = 0; i < 60; ++i) {
    digests.push_back(TxHashOf(Append("e" + std::to_string(i), {"hot-clue"})));
  }
  size_t reclaimed = 0;
  ASSERT_TRUE(ledger_->CompactClueTree(&reclaimed).ok());
  EXPECT_GT(reclaimed, 0u);
  // Current clue proofs still verify after compaction.
  ClueProof proof;
  ASSERT_TRUE(ledger_->GetClueProof("hot-clue", 0, 0, &proof).ok());
  EXPECT_TRUE(CmTree::VerifyClueProof(ledger_->ClueRoot(), digests, proof));
  // A second compaction finds nothing new.
  size_t again = 99;
  ASSERT_TRUE(ledger_->CompactClueTree(&again).ok());
  EXPECT_EQ(again, 0u);
}

// ---------------------------------------------------------------------------
// TSA pool attachment
// ---------------------------------------------------------------------------

TEST_F(LedgerFeaturesTest, TsaPoolRotatesEndorsements) {
  TsaService tsa1(KeyPair::FromSeedString("pool-tsa-1"), &clock_);
  TsaService tsa2(KeyPair::FromSeedString("pool-tsa-2"), &clock_);
  TsaPool pool;
  pool.Add(&tsa1);
  pool.Add(&tsa2);
  ledger_->AttachTsaPool(&pool);
  Append("a");
  ASSERT_TRUE(ledger_->AnchorTime(nullptr).ok());
  ASSERT_TRUE(ledger_->AnchorTime(nullptr).ok());
  EXPECT_EQ(tsa1.endorsement_count(), 1u);
  EXPECT_EQ(tsa2.endorsement_count(), 1u);
  for (const TimeJournalInfo& info : ledger_->time_journals()) {
    EXPECT_TRUE(pool.VerifyAny(info.evidence.attestation));
  }
}

}  // namespace
}  // namespace ledgerdb
