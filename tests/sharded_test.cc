#include <gtest/gtest.h>

#include "ledger/sharded.h"

namespace ledgerdb {
namespace {

class ShardedTest : public ::testing::Test {
 protected:
  ShardedTest()
      : clock_(0),
        ca_(KeyPair::FromSeedString("sh-ca")),
        registry_(&ca_),
        lsp_(KeyPair::FromSeedString("sh-lsp")),
        user_(KeyPair::FromSeedString("sh-user")) {
    registry_.Register(ca_.Certify("lsp", lsp_.public_key(), Role::kLsp));
    registry_.Register(ca_.Certify("user", user_.public_key(), Role::kUser));
    LedgerOptions options;
    options.fractal_height = 4;
    group_ = std::make_unique<ShardedLedgerGroup>("lg://group", 4, options,
                                                  &clock_, lsp_, &registry_);
  }

  ClientTransaction MakeTx(const std::string& payload,
                           std::vector<std::string> clues = {}) {
    ClientTransaction tx;
    tx.ledger_uri = "lg://group";
    tx.clues = std::move(clues);
    tx.payload = StringToBytes(payload);
    tx.nonce = nonce_++;
    tx.Sign(user_);
    return tx;
  }

  /// One append through the group's pipeline; `loc` receives where it
  /// committed.
  Status Append(ClientTransaction tx, ShardedLedgerGroup::Location* loc) {
    ShardedLedgerGroup::AppendOutcome outcome =
        group_->AppendAsync(std::move(tx)).get();
    *loc = outcome.location;
    return outcome.status;
  }

  SimulatedClock clock_;
  CertificateAuthority ca_;
  MemberRegistry registry_;
  KeyPair lsp_, user_;
  std::unique_ptr<ShardedLedgerGroup> group_;
  uint64_t nonce_ = 0;
};

TEST_F(ShardedTest, AppendsSpreadAcrossShards) {
  std::vector<size_t> hits(4, 0);
  for (int i = 0; i < 200; ++i) {
    ShardedLedgerGroup::Location loc;
    ASSERT_TRUE(Append(MakeTx("p" + std::to_string(i)), &loc).ok());
    ++hits[loc.shard];
  }
  // All shards get meaningful traffic under hash routing.
  for (size_t shard = 0; shard < 4; ++shard) {
    EXPECT_GT(hits[shard], 20u) << "shard " << shard;
  }
  EXPECT_EQ(group_->TotalJournals(), 200u + 4u);  // + per-shard genesis
}

TEST_F(ShardedTest, ClueLineageStaysOnOneShard) {
  std::vector<ShardedLedgerGroup::Location> locations;
  for (int i = 0; i < 10; ++i) {
    ShardedLedgerGroup::Location loc;
    ASSERT_TRUE(
        Append(MakeTx("e" + std::to_string(i), {"asset-7"}), &loc).ok());
    locations.push_back(loc);
  }
  for (const auto& loc : locations) {
    EXPECT_EQ(loc.shard, locations[0].shard);
  }
  size_t shard = 0;
  std::vector<uint64_t> jsns;
  ASSERT_TRUE(group_->ListTx("asset-7", &jsns, &shard).ok());
  EXPECT_EQ(shard, locations[0].shard);
  EXPECT_EQ(jsns.size(), 10u);

  // Full lineage verification via the owning shard.
  std::vector<Digest> digests;
  for (uint64_t jsn : jsns) {
    Journal j;
    ASSERT_TRUE(group_->GetJournal({shard, jsn}, &j).ok());
    digests.push_back(j.TxHash());
  }
  ClueProof proof;
  ASSERT_TRUE(group_->GetClueProof("asset-7", 0, 0, &proof, nullptr).ok());
  EXPECT_TRUE(CmTree::VerifyClueProof(group_->shard(shard)->ClueRoot(), digests,
                                      proof));
}

TEST_F(ShardedTest, MixedShardCluesRejected) {
  // Find two clues that map to different shards.
  std::string a = "clue-a", b;
  for (int i = 0;; ++i) {
    b = "clue-" + std::to_string(i);
    if (group_->ShardOfClue(b) != group_->ShardOfClue(a)) break;
  }
  ShardedLedgerGroup::Location loc;
  EXPECT_TRUE(Append(MakeTx("x", {a, b}), &loc).IsInvalidArgument());
}

TEST_F(ShardedTest, GroupCommitmentVerification) {
  ShardedLedgerGroup::Location loc;
  ASSERT_TRUE(Append(MakeTx("verify-me"), &loc).ok());
  GroupCommitment commitment = group_->Commitment();
  Digest pinned = commitment.Combined();

  Journal journal;
  ASSERT_TRUE(group_->GetJournal(loc, &journal).ok());
  FamProof proof;
  ASSERT_TRUE(group_->GetProof(loc, &proof).ok());
  EXPECT_TRUE(ShardedLedgerGroup::VerifyJournalProof(journal, proof, loc,
                                                     commitment, pinned));

  // Forged sibling shard root breaks the combined digest.
  GroupCommitment forged = commitment;
  forged.shard_roots[(loc.shard + 1) % 4].bytes[0] ^= 1;
  EXPECT_FALSE(ShardedLedgerGroup::VerifyJournalProof(journal, proof, loc,
                                                      forged, pinned));
  // Forged journal fails against the honest commitment.
  Journal tampered = journal;
  tampered.payload = StringToBytes("other");
  tampered.payload_digest = Sha256::Hash(tampered.payload);
  EXPECT_FALSE(ShardedLedgerGroup::VerifyJournalProof(tampered, proof, loc,
                                                      commitment, pinned));
}

TEST_F(ShardedTest, CommitmentChangesOnAnyShardWrite) {
  Digest before = group_->Commitment().Combined();
  ShardedLedgerGroup::Location loc;
  ASSERT_TRUE(Append(MakeTx("one more"), &loc).ok());
  EXPECT_NE(group_->Commitment().Combined(), before);
}

TEST_F(ShardedTest, ReceiptsWorkThroughTheGroup) {
  ShardedLedgerGroup::Location loc;
  ASSERT_TRUE(Append(MakeTx("receipted"), &loc).ok());
  Receipt receipt;
  ASSERT_TRUE(group_->GetReceipt(loc, &receipt).ok());
  EXPECT_TRUE(receipt.Verify(group_->shard(loc.shard)->lsp_key()));
}

TEST_F(ShardedTest, InvalidShardLocationsRejected) {
  Journal journal;
  EXPECT_TRUE(group_->GetJournal({9, 0}, &journal).IsInvalidArgument());
  FamProof proof;
  EXPECT_TRUE(group_->GetProof({9, 0}, &proof).IsInvalidArgument());
}

}  // namespace
}  // namespace ledgerdb
