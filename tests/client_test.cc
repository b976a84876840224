#include <gtest/gtest.h>

#include <limits>

#include "client/ledger_client.h"
#include "net/transport.h"

namespace ledgerdb {
namespace {

class ClientTest : public ::testing::Test {
 protected:
  ClientTest()
      : clock_(0),
        ca_(KeyPair::FromSeedString("cl-ca")),
        registry_(&ca_),
        lsp_(KeyPair::FromSeedString("cl-lsp")),
        alice_(KeyPair::FromSeedString("cl-alice")) {
    registry_.Register(ca_.Certify("lsp", lsp_.public_key(), Role::kLsp));
    registry_.Register(ca_.Certify("alice", alice_.public_key(), Role::kUser));
    LedgerOptions options;
    options.fractal_height = 3;
    options.block_capacity = 4;
    ledger_ = std::make_unique<Ledger>("lg://client", options, &clock_, lsp_,
                                       &registry_);
    transport_ = std::make_unique<LocalTransport>(ledger_.get());
    LedgerClient::Options copts;
    copts.lsp_key = lsp_.public_key();
    copts.fractal_height = options.fractal_height;
    client_ = std::make_unique<LedgerClient>(transport_.get(), alice_, copts);
  }

  SimulatedClock clock_;
  CertificateAuthority ca_;
  MemberRegistry registry_;
  KeyPair lsp_, alice_;
  std::unique_ptr<Ledger> ledger_;
  std::unique_ptr<LocalTransport> transport_;
  std::unique_ptr<LedgerClient> client_;
};

TEST_F(ClientTest, AppendVerifiedRetainsValidReceipts) {
  uint64_t jsn = 0;
  Receipt receipt;
  ASSERT_TRUE(client_->AppendVerified(StringToBytes("doc"), {}, &jsn, &receipt).ok());
  EXPECT_EQ(client_->receipts().size(), 1u);
  EXPECT_TRUE(receipt.Verify(ledger_->lsp_key()));
  EXPECT_TRUE(client_->CheckReceiptStillHolds(receipt).ok());
}

TEST_F(ClientTest, FetchAndVerifyJournal) {
  uint64_t jsn = 0;
  ASSERT_TRUE(client_->AppendVerified(StringToBytes("hello"), {}, &jsn).ok());
  ASSERT_TRUE(client_->RefreshTrustedRoots().ok());
  Journal journal;
  ASSERT_TRUE(client_->FetchAndVerifyJournal(jsn, &journal).ok());
  EXPECT_EQ(journal.payload, StringToBytes("hello"));

  // The same acceptance rule rejects a journal whose tx-hash is not the
  // committed one, and a root the client never pinned.
  FamProof proof;
  ASSERT_TRUE(transport_->GetProof(jsn, &proof).ok());
  const int height = client_->options().fractal_height;
  const Digest& root = client_->trusted_fam_root();
  Journal forged = journal;
  forged.nonce ^= 1;  // moves the tx-hash; payload and π_c still verify
  EXPECT_TRUE(LedgerClient::VerifyJournalAt(forged, jsn, proof, height, root)
                  .IsVerificationFailed());
  Digest lying_root = root;
  lying_root.bytes[5] ^= 0x20;
  EXPECT_TRUE(
      LedgerClient::VerifyJournalAt(journal, jsn, proof, height, lying_root)
          .IsVerificationFailed());
}

TEST_F(ClientTest, StaleRootRejectsNewJournals) {
  uint64_t j1 = 0, j2 = 0;
  ASSERT_TRUE(client_->AppendVerified(StringToBytes("one"), {}, &j1).ok());
  ASSERT_TRUE(client_->RefreshTrustedRoots().ok());
  ASSERT_TRUE(client_->AppendVerified(StringToBytes("two"), {}, &j2).ok());
  Journal journal;
  // The pinned root predates journal two: verification must fail closed
  // until the client refreshes its datum.
  EXPECT_TRUE(client_->FetchAndVerifyJournal(j2, &journal).IsVerificationFailed());
  ASSERT_TRUE(client_->RefreshTrustedRoots().ok());
  EXPECT_TRUE(client_->FetchAndVerifyJournal(j2, &journal).ok());
}

TEST_F(ClientTest, FetchAndVerifyLineage) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client_
                    ->AppendVerified(StringToBytes("life-" + std::to_string(i)),
                                     {"asset"}, nullptr)
                    .ok());
  }
  ASSERT_TRUE(client_->RefreshTrustedRoots().ok());
  std::vector<Journal> lineage;
  ASSERT_TRUE(client_->FetchAndVerifyLineage("asset", &lineage).ok());
  EXPECT_EQ(lineage.size(), 5u);
  EXPECT_EQ(lineage[3].payload, StringToBytes("life-3"));
  EXPECT_TRUE(client_->FetchAndVerifyLineage("nope", &lineage).IsNotFound());

  // A forged entry in a range reply fails the clue proof.
  const Timestamp from = 0, to = std::numeric_limits<Timestamp>::max();
  ClueRangeResult raw;
  ASSERT_TRUE(client_->BatchAuditRange("asset", from, to, &lineage, &raw).ok());
  raw.journals[2].nonce ^= 1;
  Status forged = LedgerClient::VerifyClueRange(
      raw, "asset", from, to, client_->options().fractal_height,
      client_->trusted_clue_root(), client_->trusted_fam_root());
  EXPECT_TRUE(forged.IsVerificationFailed());
  EXPECT_NE(forged.message().find("clue range does not verify"),
            std::string::npos)
      << forged.ToString();
}

TEST_F(ClientTest, OccultedJournalStillVerifies) {
  KeyPair dba = KeyPair::FromSeedString("cl-dba");
  KeyPair regulator = KeyPair::FromSeedString("cl-reg");
  registry_.Register(ca_.Certify("dba", dba.public_key(), Role::kDba));
  registry_.Register(ca_.Certify("reg", regulator.public_key(), Role::kRegulator));
  uint64_t jsn = 0;
  ASSERT_TRUE(client_->AppendVerified(StringToBytes("pii"), {}, &jsn).ok());
  Digest req = Ledger::OccultRequestHash("lg://client", jsn);
  std::vector<Endorsement> sigs = {{dba.public_key(), dba.Sign(req)},
                                   {regulator.public_key(), regulator.Sign(req)}};
  ASSERT_TRUE(ledger_->Occult(jsn, sigs, nullptr).ok());
  ASSERT_TRUE(client_->RefreshTrustedRoots().ok());
  Journal journal;
  ASSERT_TRUE(client_->FetchAndVerifyJournal(jsn, &journal).ok());
  EXPECT_TRUE(journal.occulted);
  EXPECT_TRUE(journal.payload.empty());
}

// ---------------------------------------------------------------------------
// Proof wire formats: round trips and fuzz.
// ---------------------------------------------------------------------------

TEST_F(ClientTest, ProofWireFormatsRoundTrip) {
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client_
                    ->AppendVerified(StringToBytes("p" + std::to_string(i)),
                                     {"c" + std::to_string(i % 3)}, nullptr)
                    .ok());
  }
  FamProof fam_proof;
  ASSERT_TRUE(ledger_->GetProof(5, &fam_proof).ok());
  FamProof fam_back;
  ASSERT_TRUE(FamProof::Deserialize(fam_proof.Serialize(), &fam_back));
  Journal journal;
  ASSERT_TRUE(ledger_->GetJournal(5, &journal).ok());
  EXPECT_TRUE(Ledger::VerifyJournalProof(journal, fam_back, ledger_->FamRoot()));

  ClueProof clue_proof;
  ASSERT_TRUE(ledger_->GetClueProof("c1", 0, 0, &clue_proof).ok());
  ClueProof clue_back;
  ASSERT_TRUE(ClueProof::Deserialize(clue_proof.Serialize(), &clue_back));
  EXPECT_EQ(clue_back.clue, "c1");
  EXPECT_EQ(clue_back.entry_count, clue_proof.entry_count);

  MptProof mpt_back;
  ASSERT_TRUE(MptProof::Deserialize(clue_proof.mpt.Serialize(), &mpt_back));
  EXPECT_EQ(mpt_back.nodes, clue_proof.mpt.nodes);
}

TEST_F(ClientTest, TimeProofWireFormatRoundTrip) {
  TsaService tsa(KeyPair::FromSeedString("cl-tsa"), &clock_);
  TLedger tledger(&tsa, &clock_, KeyPair::FromSeedString("cl-tl"), {});
  TLedgerReceipt receipt;
  Digest d = Sha256::Hash(std::string_view("root"));
  ASSERT_TRUE(tledger.Submit(d, clock_.Now(), &receipt).ok());
  tledger.ForceFinalize();
  TimeProof proof;
  ASSERT_TRUE(tledger.GetTimeProof(receipt.index, &proof).ok());
  TimeProof back;
  ASSERT_TRUE(TimeProof::Deserialize(proof.Serialize(), &back));
  EXPECT_TRUE(TLedger::VerifyTimeProof(d, back, tsa.public_key()));
}

TEST(ProofFuzzTest, ProofDecodersRejectJunkAndTruncation) {
  ShrubsAccumulator acc;
  for (uint64_t i = 0; i < 25; ++i) {
    Bytes b;
    PutU64(&b, i);
    acc.Append(Sha256::Hash(b));
  }
  MembershipProof proof;
  ASSERT_TRUE(acc.GetProof(7, &proof).ok());
  Bytes valid = proof.Serialize();
  MembershipProof out;
  ASSERT_TRUE(MembershipProof::Deserialize(valid, &out));

  Random rng(55);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes junk = rng.NextBytes(rng.Uniform(2 * valid.size() + 2));
    MembershipProof sink;
    MembershipProof::Deserialize(junk, &sink);  // must not crash
  }
  for (size_t cut = 0; cut < valid.size(); cut += 3) {
    Bytes truncated(valid.begin(), valid.begin() + static_cast<long>(cut));
    MembershipProof sink;
    EXPECT_FALSE(MembershipProof::Deserialize(truncated, &sink));
  }
  Bytes extended = valid;
  extended.push_back(0);
  EXPECT_FALSE(MembershipProof::Deserialize(extended, &out));

  BatchProof batch;
  ASSERT_TRUE(acc.GetBatchProof({2, 3, 9}, &batch).ok());
  Bytes bvalid = batch.Serialize();
  BatchProof bout;
  ASSERT_TRUE(BatchProof::Deserialize(bvalid, &bout));
  for (int trial = 0; trial < 200; ++trial) {
    Bytes junk = rng.NextBytes(rng.Uniform(2 * bvalid.size() + 2));
    BatchProof sink;
    BatchProof::Deserialize(junk, &sink);
  }
}

}  // namespace
}  // namespace ledgerdb
