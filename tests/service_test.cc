#include <gtest/gtest.h>

#include "accum/bim.h"
#include "audit/dasein_auditor.h"
#include "ledger/service.h"

namespace ledgerdb {
namespace {

Digest TestDigest(uint64_t i) {
  Bytes buf;
  PutU64(&buf, i);
  return Sha256::Hash(buf);
}

// ---------------------------------------------------------------------------
// LedgerService
// ---------------------------------------------------------------------------

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest()
      : clock_(0),
        ca_(KeyPair::FromSeedString("svc-ca")),
        registry_(&ca_),
        lsp_(KeyPair::FromSeedString("svc-lsp")),
        user_(KeyPair::FromSeedString("svc-user")),
        tsa_(KeyPair::FromSeedString("svc-tsa"), &clock_),
        service_(&clock_, lsp_, &registry_, &tsa_, MakeOptions()) {
    registry_.Register(ca_.Certify("lsp", lsp_.public_key(), Role::kLsp));
    registry_.Register(ca_.Certify("user", user_.public_key(), Role::kUser));
  }

  static LedgerService::Options MakeOptions() {
    LedgerService::Options options;
    options.ledger_defaults.fractal_height = 4;
    options.anchor_interval = kMicrosPerSecond;
    options.tledger.finalize_interval = kMicrosPerSecond;
    options.tledger.tau_delta = kMicrosPerSecond;
    return options;
  }

  void Append(Ledger* ledger, const std::string& payload) {
    ClientTransaction tx;
    tx.ledger_uri = ledger->uri();
    tx.payload = StringToBytes(payload);
    tx.nonce = nonce_++;
    tx.client_ts = clock_.Now();
    tx.Sign(user_);
    uint64_t jsn;
    ASSERT_TRUE(ledger->Append(tx, &jsn).ok());
  }

  SimulatedClock clock_;
  CertificateAuthority ca_;
  MemberRegistry registry_;
  KeyPair lsp_, user_;
  TsaService tsa_;
  LedgerService service_;
  uint64_t nonce_ = 0;
};

TEST_F(ServiceTest, CreateAndLookup) {
  Ledger* a = nullptr;
  Ledger* b = nullptr;
  ASSERT_TRUE(service_.CreateLedger("lg://a", &a).ok());
  ASSERT_TRUE(service_.CreateLedger("lg://b", &b).ok());
  EXPECT_TRUE(service_.CreateLedger("lg://a", nullptr).IsAlreadyExists());
  Ledger* found = nullptr;
  ASSERT_TRUE(service_.GetLedger("lg://a", &found).ok());
  EXPECT_EQ(found, a);
  EXPECT_TRUE(service_.GetLedger("lg://c", &found).IsNotFound());
  EXPECT_EQ(service_.ListLedgers(),
            (std::vector<std::string>{"lg://a", "lg://b"}));
}

TEST_F(ServiceTest, TickAnchorsActiveLedgersOnly) {
  Ledger* active = nullptr;
  Ledger* idle = nullptr;
  ASSERT_TRUE(service_.CreateLedger("lg://active", &active).ok());
  ASSERT_TRUE(service_.CreateLedger("lg://idle", &idle).ok());
  Append(active, "data");
  EXPECT_EQ(service_.Tick(), 1u);  // only the active ledger anchors
  EXPECT_EQ(active->time_journals().size(), 1u);
  EXPECT_TRUE(idle->time_journals().empty());

  // Within the anchor interval, no re-anchoring even with new data.
  Append(active, "more");
  EXPECT_EQ(service_.Tick(), 0u);
  clock_.Advance(kMicrosPerSecond);
  EXPECT_EQ(service_.Tick(), 1u);
}

TEST_F(ServiceTest, SharedTLedgerAmortizesTsa) {
  std::vector<Ledger*> ledgers;
  for (int i = 0; i < 5; ++i) {
    Ledger* ledger = nullptr;
    ASSERT_TRUE(service_.CreateLedger("lg://l" + std::to_string(i), &ledger).ok());
    ledgers.push_back(ledger);
  }
  for (int round = 0; round < 4; ++round) {
    for (Ledger* ledger : ledgers) Append(ledger, "r" + std::to_string(round));
    service_.Tick();
    clock_.Advance(kMicrosPerSecond);
  }
  service_.tledger()->ForceFinalize();
  // 5 ledgers x 4 rounds of anchoring = 20 submissions, but far fewer TSA
  // endorsements thanks to the shared T-Ledger.
  EXPECT_GE(service_.tledger()->submission_count(), 15u);
  EXPECT_LT(tsa_.endorsement_count(), 8u);
}

TEST_F(ServiceTest, HostedLedgerFullyAuditable) {
  Ledger* ledger = nullptr;
  ASSERT_TRUE(service_.CreateLedger("lg://audit-me", &ledger).ok());
  for (int i = 0; i < 6; ++i) Append(ledger, "p" + std::to_string(i));
  service_.Tick();
  clock_.Advance(kMicrosPerSecond);
  service_.Tick();
  service_.tledger()->ForceFinalize();

  Receipt receipt;
  ASSERT_TRUE(ledger->GetReceipt(ledger->NumJournals() - 1, &receipt).ok());
  LocalTransport transport(ledger);
  LedgerClient::Options copts;
  copts.lsp_key = ledger->lsp_key();
  copts.fractal_height = 4;
  DaseinAuditor::Context context;
  context.members = &registry_;
  context.tsa_key = tsa_.public_key();
  context.tledger = service_.tledger();
  AuditReport report;
  ASSERT_TRUE(DaseinAuditor(&transport, copts, context)
                  .Audit(receipt, {}, &report)
                  .ok())
      << report.failure_reason;
  EXPECT_TRUE(report.passed);
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
