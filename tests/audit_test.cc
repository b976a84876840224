#include <gtest/gtest.h>

#include <functional>
#include <utility>

#include "audit/dasein_auditor.h"
#include "net/byzantine_transport.h"
#include "net/wire.h"

namespace ledgerdb {
namespace {

class AuditTest : public ::testing::Test {
 protected:
  AuditTest()
      : clock_(1700000000LL * kMicrosPerSecond),
        ca_(KeyPair::FromSeedString("ca")),
        registry_(&ca_),
        lsp_key_(KeyPair::FromSeedString("lsp")),
        alice_(KeyPair::FromSeedString("alice")),
        bob_(KeyPair::FromSeedString("bob")),
        dba_(KeyPair::FromSeedString("dba")),
        regulator_(KeyPair::FromSeedString("regulator")),
        tsa_key_(KeyPair::FromSeedString("tsa")),
        tsa_(tsa_key_, &clock_),
        tledger_(&tsa_, &clock_, KeyPair::FromSeedString("tl-lsp"), {}) {
    registry_.Register(ca_.Certify("lsp", lsp_key_.public_key(), Role::kLsp));
    registry_.Register(ca_.Certify("alice", alice_.public_key(), Role::kUser));
    registry_.Register(ca_.Certify("bob", bob_.public_key(), Role::kUser));
    registry_.Register(ca_.Certify("dba", dba_.public_key(), Role::kDba));
    registry_.Register(
        ca_.Certify("regulator", regulator_.public_key(), Role::kRegulator));
    LedgerOptions options;
    options.fractal_height = 4;
    options.block_capacity = 4;
    ledger_ = std::make_unique<Ledger>("lg://audit", options, &clock_,
                                       lsp_key_, &registry_);
    transport_ = std::make_unique<LocalTransport>(ledger_.get());
  }

  uint64_t Append(const KeyPair& signer, const std::string& payload,
                  std::vector<std::string> clues = {}) {
    ClientTransaction tx;
    tx.ledger_uri = "lg://audit";
    tx.clues = std::move(clues);
    tx.payload = StringToBytes(payload);
    tx.nonce = nonce_++;
    tx.client_ts = clock_.Now();
    tx.Sign(signer);
    uint64_t jsn = 0;
    EXPECT_TRUE(ledger_->Append(tx, &jsn).ok());
    clock_.Advance(50 * kMicrosPerMilli);
    return jsn;
  }

  DaseinAuditor MakeAuditor(bool with_tledger = false) {
    LedgerClient::Options copts;
    copts.lsp_key = lsp_key_.public_key();
    copts.fractal_height = 4;
    DaseinAuditor::Context context;
    context.members = &registry_;
    context.tsa_key = tsa_.public_key();
    context.tledger = with_tledger ? &tledger_ : nullptr;
    return DaseinAuditor(transport_.get(), copts, context);
  }

  Receipt LatestReceipt() {
    Receipt receipt;
    EXPECT_TRUE(ledger_->GetReceipt(ledger_->NumJournals() - 1, &receipt).ok());
    return receipt;
  }

  Endorsement Endorse(const KeyPair& key, const Digest& request) {
    return Endorsement{key.public_key(), key.Sign(request)};
  }

  SimulatedClock clock_;
  CertificateAuthority ca_;
  MemberRegistry registry_;
  KeyPair lsp_key_, alice_, bob_, dba_, regulator_, tsa_key_;
  TsaService tsa_;
  TLedger tledger_;
  std::unique_ptr<Ledger> ledger_;
  std::unique_ptr<LocalTransport> transport_;
  uint64_t nonce_ = 0;
};

TEST_F(AuditTest, CleanLedgerPasses) {
  ledger_->AttachDirectTsa(&tsa_);
  for (int i = 0; i < 10; ++i) Append(i % 2 ? alice_ : bob_, "p" + std::to_string(i));
  ASSERT_TRUE(ledger_->AnchorTime(nullptr).ok());
  for (int i = 0; i < 5; ++i) Append(alice_, "q" + std::to_string(i));
  ASSERT_TRUE(ledger_->AnchorTime(nullptr).ok());
  Receipt receipt = LatestReceipt();

  AuditReport report;
  ASSERT_TRUE(MakeAuditor().Audit(receipt, {}, &report).ok())
      << report.failure_reason;
  EXPECT_TRUE(report.passed);
  EXPECT_EQ(report.time_journals_verified, 2u);
  EXPECT_GT(report.journals_replayed, 15u);
  EXPECT_GT(report.blocks_verified, 2u);
  EXPECT_GT(report.signatures_verified, 15u);
  EXPECT_GT(report.boundaries_verified, 0u);
}

TEST_F(AuditTest, TLedgerEvidencePasses) {
  ledger_->AttachTLedger(&tledger_);
  for (int i = 0; i < 6; ++i) Append(alice_, "p" + std::to_string(i));
  ASSERT_TRUE(ledger_->AnchorTime(nullptr).ok());
  tledger_.ForceFinalize();
  Receipt receipt = LatestReceipt();
  AuditReport report;
  ASSERT_TRUE(MakeAuditor(/*with_tledger=*/true).Audit(receipt, {}, &report).ok())
      << report.failure_reason;
  EXPECT_TRUE(report.passed);
  EXPECT_EQ(report.time_journals_verified, 1u);
}

TEST_F(AuditTest, TLedgerEvidenceWithoutContextFails) {
  ledger_->AttachTLedger(&tledger_);
  Append(alice_, "p");
  ASSERT_TRUE(ledger_->AnchorTime(nullptr).ok());
  tledger_.ForceFinalize();
  Receipt receipt = LatestReceipt();
  AuditReport report;
  EXPECT_TRUE(MakeAuditor(false).Audit(receipt, {}, &report).IsVerificationFailed());
  EXPECT_FALSE(report.passed);
}

TEST_F(AuditTest, SharedFinalizationVerifiedOncePerAudit) {
  // Four time journals, all covered by one T-Ledger finalization.
  constexpr uint64_t kAnchors = 4;
  ledger_->AttachTLedger(&tledger_);
  for (uint64_t i = 0; i < kAnchors; ++i) {
    Append(alice_, "p" + std::to_string(i));
    ASSERT_TRUE(ledger_->AnchorTime(nullptr).ok());
  }
  tledger_.ForceFinalize();
  ASSERT_EQ(tledger_.finalization_count(), 1u);
  Receipt receipt = LatestReceipt();
  AuditReport report;
  ASSERT_TRUE(MakeAuditor(/*with_tledger=*/true).Audit(receipt, {}, &report).ok())
      << report.failure_reason;
  EXPECT_EQ(report.time_journals_verified, kAnchors);
  // π_s, one π_c per replayed journal, one T-Ledger receipt per time
  // journal, and the shared finalization once rather than kAnchors times.
  EXPECT_EQ(report.signatures_verified,
            1 + report.journals_replayed + kAnchors + 1);

  // A T-Ledger serving the same submissions under a finalization signed
  // by an untrusted TSA: every time journal citing it fails, each one
  // audited alone through the temporal window.
  TsaService rogue_tsa(KeyPair::FromSeedString("rogue-tsa"), &clock_);
  TLedger rogue(&rogue_tsa, &clock_, KeyPair::FromSeedString("tl-lsp"), {});
  for (const TimeJournalInfo& info : ledger_->time_journals()) {
    TLedgerReceipt admitted;
    ASSERT_TRUE(
        rogue.Submit(info.evidence.ledger_digest, clock_.Now(), &admitted).ok());
  }
  rogue.ForceFinalize();
  LedgerClient::Options copts;
  copts.lsp_key = lsp_key_.public_key();
  copts.fractal_height = 4;
  DaseinAuditor::Context context;
  context.members = &registry_;
  context.tsa_key = tsa_.public_key();
  context.tledger = &rogue;
  DaseinAuditor auditor(transport_.get(), copts, context);
  for (const TimeJournalInfo& info : ledger_->time_journals()) {
    Journal journal;
    ASSERT_TRUE(ledger_->GetJournal(info.jsn, &journal).ok());
    AuditReport forged;
    EXPECT_TRUE(auditor
                    .Audit(receipt, {journal.server_ts, journal.server_ts},
                           &forged)
                    .IsVerificationFailed())
        << "jsn " << info.jsn;
    EXPECT_EQ(forged.failure_reason, "T-Ledger time proof invalid");
  }
}

TEST_F(AuditTest, TimeEvidenceFromAnUntrustedTsaFails) {
  ledger_->AttachDirectTsa(&tsa_);
  Append(alice_, "p");
  ASSERT_TRUE(ledger_->AnchorTime(nullptr).ok());
  Receipt receipt = LatestReceipt();
  LedgerClient::Options copts;
  copts.lsp_key = lsp_key_.public_key();
  copts.fractal_height = 4;
  DaseinAuditor::Context context;
  context.members = &registry_;
  context.tsa_key = alice_.public_key();  // not the ledger's TSA
  AuditReport report;
  EXPECT_TRUE(DaseinAuditor(transport_.get(), copts, context)
                  .Audit(receipt, {}, &report)
                  .IsVerificationFailed());
  EXPECT_EQ(report.failure_reason, "TSA attestation signature invalid");
}

TEST_F(AuditTest, AuditSurvivesOccult) {
  uint64_t target = Append(alice_, "pii-data");
  Append(bob_, "other");
  Digest request = Ledger::OccultRequestHash("lg://audit", target);
  std::vector<Endorsement> sigs = {Endorse(dba_, request),
                                   Endorse(regulator_, request)};
  ASSERT_TRUE(ledger_->Occult(target, sigs, nullptr).ok());
  ledger_->ReorganizeOcculted();
  Receipt receipt = LatestReceipt();
  AuditReport report;
  ASSERT_TRUE(MakeAuditor().Audit(receipt, {}, &report).ok())
      << report.failure_reason;
  EXPECT_TRUE(report.passed);
  EXPECT_EQ(report.occult_journals, 1u);
}

TEST_F(AuditTest, AuditSurvivesPurge) {
  for (int i = 0; i < 8; ++i) Append(alice_, "p" + std::to_string(i));
  Digest request = Ledger::PurgeRequestHash("lg://audit", 5);
  std::vector<Endorsement> sigs = {Endorse(dba_, request),
                                   Endorse(alice_, request)};
  ASSERT_TRUE(ledger_->Purge(5, sigs, {}, nullptr).ok());
  Append(bob_, "after-purge");
  Receipt receipt = LatestReceipt();
  AuditReport report;
  ASSERT_TRUE(MakeAuditor().Audit(receipt, {}, &report).ok())
      << report.failure_reason;
  EXPECT_TRUE(report.passed);
  EXPECT_EQ(report.purge_journals, 1u);
}

TEST_F(AuditTest, ForgedReceiptFails) {
  Append(alice_, "p");
  Receipt receipt = LatestReceipt();
  receipt.tx_hash.bytes[0] ^= 1;
  receipt.lsp_sig = lsp_key_.Sign(receipt.MessageHash());  // LSP collusion
  AuditReport report;
  EXPECT_TRUE(MakeAuditor().Audit(receipt, {}, &report).IsVerificationFailed());
  EXPECT_FALSE(report.passed);
  EXPECT_NE(report.failure_reason.find("receipt"), std::string::npos);
}

TEST_F(AuditTest, ReceiptNamingAnotherBlockFails) {
  // Step 5 binds the receipt to its block: an LSP-signed receipt with the
  // right tx-hash but the hash of another audited block must fail.
  for (int i = 0; i < 6; ++i) Append(alice_, "p" + std::to_string(i));
  Receipt receipt = LatestReceipt();
  ASSERT_GE(ledger_->blocks().size(), 2u);
  receipt.block_hash = ledger_->blocks().front().Hash();
  ASSERT_FALSE(receipt.block_hash == LatestReceipt().block_hash);
  receipt.lsp_sig = lsp_key_.Sign(receipt.MessageHash());  // LSP collusion
  AuditReport report;
  EXPECT_TRUE(MakeAuditor().Audit(receipt, {}, &report).IsVerificationFailed());
  EXPECT_FALSE(report.passed);
  EXPECT_EQ(report.failure_reason,
            "LSP receipt names another block than its own");
}

/// Runs `before_headers` once, when the auditor first asks for the block
/// headers, and `before_journal` once, at its first journal fetch: what a
/// live LSP does between the auditor's pin and those reads.
struct LiveTransport : LocalTransport {
  using LocalTransport::LocalTransport;
  Status Call(RpcOp op, const Bytes& body, Bytes* resp_body) override {
    if (op == RpcOp::kGetHeaders && before_headers) {
      std::exchange(before_headers, nullptr)();
    }
    if (op == RpcOp::kGetJournal && before_journal) {
      std::exchange(before_journal, nullptr)();
    }
    return LocalTransport::Call(op, body, resp_body);
  }
  std::function<void()> before_headers;
  std::function<void()> before_journal;
};

TEST_F(AuditTest, AuditPassesWhileClientsKeepAppending) {
  // One journal lands after the receipt is taken and stays unsealed;
  // another is appended and sealed after the auditor pinned its roots.
  // The headers then tile only a prefix, and the audit still passes.
  for (int i = 0; i < 6; ++i) Append(alice_, "p" + std::to_string(i));
  Receipt receipt = LatestReceipt();
  Append(bob_, "after-receipt");
  auto live = std::make_unique<LiveTransport>(ledger_.get());
  live->before_headers = [&] {
    Append(bob_, "after-pin");
    ASSERT_TRUE(ledger_->SealBlock().ok());
  };
  LiveTransport* live_ptr = live.get();
  transport_ = std::move(live);
  AuditReport report;
  ASSERT_TRUE(MakeAuditor().Audit(receipt, {}, &report).ok())
      << report.failure_reason;
  EXPECT_TRUE(report.passed);
  EXPECT_FALSE(live_ptr->before_headers);
  EXPECT_EQ(report.journals_replayed, receipt.jsn + 2);
  EXPECT_EQ(report.blocks_verified, ledger_->blocks().size() - 1);
}

TEST_F(AuditTest, AuditPassesWhenAnOccultLandsAfterThePin) {
  // The occult journal commits past the pinned count, so the sweep sees
  // a journal served as occulted before any occult journal backs it; one
  // advance of the pin brings the occult journal into the audit.
  for (int i = 0; i < 6; ++i) Append(alice_, "p" + std::to_string(i));
  Receipt receipt = LatestReceipt();
  auto live = std::make_unique<LiveTransport>(ledger_.get());
  live->before_journal = [&] {
    Digest request = Ledger::OccultRequestHash("lg://audit", 2);
    ASSERT_TRUE(ledger_
                    ->Occult(2,
                             {Endorse(dba_, request),
                              Endorse(regulator_, request)},
                             nullptr)
                    .ok());
  };
  transport_ = std::move(live);
  AuditReport report;
  ASSERT_TRUE(MakeAuditor().Audit(receipt, {}, &report).ok())
      << report.failure_reason;
  EXPECT_TRUE(report.passed);
  EXPECT_EQ(report.occult_journals, 1u);
  EXPECT_EQ(report.journals_replayed, ledger_->NumJournals());
}

TEST_F(AuditTest, AuditPassesWhenAPurgeLandsAfterThePin) {
  // Journals below the purge point answer NotFound before the purge
  // journal that erased them is pinned; one advance brings it in.
  for (int i = 0; i < 8; ++i) Append(alice_, "p" + std::to_string(i));
  Receipt receipt = LatestReceipt();
  auto live = std::make_unique<LiveTransport>(ledger_.get());
  live->before_journal = [&] {
    Digest request = Ledger::PurgeRequestHash("lg://audit", 5);
    ASSERT_TRUE(ledger_
                    ->Purge(5, {Endorse(dba_, request), Endorse(alice_, request)},
                            {}, nullptr)
                    .ok());
  };
  transport_ = std::move(live);
  AuditReport report;
  ASSERT_TRUE(MakeAuditor().Audit(receipt, {}, &report).ok())
      << report.failure_reason;
  EXPECT_TRUE(report.passed);
  EXPECT_EQ(report.purge_journals, 1u);
}

TEST_F(AuditTest, ReceiptForUnsealedJournalFails) {
  // The LSP signs a receipt with the right tx-hash for a journal it has
  // not sealed; no audited header covers it, so step 5 cannot pass.
  for (int i = 0; i < 5; ++i) Append(alice_, "p" + std::to_string(i));
  LatestReceipt();
  uint64_t tail = Append(bob_, "unsealed");
  Journal journal;
  ASSERT_TRUE(ledger_->GetJournal(tail, &journal).ok());
  Receipt receipt;
  receipt.jsn = tail;
  receipt.request_hash = journal.request_hash;
  receipt.tx_hash = journal.TxHash();
  receipt.timestamp = clock_.Now();
  receipt.lsp_sig = lsp_key_.Sign(receipt.MessageHash());  // LSP collusion
  AuditReport report;
  EXPECT_TRUE(MakeAuditor().Audit(receipt, {}, &report).IsVerificationFailed());
  EXPECT_EQ(report.failure_reason,
            "LSP receipt names a journal no audited header seals");
}

TEST_F(AuditTest, AuditSurvivesOccultByClue) {
  Append(alice_, "v0", {"acct"});
  Append(bob_, "other", {"misc"});
  Append(alice_, "v1", {"acct"});
  Digest request = Ledger::OccultClueRequestHash("lg://audit", "acct");
  std::vector<Endorsement> sigs = {Endorse(dba_, request),
                                   Endorse(regulator_, request)};
  size_t hidden = 0;
  ASSERT_TRUE(ledger_->OccultByClue("acct", sigs, &hidden, nullptr).ok());
  EXPECT_EQ(hidden, 2u);
  ledger_->ReorganizeOcculted();
  Receipt receipt = LatestReceipt();
  AuditReport report;
  ASSERT_TRUE(MakeAuditor().Audit(receipt, {}, &report).ok())
      << report.failure_reason;
  EXPECT_EQ(report.occult_journals, 1u);
}

TEST_F(AuditTest, ReceiptSignedByImpostorFails) {
  Append(alice_, "p");
  Receipt receipt = LatestReceipt();
  KeyPair impostor = KeyPair::FromSeedString("impostor");
  receipt.lsp_sig = impostor.Sign(receipt.MessageHash());
  AuditReport report;
  EXPECT_TRUE(MakeAuditor().Audit(receipt, {}, &report).IsVerificationFailed());
}

TEST_F(AuditTest, TemporalPredicateFiltersTimeJournals) {
  ledger_->AttachDirectTsa(&tsa_);
  Append(alice_, "early");
  ASSERT_TRUE(ledger_->AnchorTime(nullptr).ok());
  Timestamp cutoff = clock_.Now();
  clock_.Advance(10 * kMicrosPerSecond);
  Append(alice_, "late");
  ASSERT_TRUE(ledger_->AnchorTime(nullptr).ok());
  Receipt receipt = LatestReceipt();

  AuditOptions options;
  options.to = cutoff;
  AuditReport report;
  ASSERT_TRUE(MakeAuditor().Audit(receipt, options, &report).ok())
      << report.failure_reason;
  EXPECT_EQ(report.time_journals_verified, 1u);
}

TEST_F(AuditTest, TemporalPredicateScopesJournalReplay) {
  ledger_->AttachDirectTsa(&tsa_);
  for (int i = 0; i < 8; ++i) Append(alice_, "early" + std::to_string(i));
  Timestamp cutoff = clock_.Now();
  clock_.Advance(100 * kMicrosPerSecond);
  for (int i = 0; i < 8; ++i) Append(alice_, "late" + std::to_string(i));
  ledger_->SealBlock();
  Receipt receipt = LatestReceipt();

  // Unbounded audit replays everything.
  AuditReport full;
  ASSERT_TRUE(MakeAuditor().Audit(receipt, {}, &full).ok());

  // Bounded audit replays only the journals before the cutoff.
  AuditOptions options;
  options.to = cutoff;
  AuditReport scoped;
  ASSERT_TRUE(MakeAuditor().Audit(receipt, options, &scoped).ok())
      << scoped.failure_reason;
  EXPECT_TRUE(scoped.passed);
  EXPECT_LT(scoped.journals_replayed, full.journals_replayed);
  EXPECT_GT(scoped.journals_replayed, 0u);
}

TEST_F(AuditTest, WorldStateUpdateProofs) {
  Append(alice_, "v0", {"acct"});
  Append(alice_, "v1", {"acct"});
  // The two transitions are provable against the state root.
  for (uint64_t version = 0; version < 2; ++version) {
    MembershipProof proof;
    ASSERT_TRUE(ledger_->world_state().GetUpdateProof(version, &proof).ok());
    Bytes value =
        Sha256::Hash(std::string_view(version == 0 ? "v0" : "v1")).ToBytes();
    EXPECT_TRUE(WorldState::VerifyUpdate("acct", version, value, proof,
                                         ledger_->StateRoot()));
    // A forged value fails.
    Bytes forged = Sha256::Hash(std::string_view("vX")).ToBytes();
    EXPECT_FALSE(WorldState::VerifyUpdate("acct", version, forged, proof,
                                          ledger_->StateRoot()));
  }
}

TEST_F(AuditTest, DeltaLargerThanOneFrameIsPaged) {
  // 4800 journals under 1800-byte clues: each delta encodes to about
  // 1.9 KB, so the full delta (about 9 MB) exceeds one 8 MiB frame while a
  // page of wire::kMaxDeltasPerReply deltas fits. Committed through the
  // batched path, as a bulk load would be.
  constexpr uint64_t kJournals = 4800;
  constexpr size_t kChunk = 256;
  std::vector<ClientTransaction> txs(kJournals);
  for (uint64_t i = 0; i < kJournals; ++i) {
    ClientTransaction& tx = txs[i];
    tx.ledger_uri = "lg://audit";
    tx.clues = {std::string(1800, static_cast<char>('a' + i % 8))};
    tx.payload = StringToBytes("p" + std::to_string(i));
    tx.nonce = nonce_++;
    tx.client_ts = clock_.Now();
    tx.Sign(alice_);
  }
  for (uint64_t i = 0; i < kJournals; i += kChunk) {
    std::vector<const ClientTransaction*> chunk;
    for (uint64_t k = i; k < i + kChunk && k < kJournals; ++k) {
      chunk.push_back(&txs[k]);
    }
    std::vector<Ledger::PrevalidatedTx> prepared(chunk.size());
    std::vector<Status> statuses(chunk.size());
    ledger_->PrevalidateBatch(chunk, prepared.data(), statuses.data());
    for (const Status& st : statuses) ASSERT_TRUE(st.ok()) << st.ToString();
    std::vector<uint64_t> jsns;
    ASSERT_TRUE(ledger_
                    ->CommitPrevalidatedGroup(std::move(prepared), &jsns,
                                              &statuses)
                    .ok());
    for (const Status& st : statuses) ASSERT_TRUE(st.ok()) << st.ToString();
  }
  std::vector<JournalDelta> deltas;
  EXPECT_TRUE(transport_->GetDelta(0, wire::kMaxDeltasPerReply + 1, &deltas)
                  .IsInvalidArgument());

  // A fresh client pins the ledger's roots from an empty mirror.
  LedgerClient::Options copts;
  copts.lsp_key = lsp_key_.public_key();
  copts.fractal_height = 4;
  LedgerClient reader(transport_.get(), KeyPair::FromSeedString("reader"),
                      copts);
  bool advanced = false;
  Status refreshed = reader.RefreshTrustedRoots(&advanced);
  ASSERT_TRUE(refreshed.ok()) << refreshed.ToString();
  EXPECT_TRUE(advanced);
  EXPECT_EQ(reader.mirror().journal_count(), ledger_->NumJournals());
  EXPECT_EQ(reader.mirror().fam_root(), ledger_->FamRoot());
  EXPECT_EQ(reader.mirror().clue_root(), ledger_->ClueRoot());
  EXPECT_EQ(reader.mirror().state_root(), ledger_->StateRoot());

  // The Dasein audit refreshes from an empty mirror the same way.
  AuditReport report;
  ASSERT_TRUE(MakeAuditor().Audit(LatestReceipt(), {}, &report).ok())
      << report.failure_reason;
  EXPECT_TRUE(report.passed);
  EXPECT_EQ(report.journals_replayed, ledger_->NumJournals());

  // A forked view catches its own mirror up page by page too: it fools
  // the client it serves, and gossip with the honest reader exposes it.
  ByzantineTransport forked(transport_.get(), /*seed=*/1);
  forked.EnableEquivocation(kJournals / 2, lsp_key_, /*fractal_height=*/4);
  LedgerClient victim(&forked, KeyPair::FromSeedString("victim"), copts);
  refreshed = victim.RefreshTrustedRoots();
  ASSERT_TRUE(refreshed.ok()) << refreshed.ToString();
  EquivocationEvidence ev;
  EXPECT_TRUE(reader.CrossCheckCommitments(victim, &ev).IsVerificationFailed());
  EXPECT_EQ(ev.at_count, ledger_->NumJournals());
}

TEST_F(AuditTest, DeltaPageLargerThanOneFrameIsSplit) {
  // 200 journals under 64 KiB clues: their deltas encode to about 13 MB,
  // so the server refuses a page over all of them as larger than one
  // 8 MiB frame, and the client asks again for half the span.
  constexpr uint64_t kJournals = 200;
  std::vector<ClientTransaction> txs(kJournals);
  std::vector<const ClientTransaction*> batch;
  for (uint64_t i = 0; i < kJournals; ++i) {
    ClientTransaction& tx = txs[i];
    tx.ledger_uri = "lg://audit";
    tx.clues = {std::string(64 << 10, static_cast<char>('a' + i % 8))};
    tx.payload = StringToBytes("p" + std::to_string(i));
    tx.nonce = nonce_++;
    tx.client_ts = clock_.Now();
    tx.Sign(alice_);
    batch.push_back(&tx);
  }
  std::vector<Ledger::PrevalidatedTx> prepared(kJournals);
  std::vector<Status> statuses(kJournals);
  ledger_->PrevalidateBatch(batch, prepared.data(), statuses.data());
  for (const Status& st : statuses) ASSERT_TRUE(st.ok()) << st.ToString();
  std::vector<uint64_t> jsns;
  ASSERT_TRUE(
      ledger_->CommitPrevalidatedGroup(std::move(prepared), &jsns, &statuses)
          .ok());
  for (const Status& st : statuses) ASSERT_TRUE(st.ok()) << st.ToString();
  std::vector<JournalDelta> deltas;
  EXPECT_TRUE(transport_->GetDelta(0, ledger_->NumJournals(), &deltas)
                  .IsOutOfRange());

  LedgerClient::Options copts;
  copts.lsp_key = lsp_key_.public_key();
  copts.fractal_height = 4;
  LedgerClient reader(transport_.get(), KeyPair::FromSeedString("reader"),
                      copts);
  Status refreshed = reader.RefreshTrustedRoots();
  ASSERT_TRUE(refreshed.ok()) << refreshed.ToString();
  EXPECT_EQ(reader.mirror().journal_count(), ledger_->NumJournals());
  EXPECT_EQ(reader.mirror().fam_root(), ledger_->FamRoot());
  EXPECT_EQ(reader.mirror().clue_root(), ledger_->ClueRoot());
  EXPECT_EQ(reader.mirror().state_root(), ledger_->StateRoot());

  AuditReport report;
  ASSERT_TRUE(MakeAuditor().Audit(LatestReceipt(), {}, &report).ok())
      << report.failure_reason;
  EXPECT_TRUE(report.passed);
  EXPECT_EQ(report.journals_replayed, ledger_->NumJournals());
}

}  // namespace
}  // namespace ledgerdb
