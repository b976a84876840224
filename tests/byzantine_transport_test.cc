// Unit tests for the Byzantine service plane: the LedgerTransport seam,
// deterministic fault injection, the hardened client (idempotent retries,
// audited root advance), and cross-client equivocation detection.

#include <gtest/gtest.h>

#include <functional>

#include "audit/remote_audit.h"
#include "client/ledger_client.h"
#include "net/byzantine_transport.h"
#include "net/transport.h"
#include "net/wire.h"

namespace ledgerdb {
namespace {

class ByzantineTransportTest : public ::testing::Test {
 protected:
  ByzantineTransportTest()
      : clock_(1000 * kMicrosPerSecond),
        ca_(KeyPair::FromSeedString("byz-ca")),
        registry_(&ca_),
        lsp_(KeyPair::FromSeedString("byz-lsp")),
        alice_(KeyPair::FromSeedString("byz-alice")),
        bob_(KeyPair::FromSeedString("byz-bob")) {
    registry_.Register(ca_.Certify("lsp", lsp_.public_key(), Role::kLsp));
    registry_.Register(ca_.Certify("alice", alice_.public_key(), Role::kUser));
    registry_.Register(ca_.Certify("bob", bob_.public_key(), Role::kUser));
    options_.fractal_height = 3;
    options_.block_capacity = 4;
    ledger_ = std::make_unique<Ledger>("lg://byz", options_, &clock_, lsp_,
                                       &registry_);
    local_ = std::make_unique<LocalTransport>(ledger_.get());
    byz_ = std::make_unique<ByzantineTransport>(local_.get(), /*seed=*/7);
  }

  LedgerClient::Options ClientOptions() const {
    LedgerClient::Options copts;
    copts.lsp_key = lsp_.public_key();
    copts.fractal_height = options_.fractal_height;
    return copts;
  }

  LedgerClient MakeClient(LedgerTransport* transport, const KeyPair& who) {
    return LedgerClient(transport, who, ClientOptions());
  }

  SimulatedClock clock_;
  CertificateAuthority ca_;
  MemberRegistry registry_;
  KeyPair lsp_, alice_, bob_;
  LedgerOptions options_;
  std::unique_ptr<Ledger> ledger_;
  std::unique_ptr<LocalTransport> local_;
  std::unique_ptr<ByzantineTransport> byz_;
};

// ---------------------------------------------------------------------------
// Network-plane faults: retries + server-side idempotency mask them.
// ---------------------------------------------------------------------------

TEST_F(ByzantineTransportTest, TransientAndDropMaskedByRetry) {
  byz_->InjectFault(RpcOp::kAppendTx, 0, FaultKind::kTransientError);
  byz_->InjectFault(RpcOp::kAppendTx, 1, FaultKind::kDrop);
  byz_->InjectFault(RpcOp::kGetReceipt, 0, FaultKind::kTransientError);
  LedgerClient client = MakeClient(byz_.get(), alice_);
  uint64_t before = ledger_->NumJournals();
  uint64_t jsn = 0;
  Receipt receipt;
  ASSERT_TRUE(
      client.AppendVerified(StringToBytes("doc"), {}, &jsn, &receipt).ok());
  EXPECT_EQ(ledger_->NumJournals(), before + 1);
  EXPECT_EQ(byz_->faults_injected(), 3u);
  EXPECT_TRUE(receipt.Verify(lsp_.public_key()));
}

TEST_F(ByzantineTransportTest, DelayedAppendCommitsExactlyOnce) {
  // The server EXECUTES the delayed append; the client's resubmission must
  // converge on that same journal via (signer, nonce) dedup.
  byz_->InjectFault(RpcOp::kAppendTx, 0, FaultKind::kDelay);
  LedgerClient client = MakeClient(byz_.get(), alice_);
  uint64_t before = ledger_->NumJournals();
  uint64_t jsn = 0;
  ASSERT_TRUE(client.AppendVerified(StringToBytes("once"), {"a"}, &jsn).ok());
  EXPECT_EQ(ledger_->NumJournals(), before + 1);
  Journal journal;
  ASSERT_TRUE(ledger_->GetJournal(jsn, &journal).ok());
  EXPECT_EQ(journal.payload, StringToBytes("once"));
}

TEST_F(ByzantineTransportTest, DuplicateDeliveryCommitsExactlyOnce) {
  byz_->InjectFault(RpcOp::kAppendTx, 0, FaultKind::kDuplicate);
  LedgerClient client = MakeClient(byz_.get(), alice_);
  uint64_t before = ledger_->NumJournals();
  uint64_t jsn = 0;
  ASSERT_TRUE(client.AppendVerified(StringToBytes("dup"), {}, &jsn).ok());
  EXPECT_EQ(ledger_->NumJournals(), before + 1);
}

TEST_F(ByzantineTransportTest, ReorderedResponseMaskedByRetry) {
  byz_->InjectFault(RpcOp::kAppendTx, 0, FaultKind::kReorder);
  LedgerClient client = MakeClient(byz_.get(), alice_);
  uint64_t before = ledger_->NumJournals();
  uint64_t jsn = 0;
  ASSERT_TRUE(client.AppendVerified(StringToBytes("ooo"), {}, &jsn).ok());
  EXPECT_EQ(ledger_->NumJournals(), before + 1);
}

TEST_F(ByzantineTransportTest, ExhaustedRetryBudgetSurfacesAsIOError) {
  for (uint64_t n = 0; n < 8; ++n) {
    byz_->InjectFault(RpcOp::kAppendTx, n, FaultKind::kTransientError);
  }
  LedgerClient client = MakeClient(byz_.get(), alice_);
  uint64_t jsn = 0;
  Status s = client.AppendVerified(StringToBytes("never"), {}, &jsn);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(ledger_->NumJournals(), 1u);  // genesis only
}

// ---------------------------------------------------------------------------
// Response mutations: client verification detects every one.
// ---------------------------------------------------------------------------

TEST_F(ByzantineTransportTest, ForgedAppendJsnDetected) {
  byz_->InjectFault(RpcOp::kAppendTx, 0, FaultKind::kForgeProof);
  LedgerClient client = MakeClient(byz_.get(), alice_);
  uint64_t jsn = 0;
  Status s = client.AppendVerified(StringToBytes("x"), {}, &jsn);
  EXPECT_FALSE(s.ok()) << "forged jsn accepted";
}

TEST_F(ByzantineTransportTest, SubstitutedReceiptDetected) {
  LedgerClient client = MakeClient(byz_.get(), alice_);
  uint64_t jsn = 0;
  ASSERT_TRUE(client.AppendVerified(StringToBytes("a"), {}, &jsn).ok());
  byz_->InjectFault(RpcOp::kGetReceipt, 1, FaultKind::kSubstituteReceipt);
  Status s = client.AppendVerified(StringToBytes("b"), {}, &jsn);
  EXPECT_TRUE(s.IsVerificationFailed()) << s.ToString();
}

TEST_F(ByzantineTransportTest, ForgedListCountRejectedBeforeAllocation) {
  // kForgeProof flips one seeded bit of the reply's wire bytes. These seeds
  // put it in the top byte of the u32 element count, so the forged reply
  // claims hundreds of millions of elements: the list decoders must check
  // the count against the bytes present before allocating for it.
  LedgerClient client = MakeClient(local_.get(), alice_);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client
                    .AppendVerified(StringToBytes("doc-" + std::to_string(i)),
                                    {"asset"}, nullptr)
                    .ok());
  }
  auto flips_count_top_byte = [](uint64_t seed, size_t reply_size) {
    Random replay(seed);  // ByzantineTransport's first draw picks the byte
    return replay.Uniform(reply_size) == 3;
  };

  std::vector<uint64_t> jsns;
  ASSERT_TRUE(local_->ListTx("asset", &jsns).ok());
  ASSERT_TRUE(flips_count_top_byte(25, wire::EncodeJsnList(jsns).size()));
  ByzantineTransport forge_list(local_.get(), /*seed=*/25);
  forge_list.InjectFault(RpcOp::kListTx, 0, FaultKind::kForgeProof);
  Status s = forge_list.ListTx("asset", &jsns);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();

  std::vector<JournalDelta> deltas;
  ASSERT_TRUE(local_->GetDelta(1, 2, &deltas).ok());
  ASSERT_TRUE(flips_count_top_byte(114, wire::EncodeDeltas(deltas).size()));
  ByzantineTransport forge_delta(local_.get(), /*seed=*/114);
  forge_delta.InjectFault(RpcOp::kGetDelta, 0, FaultKind::kForgeProof);
  s = forge_delta.GetDelta(1, 2, &deltas);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(ByzantineTransportTest, ForgedProofDetected) {
  LedgerClient client = MakeClient(byz_.get(), alice_);
  uint64_t jsn = 0;
  ASSERT_TRUE(client.AppendVerified(StringToBytes("p"), {}, &jsn).ok());
  ASSERT_TRUE(client.RefreshTrustedRoots().ok());
  byz_->InjectFault(RpcOp::kGetProof, 0, FaultKind::kForgeProof);
  Journal journal;
  Status s = client.FetchAndVerifyJournal(jsn, &journal);
  EXPECT_FALSE(s.ok()) << "forged fam proof accepted";
}

TEST_F(ByzantineTransportTest, TruncatedProofDetected) {
  LedgerClient client = MakeClient(byz_.get(), alice_);
  uint64_t jsn = 0;
  for (int i = 0; i < 10; ++i) {  // cross an epoch so epoch links exist
    ASSERT_TRUE(
        client.AppendVerified(StringToBytes("t" + std::to_string(i)), {}, &jsn)
            .ok());
  }
  ASSERT_TRUE(client.RefreshTrustedRoots().ok());
  byz_->InjectFault(RpcOp::kGetProof, 0, FaultKind::kTruncateProof);
  Journal journal;
  Status s = client.FetchAndVerifyJournal(jsn, &journal);
  EXPECT_FALSE(s.ok()) << "truncated fam proof accepted";
}

TEST_F(ByzantineTransportTest, SubstitutedJournalDetected) {
  LedgerClient client = MakeClient(byz_.get(), alice_);
  uint64_t j1 = 0, j2 = 0;
  ASSERT_TRUE(client.AppendVerified(StringToBytes("one"), {}, &j1).ok());
  ASSERT_TRUE(client.AppendVerified(StringToBytes("two"), {}, &j2).ok());
  ASSERT_TRUE(client.RefreshTrustedRoots().ok());
  byz_->InjectFault(RpcOp::kGetJournal, 0, FaultKind::kSubstituteReceipt);
  Journal journal;
  Status s = client.FetchAndVerifyJournal(j2, &journal);
  EXPECT_TRUE(s.IsVerificationFailed()) << s.ToString();
}

TEST_F(ByzantineTransportTest, CorruptedPayloadDetected) {
  LedgerClient client = MakeClient(byz_.get(), alice_);
  uint64_t jsn = 0;
  ASSERT_TRUE(client.AppendVerified(StringToBytes("payload"), {}, &jsn).ok());
  ASSERT_TRUE(client.RefreshTrustedRoots().ok());
  byz_->InjectFault(RpcOp::kGetJournal, 0, FaultKind::kCorruptPayload);
  Journal journal;
  Status s = client.FetchAndVerifyJournal(jsn, &journal);
  EXPECT_TRUE(s.IsVerificationFailed()) << s.ToString();
}

TEST_F(ByzantineTransportTest, TruncatedLineageDetected) {
  LedgerClient client = MakeClient(byz_.get(), alice_);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client
                    .AppendVerified(StringToBytes("l" + std::to_string(i)),
                                    {"asset"}, nullptr)
                    .ok());
  }
  ASSERT_TRUE(client.RefreshTrustedRoots().ok());
  byz_->InjectFault(RpcOp::kListTx, 0, FaultKind::kTruncateProof);
  std::vector<Journal> lineage;
  Status s = client.FetchAndVerifyLineage("asset", &lineage);
  EXPECT_TRUE(s.IsVerificationFailed()) << s.ToString();
}

// ---------------------------------------------------------------------------
// Root advance: audited vs blind.
// ---------------------------------------------------------------------------

TEST_F(ByzantineTransportTest, ForgedCommitmentRejectedByAuditedRefresh) {
  byz_->InjectFault(RpcOp::kGetCommitment, 0, FaultKind::kForgeProof);
  LedgerClient client = MakeClient(byz_.get(), alice_);
  Status s = client.RefreshTrustedRoots();
  EXPECT_FALSE(s.ok()) << "forged commitment pinned";
}

TEST_F(ByzantineTransportTest, UnauditedRefreshPinsForgedRootBlindly) {
  // The pre-hardening behavior, kept as an explicit test-only hatch: the
  // forged root is pinned without any error — and every later journal
  // verification fails closed against it.
  uint64_t jsn = 0;
  LedgerClient client = MakeClient(byz_.get(), alice_);
  ASSERT_TRUE(client.AppendVerified(StringToBytes("v"), {}, &jsn).ok());
  byz_->InjectFault(RpcOp::kGetCommitment, 0, FaultKind::kForgeProof);
  ASSERT_TRUE(client.RefreshTrustedRootsUnaudited().ok());  // no detection!
  Journal journal;
  // With overwhelming probability the flipped bit landed somewhere that
  // breaks the root (or the sig, which the unaudited path ignores).
  Status s = client.FetchAndVerifyJournal(jsn, &journal);
  (void)s;  // the point is the line above: blind pinning raises no error
}

TEST_F(ByzantineTransportTest, StaleRootFailsClosedDownstream) {
  LedgerClient client = MakeClient(byz_.get(), alice_);
  ASSERT_TRUE(client.RefreshTrustedRoots().ok());  // caches commitment #1
  uint64_t jsn = 0;
  ASSERT_TRUE(client.AppendVerified(StringToBytes("new"), {}, &jsn).ok());
  byz_->InjectFault(RpcOp::kGetCommitment, 1, FaultKind::kStaleRoot);
  bool advanced = true;
  // Replaying the old commitment is not itself equivocation (it is a
  // bit-identical repeat of an accepted view) — but it cannot advance the
  // datum, and the fresh journal stays unverifiable: fail closed.
  ASSERT_TRUE(client.RefreshTrustedRoots(&advanced).ok());
  EXPECT_FALSE(advanced);
  Journal journal;
  EXPECT_TRUE(client.FetchAndVerifyJournal(jsn, &journal).IsVerificationFailed());
  // An honest refresh then unblocks it.
  ASSERT_TRUE(client.RefreshTrustedRoots(&advanced).ok());
  EXPECT_TRUE(advanced);
  EXPECT_TRUE(client.FetchAndVerifyJournal(jsn, &journal).ok());
}

TEST_F(ByzantineTransportTest, RollbackCommitmentRejectedWithEvidence) {
  LedgerClient client = MakeClient(byz_.get(), alice_);
  ASSERT_TRUE(client.RefreshTrustedRoots().ok());  // caches commitment @1
  ASSERT_TRUE(client.AppendVerified(StringToBytes("adv"), {}, nullptr).ok());
  ASSERT_TRUE(client.RefreshTrustedRoots().ok());  // audited prefix now @2
  byz_->InjectFault(RpcOp::kGetCommitment, 2, FaultKind::kStaleRoot);
  EquivocationEvidence ev;
  Status s = client.RefreshTrustedRoots(nullptr, &ev);
  EXPECT_TRUE(s.IsVerificationFailed()) << s.ToString();
  EXPECT_NE(ev.reason.find("rollback"), std::string::npos) << ev.reason;
  // The evidence is self-certifying: the rolled-back commitment really is
  // signed by the LSP.
  EXPECT_TRUE(ev.claimed.Verify(lsp_.public_key()));
}

// ---------------------------------------------------------------------------
// Equivocation: a forked view that passes single-client audit is caught
// only by gossip.
// ---------------------------------------------------------------------------

TEST_F(ByzantineTransportTest, EquivocationSurvivesSingleClientAudit) {
  // Two clients, one ledger. Alice's transport forks her view from jsn 1
  // on; the forger holds the REAL LSP key (malicious LSP, not a MITM).
  LocalTransport bob_local(ledger_.get());
  LedgerClient bob = MakeClient(&bob_local, bob_);
  ASSERT_TRUE(
      bob.AppendVerified(StringToBytes("real-1"), {"acct"}, nullptr).ok());
  ASSERT_TRUE(
      bob.AppendVerified(StringToBytes("real-2"), {"acct"}, nullptr).ok());

  byz_->EnableEquivocation(/*fork_jsn=*/1, lsp_, options_.fractal_height,
                           /*mpt_cache_depth=*/6);
  LedgerClient alice = MakeClient(byz_.get(), alice_);

  // Both audited refreshes PASS: the fork is internally consistent and
  // properly signed — no single-client check can see the split view.
  ASSERT_TRUE(alice.RefreshTrustedRoots().ok());
  ASSERT_TRUE(bob.RefreshTrustedRoots().ok());
  EXPECT_NE(alice.trusted_fam_root().ToHex(), bob.trusted_fam_root().ToHex());

  // Gossip catches it: two validly signed commitments at one count with
  // different roots.
  EquivocationEvidence ev;
  Status s = alice.CrossCheckCommitments(bob, &ev);
  EXPECT_TRUE(s.IsVerificationFailed()) << "equivocation not detected";
  EXPECT_TRUE(ev.claimed.Verify(lsp_.public_key()));  // self-certifying
  EXPECT_FALSE(ev.claimed.fam_root == ev.expected_fam_root);
}

TEST_F(ByzantineTransportTest, EquivocationWithWrongKeyCaughtImmediately) {
  // A MITM without the LSP key tries the same fork: the signature check in
  // the audited refresh kills it on the spot.
  byz_->EnableEquivocation(/*fork_jsn=*/1,
                           KeyPair::FromSeedString("byz-mitm"),
                           options_.fractal_height, /*mpt_cache_depth=*/6);
  LedgerClient alice = MakeClient(byz_.get(), alice_);
  Status s = alice.RefreshTrustedRoots();
  EXPECT_TRUE(s.IsVerificationFailed()) << s.ToString();
}

// ---------------------------------------------------------------------------
// Rewritten replies: every acceptor runs the client's checks, so a reply the
// client rejects is rejected by the transport-level audit too.
// ---------------------------------------------------------------------------

/// Forwards every RPC to `inner`; when set, the hooks rewrite an OK
/// GetJournal or ProveClueRange response before the caller sees it.
class RewritingTransport : public LedgerTransport {
 public:
  explicit RewritingTransport(LedgerTransport* inner) : inner_(inner) {}

  std::function<void(Journal*)> on_journal;
  std::function<void(ClueRangeResult*)> on_range;

  Status AppendTx(const ClientTransaction& tx, uint64_t* jsn) override {
    return inner_->AppendTx(tx, jsn);
  }
  Status GetReceipt(uint64_t jsn, Receipt* out) override {
    return inner_->GetReceipt(jsn, out);
  }
  Status GetJournal(uint64_t jsn, Journal* out) override {
    Status s = inner_->GetJournal(jsn, out);
    if (s.ok() && on_journal) on_journal(out);
    return s;
  }
  Status GetProof(uint64_t jsn, FamProof* out) override {
    return inner_->GetProof(jsn, out);
  }
  Status GetClueProof(const std::string& clue, uint64_t begin, uint64_t end,
                      ClueProof* out) override {
    return inner_->GetClueProof(clue, begin, end, out);
  }
  Status ListTx(const std::string& clue,
                std::vector<uint64_t>* jsns) override {
    return inner_->ListTx(clue, jsns);
  }
  Status GetCommitment(SignedCommitment* out) override {
    return inner_->GetCommitment(out);
  }
  Status GetDelta(uint64_t from, uint64_t to,
                  std::vector<JournalDelta>* out) override {
    return inner_->GetDelta(from, to, out);
  }
  Status GetProofBatch(const std::vector<uint64_t>& jsns,
                       FamBatchProof* out) override {
    return inner_->GetProofBatch(jsns, out);
  }
  Status ProveClueRange(const std::string& clue, Timestamp from, Timestamp to,
                        ClueRangeResult* out) override {
    Status s = inner_->ProveClueRange(clue, from, to, out);
    if (s.ok() && on_range) on_range(out);
    return s;
  }
  const std::string& uri() const override { return inner_->uri(); }

 private:
  LedgerTransport* inner_;
};

TEST_F(ByzantineTransportTest, RemoteAuditRejectsOccultedJournalWithOtherBytes) {
  LedgerClient alice = MakeClient(local_.get(), alice_);
  uint64_t jsn = 0;
  ASSERT_TRUE(alice.AppendVerified(StringToBytes("original"), {"asset"}, &jsn)
                  .ok());
  RewritingTransport rewriting(local_.get());
  RemoteAuditOptions ropts;
  ropts.lsp_key = lsp_.public_key();
  ropts.fractal_height = options_.fractal_height;
  RemoteAuditReport report;
  Status s = RemoteAudit(&rewriting, ropts, &report);
  ASSERT_TRUE(s.ok()) << s.ToString() << " " << report.failure_reason;
  EXPECT_TRUE(report.passed);
  EXPECT_EQ(report.journals_verified, ledger_->NumJournals());

  // "Occulted" but still carrying bytes: the tx-hash, π_c and fam proof
  // bind only the payload digest, so the payload check alone must fail it.
  rewriting.on_journal = [&](Journal* journal) {
    if (journal->jsn != jsn) return;
    journal->occulted = true;
    journal->payload = StringToBytes("forged");
  };
  s = RemoteAudit(&rewriting, ropts, &report);
  EXPECT_TRUE(s.IsVerificationFailed()) << s.ToString();
  EXPECT_FALSE(report.passed);
  EXPECT_EQ(report.failure_reason, "payload digest mismatch");
}

TEST_F(ByzantineTransportTest, EmptyRangeReplyRejected) {
  RewritingTransport rewriting(local_.get());
  LedgerClient alice = MakeClient(&rewriting, alice_);
  for (int i = 0; i < 2; ++i) {
    uint64_t jsn = 0;
    ASSERT_TRUE(alice
                    .AppendVerified(StringToBytes("r-" + std::to_string(i)),
                                    {"asset"}, &jsn)
                    .ok());
  }
  ASSERT_TRUE(alice.RefreshTrustedRoots().ok());
  const Timestamp to = clock_.Now() + 1;
  std::vector<Journal> journals;
  Status s = alice.BatchAuditRange("asset", 0, to, &journals);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(journals.size(), 2u);

  // An honest server answers a window with no entries NotFound...
  s = alice.BatchAuditRange("asset", to, to + 1, &journals);
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();

  // ...so an OK reply that proves no entries is a lie about the window.
  rewriting.on_range = [](ClueRangeResult* result) {
    result->begin = result->end;
    result->journals.clear();
  };
  s = alice.BatchAuditRange("asset", 0, to, &journals);
  EXPECT_TRUE(s.IsVerificationFailed()) << s.ToString();
}

TEST_F(ByzantineTransportTest, ReceiptCheckedOnTheJournalBoundToTheRoot) {
  LedgerClient alice = MakeClient(local_.get(), alice_);
  uint64_t jsn = 0;
  Receipt receipt;
  ASSERT_TRUE(alice.AppendVerified(StringToBytes("original"), {"asset"}, &jsn,
                                   &receipt)
                  .ok());
  ASSERT_TRUE(alice.RefreshTrustedRoots().ok());
  ASSERT_TRUE(alice.VerifyReceipt(receipt).ok());
  Journal original;
  ASSERT_TRUE(local_->GetJournal(jsn, &original).ok());

  // The LSP rewrites history under its own key: the same jsn now holds
  // other content, and every root it signs commits to the rewrite.
  Ledger rewritten("lg://byz", options_, &clock_, lsp_, &registry_);
  LocalTransport rewritten_local(&rewritten);
  LedgerClient forger = MakeClient(&rewritten_local, alice_);
  uint64_t rewritten_jsn = 0;
  ASSERT_TRUE(forger.AppendVerified(StringToBytes("rewritten"), {"asset"},
                                    &rewritten_jsn)
                  .ok());
  ASSERT_EQ(rewritten_jsn, jsn);

  // The server shows the receipt's journal to the first GetJournal only.
  RewritingTransport rewriting(&rewritten_local);
  int fetches = 0;
  rewriting.on_journal = [&](Journal* journal) {
    if (journal->jsn == jsn && fetches++ == 0) *journal = original;
  };
  LedgerClient verifier = MakeClient(&rewriting, bob_);
  ASSERT_TRUE(verifier.RefreshTrustedRoots().ok());

  // Two fetches can be answered with two journals: each check passes.
  Journal fetched;
  EXPECT_TRUE(verifier.CheckReceiptStillHolds(receipt).ok());
  EXPECT_TRUE(verifier.FetchAndVerifyJournal(jsn, &fetched).ok());

  // VerifyReceipt makes both checks on one journal: the original fails
  // the root, the rewrite fails the receipt.
  fetches = 0;
  Status s = verifier.VerifyReceipt(receipt);
  EXPECT_TRUE(s.IsVerificationFailed()) << s.ToString();
  s = verifier.VerifyReceipt(receipt);
  EXPECT_TRUE(s.IsVerificationFailed()) << s.ToString();
  EXPECT_EQ(s.message(),
            "journal request-hash does not match the receipt");
}

// ---------------------------------------------------------------------------
// Determinism: same seed, same schedule → bit-identical outcomes.
// ---------------------------------------------------------------------------

TEST_F(ByzantineTransportTest, FaultInjectionIsDeterministic) {
  auto run = [&](uint64_t seed) {
    SimulatedClock clock(1000 * kMicrosPerSecond);
    Ledger ledger("lg://byz", options_, &clock, lsp_, &registry_);
    LocalTransport local(&ledger);
    ByzantineTransport byz(&local, seed);
    byz.InjectFault(RpcOp::kGetProof, 0, FaultKind::kForgeProof);
    LedgerClient client(&byz, alice_, ClientOptions());
    uint64_t jsn = 0;
    EXPECT_TRUE(client.AppendVerified(StringToBytes("d"), {}, &jsn).ok());
    EXPECT_TRUE(client.RefreshTrustedRoots().ok());
    Journal journal;
    Status s = client.FetchAndVerifyJournal(jsn, &journal);
    return s.ToString() + "|" + ledger.FamRoot().ToHex();
  };
  EXPECT_EQ(run(99), run(99));   // identical replay
  EXPECT_EQ(run(123), run(123));
}

}  // namespace
}  // namespace ledgerdb
