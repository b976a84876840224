// The fault matrix: every (RPC op x fault kind x fault point) cell runs a
// fixed client scenario against a fresh ledger and must land in exactly one
// of two outcomes:
//
//   MASKED   — the scenario completes, the ledger is bit-identical to the
//              honest baseline (roots + journal count), and the
//              Dasein-complete audit over the transport still passes; or
//   DETECTED — some step returns an explicit error (VerificationFailed /
//              Corruption / IOError after retry exhaustion / ...).
//
// Silent acceptance — the scenario "succeeds" but the state diverges from
// the baseline, a fetched payload differs from the bytes appended, or the
// audit fails — is a test failure in every cell. The one exception is a
// listed known gap: a point or lineage read accepts a payload withheld
// under an occult claim, which only the full audit can refute. Each cell
// is run twice from the same seed and must replay bit-identically.
//
// The audit cells turn the adversary on the auditor itself: each typed
// mutation of a header, time journal, endorsement or occult flag must fail
// the audit, and network faults on the audit's own RPCs must be masked.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "audit/dasein_auditor.h"
#include "client/ledger_client.h"
#include "net/byzantine_transport.h"
#include "net/transport.h"
#include "timestamp/tsa.h"

namespace ledgerdb {
namespace {

constexpr uint64_t kMatrixSeed = 0x1ed9e7db04ull;

struct Cell {
  RpcOp op;
  FaultKind kind;
  uint64_t nth;
};

struct RunResult {
  bool ok = false;
  std::string error;       // status of the first failing step, "" if none
  std::string step;        // which scenario step failed
  std::string fam, clue, state;
  uint64_t journals = 0;
  uint64_t faults = 0;
  std::string content;     // first fetched payload that is not the appended one
  bool dasein_ok = false;  // only meaningful when ok
  std::string dasein_why;

  std::string Fingerprint() const {
    return (ok ? "ok" : "err:" + step + ":" + error) + "|" + fam + "|" + clue +
           "|" + state + "|" + std::to_string(journals) + "|" +
           std::to_string(faults) + "|" + content;
  }
};

class ByzantineMatrixTest : public ::testing::Test {
 protected:
  ByzantineMatrixTest()
      : ca_(KeyPair::FromSeedString("matrix-ca")),
        lsp_(KeyPair::FromSeedString("matrix-lsp")),
        alice_(KeyPair::FromSeedString("matrix-alice")) {}

  /// Runs the fixed scenario with `kind` scheduled at the `nth` occurrence
  /// of `op`. Everything — clock, keys, seed — is held constant so two
  /// runs of the same cell are bit-identical.
  RunResult RunScenario(RpcOp op, FaultKind kind, uint64_t nth) {
    RunResult r;
    SimulatedClock clock(1000 * kMicrosPerSecond);
    MemberRegistry registry(&ca_);
    registry.Register(ca_.Certify("lsp", lsp_.public_key(), Role::kLsp));
    registry.Register(ca_.Certify("alice", alice_.public_key(), Role::kUser));
    LedgerOptions options;
    options.fractal_height = 3;
    options.block_capacity = 4;
    Ledger ledger("lg://matrix", options, &clock, lsp_, &registry);
    LocalTransport local(&ledger);
    ByzantineTransport byz(&local, kMatrixSeed);
    if (kind != FaultKind::kNone) byz.InjectFault(op, nth, kind);

    LedgerClient::Options copts;
    copts.lsp_key = lsp_.public_key();
    copts.fractal_height = options.fractal_height;
    LedgerClient client(&byz, alice_, copts);

    // The scenario touches every RPC op at least once:
    //   refresh, 3 appends (clue "asset"), refresh, verify one journal,
    //   verify the clue lineage, re-check the first receipt.
    uint64_t first_jsn = 0;
    auto check_content = [&](const Journal& journal, int i) {
      if (!r.content.empty() ||
          journal.payload == StringToBytes("tx-" + std::to_string(i))) {
        return;
      }
      r.content = "jsn " + std::to_string(journal.jsn) +
                  (journal.occulted ? " served occulted" : " payload differs");
    };
    Status s;
    auto step = [&](const char* name, Status st) {
      if (r.error.empty() && !st.ok()) {
        r.step = name;
        r.error = st.ToString();
      }
      return st.ok() && r.error.empty();
    };
    bool go = step("refresh-1", client.RefreshTrustedRoots());
    for (int i = 0; go && i < 3; ++i) {
      uint64_t jsn = 0;
      go = step("append",
                client.AppendVerified(StringToBytes("tx-" + std::to_string(i)),
                                      {"asset"}, &jsn));
      if (go && i == 0) first_jsn = jsn;
    }
    if (go) go = step("refresh-2", client.RefreshTrustedRoots());
    if (go) {
      Journal journal;
      go = step("verify-journal", client.FetchAndVerifyJournal(first_jsn,
                                                               &journal));
      if (go) check_content(journal, 0);
    }
    if (go) {
      std::vector<Journal> lineage;
      go = step("verify-lineage",
                client.FetchAndVerifyLineage("asset", &lineage));
      if (go && lineage.size() != 3) {
        r.step = "verify-lineage";
        r.error = "lineage size " + std::to_string(lineage.size());
        go = false;
      }
      for (int i = 0; go && i < 3; ++i) check_content(lineage[i], i);
    }
    if (go) {
      go = step("receipt-recheck",
                client.CheckReceiptStillHolds(client.receipts().front()));
    }
    r.ok = go;
    r.fam = ledger.FamRoot().ToHex();
    r.clue = ledger.ClueRoot().ToHex();
    r.state = ledger.StateRoot().ToHex();
    r.journals = ledger.NumJournals();
    r.faults = byz.faults_injected();

    if (r.ok) {
      // A masked cell must still pass the audit on the post-fault ledger,
      // fetched through an honest transport.
      LocalTransport honest(&ledger);
      DaseinAuditor::Context context;
      context.members = &registry;
      AuditReport dreport;
      DaseinAuditor auditor(&honest, copts, context);
      Status ds = auditor.Audit(client.receipts().back(), {}, &dreport);
      r.dasein_ok = ds.ok() && dreport.passed;
      if (!r.dasein_ok) r.dasein_why = ds.ToString() + dreport.failure_reason;
    }
    return r;
  }

  CertificateAuthority ca_;
  KeyPair lsp_, alice_;
};

const RpcOp kAllOps[] = {
    RpcOp::kAppendTx,   RpcOp::kGetReceipt,    RpcOp::kGetJournal,
    RpcOp::kGetProof,   RpcOp::kGetClueProof,  RpcOp::kListTx,
    RpcOp::kGetCommitment, RpcOp::kGetDelta,
};

const FaultKind kNetworkFaults[] = {
    FaultKind::kDrop, FaultKind::kDelay, FaultKind::kDuplicate,
    FaultKind::kReorder, FaultKind::kTransientError,
};

const FaultKind kMutationFaults[] = {
    FaultKind::kForgeProof, FaultKind::kTruncateProof, FaultKind::kStaleRoot,
    FaultKind::kSubstituteReceipt, FaultKind::kCorruptPayload,
};

std::string CellName(RpcOp op, FaultKind kind, uint64_t nth) {
  return std::string(RpcOpName(op)) + "/" + FaultKindName(kind) + "/#" +
         std::to_string(nth);
}

TEST_F(ByzantineMatrixTest, HonestBaselinePassesBothAudits) {
  RunResult base = RunScenario(RpcOp::kAppendTx, FaultKind::kNone, 0);
  ASSERT_TRUE(base.ok) << base.step << ": " << base.error;
  EXPECT_EQ(base.faults, 0u);
  EXPECT_TRUE(base.dasein_ok) << base.dasein_why;
  EXPECT_EQ(base.content, "");
  EXPECT_EQ(base.journals, 4u);  // genesis + 3 appends
}

TEST_F(ByzantineMatrixTest, NetworkFaultsAreMaskedEverywhere) {
  RunResult base = RunScenario(RpcOp::kAppendTx, FaultKind::kNone, 0);
  ASSERT_TRUE(base.ok) << base.step << ": " << base.error;
  for (RpcOp op : kAllOps) {
    for (FaultKind kind : kNetworkFaults) {
      for (uint64_t nth : {uint64_t{0}, uint64_t{1}}) {
        std::string cell = CellName(op, kind, nth);
        RunResult r = RunScenario(op, kind, nth);
        EXPECT_TRUE(r.ok) << cell << " not masked: " << r.step << ": "
                          << r.error;
        if (!r.ok) continue;
        // Retries must converge on the honest ledger, bit for bit.
        EXPECT_EQ(r.fam, base.fam) << cell;
        EXPECT_EQ(r.clue, base.clue) << cell;
        EXPECT_EQ(r.state, base.state) << cell;
        EXPECT_EQ(r.journals, base.journals) << cell;
        EXPECT_EQ(r.content, "") << cell;
        EXPECT_TRUE(r.dasein_ok) << cell << ": " << r.dasein_why;
      }
    }
  }
}

TEST_F(ByzantineMatrixTest, MutationFaultsAreDetectedOrProvablyHarmless) {
  RunResult base = RunScenario(RpcOp::kAppendTx, FaultKind::kNone, 0);
  ASSERT_TRUE(base.ok) << base.step << ": " << base.error;

  // Cells where detection is structurally guaranteed (hand-checked): the
  // mutated field is load-bearing for a client check on every possible
  // seeded mutation. Other mutation cells may degrade to honest
  // passthrough (typed fault not applicable to the op, or the nth
  // occurrence never happens) — those must be provably harmless instead.
  std::set<std::string> must_detect;
  for (uint64_t nth : {uint64_t{0}, uint64_t{1}}) {
    must_detect.insert(CellName(RpcOp::kAppendTx, FaultKind::kForgeProof, nth));
    must_detect.insert(
        CellName(RpcOp::kAppendTx, FaultKind::kSubstituteReceipt, nth));
    must_detect.insert(
        CellName(RpcOp::kGetReceipt, FaultKind::kForgeProof, nth));
    must_detect.insert(
        CellName(RpcOp::kGetReceipt, FaultKind::kSubstituteReceipt, nth));
    must_detect.insert(
        CellName(RpcOp::kGetJournal, FaultKind::kSubstituteReceipt, nth));
    must_detect.insert(
        CellName(RpcOp::kGetJournal, FaultKind::kCorruptPayload, nth));
    must_detect.insert(
        CellName(RpcOp::kGetCommitment, FaultKind::kForgeProof, nth));
    must_detect.insert(
        CellName(RpcOp::kGetDelta, FaultKind::kTruncateProof, nth));
  }
  must_detect.insert(CellName(RpcOp::kGetProof, FaultKind::kForgeProof, 0));
  must_detect.insert(CellName(RpcOp::kGetProof, FaultKind::kTruncateProof, 0));
  must_detect.insert(
      CellName(RpcOp::kGetClueProof, FaultKind::kTruncateProof, 0));
  must_detect.insert(CellName(RpcOp::kListTx, FaultKind::kForgeProof, 0));
  must_detect.insert(CellName(RpcOp::kListTx, FaultKind::kTruncateProof, 0));
  must_detect.insert(CellName(RpcOp::kGetCommitment, FaultKind::kStaleRoot, 1));
  must_detect.insert(CellName(RpcOp::kGetDelta, FaultKind::kForgeProof, 1));

  // Known gap: a false occult on GetJournal withholds the payload of the
  // point read (#0) or of a lineage entry (#1). The client cannot refute
  // an occult claim without the occult journals, which only the full
  // audit fetches; these cells are listed so that they are not counted
  // as harmless, and so that closing the gap shows here.
  const std::set<std::string> known_gap = {
      CellName(RpcOp::kGetJournal, FaultKind::kTruncateProof, 0),
      CellName(RpcOp::kGetJournal, FaultKind::kTruncateProof, 1)};
  std::set<std::string> gaps;

  int detected = 0, harmless = 0;
  for (RpcOp op : kAllOps) {
    for (FaultKind kind : kMutationFaults) {
      for (uint64_t nth : {uint64_t{0}, uint64_t{1}}) {
        std::string cell = CellName(op, kind, nth);
        RunResult r = RunScenario(op, kind, nth);
        if (!r.ok) {
          ++detected;  // explicit error: detection, never silent
          continue;
        }
        if (must_detect.count(cell)) {
          ADD_FAILURE() << cell << " must be detected but the scenario "
                        << "completed without an error";
          continue;
        }
        if (known_gap.count(cell) &&
            r.content.find(" served occulted") != std::string::npos) {
          gaps.insert(cell);
          continue;
        }
        // The cell claims to be harmless — prove it: bit-identical ledger,
        // the appended payloads served back AND the audit passes. Anything
        // else is silent acceptance.
        ++harmless;
        EXPECT_EQ(r.content, "") << cell << " silently served other bytes";
        EXPECT_EQ(r.fam, base.fam) << cell << " silently diverged";
        EXPECT_EQ(r.clue, base.clue) << cell << " silently diverged";
        EXPECT_EQ(r.state, base.state) << cell << " silently diverged";
        EXPECT_EQ(r.journals, base.journals) << cell << " silently diverged";
        EXPECT_TRUE(r.dasein_ok) << cell << ": " << r.dasein_why;
      }
    }
  }
  // The matrix is 8 ops x 5 mutation kinds x 2 points = 80 cells; the
  // hand-checked floor keeps the detection machinery honest.
  EXPECT_GE(detected, static_cast<int>(must_detect.size()));
  EXPECT_GT(harmless, 0);
  EXPECT_EQ(gaps, known_gap);
}

TEST_F(ByzantineMatrixTest, EveryCellReplaysBitIdenticallyFromItsSeed) {
  for (RpcOp op : kAllOps) {
    for (FaultKind kind : kNetworkFaults) {
      RunResult a = RunScenario(op, kind, 0);
      RunResult b = RunScenario(op, kind, 0);
      EXPECT_EQ(a.Fingerprint(), b.Fingerprint()) << CellName(op, kind, 0);
    }
    for (FaultKind kind : kMutationFaults) {
      RunResult a = RunScenario(op, kind, 0);
      RunResult b = RunScenario(op, kind, 0);
      EXPECT_EQ(a.Fingerprint(), b.Fingerprint()) << CellName(op, kind, 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Audit cells: the adversary serves the Dasein auditor itself.
// ---------------------------------------------------------------------------

/// The audited world: seven appends over several blocks, a TSA time
/// journal, a DBA + regulator occult, and a last append whose receipt
/// (which seals the tail) is the audit's step-5 evidence. The auditor
/// fetches journal n as the nth GetJournal, so a cell aims at a journal
/// by its jsn.
struct AuditWorld {
  AuditWorld() {
    registry.Register(ca.Certify("lsp", lsp.public_key(), Role::kLsp));
    registry.Register(ca.Certify("alice", alice.public_key(), Role::kUser));
    registry.Register(ca.Certify("dba", dba.public_key(), Role::kDba));
    registry.Register(
        ca.Certify("regulator", regulator.public_key(), Role::kRegulator));
    options.fractal_height = 3;
    options.block_capacity = 3;
    ledger = std::make_unique<Ledger>("lg://audit-matrix", options, &clock,
                                      lsp, &registry);
    ledger->AttachDirectTsa(&tsa);
    local = std::make_unique<LocalTransport>(ledger.get());
    LedgerClient client(local.get(), alice, ClientOptions());
    for (int i = 0; i < 7; ++i) {
      uint64_t jsn = 0;
      EXPECT_TRUE(client
                      .AppendVerified(StringToBytes("tx-" + std::to_string(i)),
                                      {"asset"}, &jsn)
                      .ok());
      if (i == 0) normal_jsn = jsn;
    }
    EXPECT_TRUE(ledger->AnchorTime(&time_jsn).ok());
    Digest request = Ledger::OccultRequestHash("lg://audit-matrix", 3);
    std::vector<Endorsement> sigs = {
        {dba.public_key(), dba.Sign(request)},
        {regulator.public_key(), regulator.Sign(request)}};
    EXPECT_TRUE(ledger->Occult(3, sigs, &occult_jsn).ok());
    ledger->ReorganizeOcculted();
    EXPECT_TRUE(client.AppendVerified(StringToBytes("tail"), {"asset"},
                                      nullptr, &receipt)
                    .ok());
  }

  LedgerClient::Options ClientOptions() const {
    LedgerClient::Options copts;
    copts.lsp_key = lsp.public_key();
    copts.fractal_height = options.fractal_height;
    return copts;
  }

  Status Audit(LedgerTransport* via, std::string* why = nullptr) const {
    DaseinAuditor::Context context;
    context.members = &registry;
    context.tsa_key = tsa_key.public_key();
    AuditReport report;
    Status s = DaseinAuditor(via, ClientOptions(), context)
                   .Audit(receipt, {}, &report);
    if (why != nullptr) *why = report.failure_reason;
    return s;
  }

  SimulatedClock clock{1000 * kMicrosPerSecond};
  CertificateAuthority ca{KeyPair::FromSeedString("audit-matrix-ca")};
  MemberRegistry registry{&ca};
  KeyPair lsp = KeyPair::FromSeedString("audit-matrix-lsp");
  KeyPair alice = KeyPair::FromSeedString("audit-matrix-alice");
  KeyPair dba = KeyPair::FromSeedString("audit-matrix-dba");
  KeyPair regulator = KeyPair::FromSeedString("audit-matrix-regulator");
  KeyPair tsa_key = KeyPair::FromSeedString("audit-matrix-tsa");
  TsaService tsa{tsa_key, &clock};
  LedgerOptions options;
  std::unique_ptr<Ledger> ledger;
  std::unique_ptr<LocalTransport> local;
  uint64_t normal_jsn = 0, time_jsn = 0, occult_jsn = 0;
  Receipt receipt;
};

TEST_F(ByzantineMatrixTest, AuditMutationsAreAlwaysDetected) {
  AuditWorld world;
  ASSERT_TRUE(world.Audit(world.local.get()).ok());
  ASSERT_GE(world.ledger->blocks().size(), 4u);
  struct AuditCell {
    Cell cell;
    std::string why;  // the check that must reject it
  };
  // Every mutation of a time journal's bytes served through the transport
  // changes its payload, so the payload digest rejects it before the
  // time-evidence check runs. That check is reached only by committed
  // evidence the auditor does not accept (AuditTest's time-evidence tests).
  const AuditCell cells[] = {
      {{RpcOp::kGetHeaders, FaultKind::kForgeProof, 0},
       "block boundary hash mismatch"},
      {{RpcOp::kGetHeaders, FaultKind::kCorruptPayload, 0},
       "block tx root mismatch"},
      {{RpcOp::kGetHeaders, FaultKind::kStaleRoot, 0},
       "block fam root mismatch"},
      {{RpcOp::kGetHeaders, FaultKind::kTruncateProof, 0},
       "block headers do not tile the journals"},
      {{RpcOp::kGetJournal, FaultKind::kCorruptPayload, world.time_jsn},
       "payload digest mismatch"},
      {{RpcOp::kGetJournal, FaultKind::kForgeSignature, world.occult_jsn},
       "occult endorsement signature invalid"},
      {{RpcOp::kGetJournal, FaultKind::kTruncateProof, world.normal_jsn},
       "journal " + std::to_string(world.normal_jsn) +
           " served as occulted with no occult journal"},
  };
  for (const AuditCell& audit_cell : cells) {
    const Cell& cell = audit_cell.cell;
    const std::string name = CellName(cell.op, cell.kind, cell.nth);
    // Every seed places the typed mutation differently; all must fail,
    // each by the check the cell aims at.
    for (uint64_t seed = 1; seed <= 16; ++seed) {
      ByzantineTransport byz(world.local.get(), seed);
      byz.InjectFault(cell.op, cell.nth, cell.kind);
      std::string why;
      Status s = world.Audit(&byz, &why);
      EXPECT_EQ(byz.faults_injected(), 1u) << name;
      EXPECT_FALSE(s.ok()) << name << " seed " << seed << " accepted";
      EXPECT_EQ(why.rfind(audit_cell.why, 0), 0u)
          << name << " seed " << seed << " failed with: " << why;
    }
  }
}

TEST_F(ByzantineMatrixTest, NetworkFaultsOnAuditRpcsAreMasked) {
  AuditWorld world;
  for (RpcOp op : {RpcOp::kGetCommitment, RpcOp::kGetDelta,
                   RpcOp::kGetJournal, RpcOp::kGetHeaders}) {
    for (FaultKind kind : kNetworkFaults) {
      for (uint64_t nth : {uint64_t{0}, world.time_jsn}) {
        ByzantineTransport byz(world.local.get(), kMatrixSeed);
        byz.InjectFault(op, nth, kind);
        Status s = world.Audit(&byz);
        EXPECT_TRUE(s.ok()) << CellName(op, kind, nth) << ": "
                            << s.ToString();
      }
    }
  }
}

}  // namespace
}  // namespace ledgerdb
