#include <gtest/gtest.h>

#include <map>

#include "audit/dasein_auditor.h"
#include "ledger/ledger.h"

namespace ledgerdb {
namespace {

/// Randomized state-machine test: applies a random operation sequence
/// (appends with clues, block seals, occults, purges, time anchors,
/// erasure reorganization, and mid-sequence crash/recovery) to a
/// persistent ledger, mirroring every effect in a plain reference model.
/// After every operation a set of invariants must hold; after the
/// sequence, the full Dasein audit must pass.
class StateMachineTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  struct ModelJournal {
    std::string payload;
    std::vector<std::string> clues;
    bool occulted = false;
    bool internal = false;  // LSP-authored (genesis/time/purge/...)
  };

  StateMachineTest()
      : rng_(GetParam()),
        clock_(0),
        ca_(KeyPair::FromSeedString("sm-ca")),
        registry_(&ca_),
        lsp_(KeyPair::FromSeedString("sm-lsp")),
        user_(KeyPair::FromSeedString("sm-user")),
        dba_(KeyPair::FromSeedString("sm-dba")),
        regulator_(KeyPair::FromSeedString("sm-reg")),
        tsa_(KeyPair::FromSeedString("sm-tsa"), &clock_) {
    registry_.Register(ca_.Certify("lsp", lsp_.public_key(), Role::kLsp));
    registry_.Register(ca_.Certify("user", user_.public_key(), Role::kUser));
    registry_.Register(ca_.Certify("dba", dba_.public_key(), Role::kDba));
    registry_.Register(ca_.Certify("reg", regulator_.public_key(), Role::kRegulator));
    options_.fractal_height = 3;
    options_.block_capacity = 5;
    ledger_ = std::make_unique<Ledger>("lg://sm", options_, &clock_, lsp_,
                                       &registry_, Storage());
    ledger_->AttachDirectTsa(&tsa_);
    model_[0] = {"", {}, false, true};  // genesis
  }

  LedgerStorage Storage() { return {&journal_stream_, &block_stream_}; }

  void OpAppend() {
    ClientTransaction tx;
    tx.ledger_uri = "lg://sm";
    std::vector<std::string> clues;
    if (rng_.Uniform(2) == 0) {
      clues.push_back("clue-" + std::to_string(rng_.Uniform(5)));
    }
    tx.clues = clues;
    tx.payload = StringToBytes("payload-" + std::to_string(op_counter_));
    tx.nonce = op_counter_;
    tx.client_ts = clock_.Now();
    tx.Sign(user_);
    uint64_t jsn = 0;
    ASSERT_TRUE(ledger_->Append(tx, &jsn).ok());
    model_[jsn] = {"payload-" + std::to_string(op_counter_), clues, false, false};
    for (const std::string& clue : clues) clue_model_[clue].push_back(jsn);
  }

  void OpOccult() {
    // Pick a random live normal journal.
    std::vector<uint64_t> candidates;
    for (const auto& [jsn, mj] : model_) {
      if (!mj.internal && !mj.occulted && jsn >= purged_boundary_) {
        candidates.push_back(jsn);
      }
    }
    if (candidates.empty()) return;
    uint64_t target = candidates[rng_.Uniform(candidates.size())];
    Digest req = Ledger::OccultRequestHash("lg://sm", target);
    std::vector<Endorsement> sigs = {{dba_.public_key(), dba_.Sign(req)},
                                     {regulator_.public_key(), regulator_.Sign(req)}};
    uint64_t oj = 0;
    ASSERT_TRUE(ledger_->Occult(target, sigs, &oj).ok());
    model_[target].occulted = true;
    model_[oj] = {"", {}, false, true};
  }

  void OpPurge() {
    uint64_t limit = ledger_->NumJournals();
    if (limit <= purged_boundary_ + 3) return;
    uint64_t point = purged_boundary_ + 1 + rng_.Uniform(limit - purged_boundary_ - 1);
    Digest req = Ledger::PurgeRequestHash("lg://sm", point);
    std::vector<Endorsement> sigs = {{dba_.public_key(), dba_.Sign(req)},
                                     {user_.public_key(), user_.Sign(req)}};
    Status s = ledger_->Purge(point, sigs, {}, nullptr);
    ASSERT_TRUE(s.ok()) << s.ToString();
    for (uint64_t jsn = purged_boundary_; jsn < point; ++jsn) model_.erase(jsn);
    purged_boundary_ = point;
    // The purge appended a pseudo-genesis + purge journal.
    model_[ledger_->NumJournals() - 2] = {"", {}, false, true};
    model_[ledger_->NumJournals() - 1] = {"", {}, false, true};
  }

  void OpAnchor() {
    uint64_t tj = 0;
    ASSERT_TRUE(ledger_->AnchorTime(&tj).ok());
    model_[tj] = {"", {}, false, true};
  }

  void OpRecover() {
    ledger_->SealBlock();
    Digest fam_root = ledger_->FamRoot();
    Digest clue_root = ledger_->ClueRoot();
    ledger_.reset();  // crash
    std::unique_ptr<Ledger> recovered;
    Status s = Ledger::Recover("lg://sm", options_, &clock_, lsp_, &registry_,
                               Storage(), &recovered);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ledger_ = std::move(recovered);
    ledger_->AttachDirectTsa(&tsa_);
    EXPECT_EQ(ledger_->FamRoot(), fam_root);
    EXPECT_EQ(ledger_->ClueRoot(), clue_root);
  }

  void CheckInvariants() {
    // Model equivalence on a random sample of journals.
    for (int i = 0; i < 5; ++i) {
      if (ledger_->NumJournals() == 0) break;
      uint64_t jsn = rng_.Uniform(ledger_->NumJournals());
      Journal journal;
      Status s = ledger_->GetJournal(jsn, &journal);
      auto it = model_.find(jsn);
      if (it == model_.end()) {
        EXPECT_TRUE(s.IsNotFound()) << "jsn " << jsn << " should be purged";
        continue;
      }
      ASSERT_TRUE(s.ok()) << "jsn " << jsn << ": " << s.ToString();
      if (!it->second.internal) {
        EXPECT_EQ(journal.occulted, it->second.occulted) << jsn;
        if (!it->second.occulted) {
          EXPECT_EQ(journal.payload, StringToBytes(it->second.payload)) << jsn;
        } else {
          EXPECT_TRUE(journal.payload.empty()) << jsn;
        }
      }
      // Every resolvable journal proves against the live root.
      FamProof proof;
      ASSERT_TRUE(ledger_->GetProof(jsn, &proof).ok());
      EXPECT_TRUE(Ledger::VerifyJournalProof(journal, proof, ledger_->FamRoot()))
          << jsn;
    }
    // Clue postings match the model.
    for (const auto& [clue, jsns] : clue_model_) {
      std::vector<uint64_t> listed;
      ASSERT_TRUE(ledger_->ListTx(clue, &listed).ok()) << clue;
      EXPECT_EQ(listed, jsns) << clue;
    }
  }

  Random rng_;
  SimulatedClock clock_;
  CertificateAuthority ca_;
  MemberRegistry registry_;
  KeyPair lsp_, user_, dba_, regulator_;
  TsaService tsa_;
  LedgerOptions options_;
  MemoryStreamStore journal_stream_, block_stream_;
  std::unique_ptr<Ledger> ledger_;
  std::map<uint64_t, ModelJournal> model_;
  std::map<std::string, std::vector<uint64_t>> clue_model_;
  uint64_t purged_boundary_ = 0;
  uint64_t op_counter_ = 0;
};

TEST_P(StateMachineTest, RandomOperationSequenceHoldsInvariants) {
  const int kOps = 120;
  for (int op = 0; op < kOps; ++op) {
    ++op_counter_;
    clock_.Advance(rng_.Range(1, 2000) * kMicrosPerMilli);
    switch (rng_.Uniform(12)) {
      case 0:
        OpOccult();
        break;
      case 1:
        if (op > 20) OpPurge();
        break;
      case 2:
        OpAnchor();
        break;
      case 3:
        ledger_->SealBlock();
        break;
      case 4:
        ledger_->ReorganizeOcculted();
        break;
      case 5:
        if (op > 10) OpRecover();
        break;
      default:
        OpAppend();
        break;
    }
    if (op % 10 == 0) CheckInvariants();
  }
  CheckInvariants();

  // The full Dasein audit passes at the end of every random history.
  ledger_->ReorganizeOcculted();
  Receipt receipt;
  ASSERT_TRUE(ledger_->GetReceipt(ledger_->NumJournals() - 1, &receipt).ok());
  LocalTransport transport(ledger_.get());
  LedgerClient::Options copts;
  copts.lsp_key = ledger_->lsp_key();
  copts.fractal_height = options_.fractal_height;
  DaseinAuditor::Context context;
  context.members = &registry_;
  context.tsa_key = tsa_.public_key();
  AuditReport report;
  Status s =
      DaseinAuditor(&transport, copts, context).Audit(receipt, {}, &report);
  ASSERT_TRUE(s.ok()) << report.failure_reason;
  EXPECT_TRUE(report.passed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StateMachineTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

}  // namespace
}  // namespace ledgerdb
