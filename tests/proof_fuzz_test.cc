// Deterministic proof-plane fuzzer: every wire format a client accepts
// evidence through is mutated field-by-field (every bit of every byte),
// truncated at every length, extended, and bombarded with seeded junk.
//
// Properties enforced per mutant:
//   1. Deserialize is total — no crash, no hang (the byzantine ctest label
//      runs this under ASan/UBSan and TSan in CI).
//   2. Decodable mutants re-serialize bit-identically (canonical wire
//      format: no encoding malleability).
//   3. A mutant that decodes must FAIL the client-side acceptance check
//      for its context. For signed evidence the kill rate must be 100%
//      (the signature covers every field). For unsigned Merkle/MPT proofs
//      a small slack is tolerated for metadata fields that are bound
//      contextually at a higher layer (e.g. a fam epoch link's own
//      leaf-index labels) — the accepted mutant still proves the same
//      statement, so the slack is soundness-neutral; the floor keeps the
//      verifiers honest about everything else.
//
// Bounded for tier-1: LEDGERDB_PROOF_FUZZ_ROUNDS (junk rounds per type,
// default 200) and LEDGERDB_PROOF_FUZZ_SEED override the defaults.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "accum/fam.h"
#include "accum/shrubs.h"
#include "client/ledger_client.h"
#include "cmtree/cm_tree.h"
#include "common/random.h"
#include "net/transport.h"
#include "timestamp/t_ledger.h"
#include "timestamp/tsa.h"

namespace ledgerdb {
namespace {

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

uint64_t FuzzSeed() { return EnvU64("LEDGERDB_PROOF_FUZZ_SEED", 20260806); }
uint64_t FuzzRounds() { return EnvU64("LEDGERDB_PROOF_FUZZ_ROUNDS", 200); }

/// Flips every bit of every byte of `original`; each mutant must fail to
/// decode or fail `accept`, and decodable mutants must be canonical.
/// `min_kill` is the required (decode-fail + rejected) / mutants ratio.
template <typename T, typename AcceptFn>
void FuzzEveryByte(const std::string& name, const Bytes& original,
                   AcceptFn accept, double min_kill) {
  ASSERT_FALSE(original.empty()) << name;
  {
    T pristine;
    ASSERT_TRUE(T::Deserialize(original, &pristine)) << name;
    ASSERT_TRUE(accept(pristine)) << name << ": pristine encoding rejected";
    ASSERT_EQ(pristine.Serialize(), original) << name << ": non-canonical";
  }
  uint64_t mutants = 0, killed = 0;
  std::string survivors;
  for (size_t i = 0; i < original.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes mutated = original;
      mutated[i] ^= static_cast<uint8_t>(1u << bit);
      ++mutants;
      T out;
      if (!T::Deserialize(mutated, &out)) {
        ++killed;
        continue;
      }
      EXPECT_EQ(out.Serialize(), mutated)
          << name << ": decodable mutant at byte " << i << " bit " << bit
          << " is non-canonical";
      if (!accept(out)) {
        ++killed;
      } else if (survivors.size() < 128) {
        survivors += " " + std::to_string(i) + ":" + std::to_string(bit);
      }
    }
  }
  double kill = static_cast<double>(killed) / static_cast<double>(mutants);
  EXPECT_GE(kill, min_kill) << name << ": accepted mutants at byte:bit ->"
                            << survivors;
}

/// Every proper prefix must fail to decode (all formats carry explicit
/// counts and check full consumption), as must junk-extended encodings.
template <typename T>
void FuzzTruncateAndExtend(const std::string& name, const Bytes& original) {
  for (size_t len = 0; len < original.size(); ++len) {
    Bytes prefix(original.begin(), original.begin() + len);
    T out;
    EXPECT_FALSE(T::Deserialize(prefix, &out))
        << name << ": truncation to " << len << " bytes decoded";
  }
  Random rng(FuzzSeed());
  for (int extra = 1; extra <= 4; ++extra) {
    Bytes extended = original;
    for (int i = 0; i < extra; ++i) {
      extended.push_back(static_cast<uint8_t>(rng.Uniform(256)));
    }
    T out;
    EXPECT_FALSE(T::Deserialize(extended, &out))
        << name << ": trailing junk accepted";
  }
}

/// Seeded junk: decoders must be total on arbitrary input.
template <typename T>
void FuzzJunk(const std::string& name, size_t max_len) {
  Random rng(FuzzSeed() ^ std::hash<std::string>{}(name));
  uint64_t rounds = FuzzRounds();
  for (uint64_t round = 0; round < rounds; ++round) {
    Bytes junk(rng.Uniform(max_len + 1));
    for (auto& b : junk) b = static_cast<uint8_t>(rng.Uniform(256));
    T out;
    (void)T::Deserialize(junk, &out);  // must not crash; outcome free
  }
}

class ProofPlaneFuzz : public ::testing::Test {
 protected:
  ProofPlaneFuzz()
      : clock_(1000 * kMicrosPerSecond),
        ca_(KeyPair::FromSeedString("fuzz-ca")),
        registry_(&ca_),
        lsp_(KeyPair::FromSeedString("fuzz-lsp")),
        alice_(KeyPair::FromSeedString("fuzz-alice")),
        tsa_key_(KeyPair::FromSeedString("fuzz-tsa")),
        tsa_(tsa_key_, &clock_) {
    registry_.Register(ca_.Certify("lsp", lsp_.public_key(), Role::kLsp));
    registry_.Register(ca_.Certify("alice", alice_.public_key(), Role::kUser));
    options_.fractal_height = 3;
    options_.block_capacity = 4;
    ledger_ = std::make_unique<Ledger>("lg://fuzz", options_, &clock_, lsp_,
                                       &registry_);
    transport_ = std::make_unique<LocalTransport>(ledger_.get());
    LedgerClient::Options copts;
    copts.lsp_key = lsp_.public_key();
    copts.fractal_height = options_.fractal_height;
    client_ = std::make_unique<LedgerClient>(transport_.get(), alice_, copts);
    for (int i = 0; i < 3; ++i) {
      uint64_t jsn = 0;
      EXPECT_TRUE(client_
                      ->AppendVerified(StringToBytes("tx-" + std::to_string(i)),
                                       {"asset"}, &jsn)
                      .ok());
      Journal journal;
      EXPECT_TRUE(ledger_->GetJournal(jsn, &journal).ok());
      asset_digests_.push_back(journal.TxHash());
    }
    EXPECT_TRUE(client_->RefreshTrustedRoots().ok());
  }

  SimulatedClock clock_;
  CertificateAuthority ca_;
  MemberRegistry registry_;
  KeyPair lsp_, alice_, tsa_key_;
  TsaService tsa_;
  LedgerOptions options_;
  std::unique_ptr<Ledger> ledger_;
  std::unique_ptr<LocalTransport> transport_;
  std::unique_ptr<LedgerClient> client_;
  std::vector<Digest> asset_digests_;
};

TEST_F(ProofPlaneFuzz, MembershipProofEveryByte) {
  ShrubsAccumulator acc;
  std::vector<Digest> leaves;
  for (int i = 0; i < 5; ++i) {
    leaves.push_back(Sha256::Hash(StringToBytes("leaf-" + std::to_string(i))));
    acc.Append(leaves.back());
  }
  MembershipProof proof;
  ASSERT_TRUE(acc.GetProof(2, &proof).ok());
  Digest root = acc.Root();
  auto accept = [&](const MembershipProof& m) {
    // leaf position and size are pinned by the caller's context (the fam
    // layer derives them from the jsn), not trusted from the proof.
    return m.leaf_index == proof.leaf_index && m.tree_size == proof.tree_size &&
           ShrubsAccumulator::VerifyProof(leaves[2], m, root);
  };
  FuzzEveryByte<MembershipProof>("MembershipProof", proof.Serialize(), accept,
                                 1.0);
  FuzzTruncateAndExtend<MembershipProof>("MembershipProof", proof.Serialize());
  FuzzJunk<MembershipProof>("MembershipProof", 256);
}

TEST_F(ProofPlaneFuzz, BatchProofEveryByte) {
  ShrubsAccumulator acc;
  std::vector<Digest> leaves;
  for (int i = 0; i < 6; ++i) {
    leaves.push_back(Sha256::Hash(StringToBytes("bleaf-" + std::to_string(i))));
    acc.Append(leaves.back());
  }
  BatchProof proof;
  ASSERT_TRUE(acc.GetBatchProof({1, 3, 4}, &proof).ok());
  std::vector<Digest> targets = {leaves[1], leaves[3], leaves[4]};
  Digest root = acc.Root();
  auto accept = [&](const BatchProof& m) {
    return m.tree_size == proof.tree_size &&
           m.leaf_indices == proof.leaf_indices &&
           ShrubsAccumulator::VerifyBatchProof(targets, m, root);
  };
  FuzzEveryByte<BatchProof>("BatchProof", proof.Serialize(), accept, 1.0);
  FuzzTruncateAndExtend<BatchProof>("BatchProof", proof.Serialize());
  FuzzJunk<BatchProof>("BatchProof", 512);
}

TEST_F(ProofPlaneFuzz, FamProofEveryByte) {
  const uint64_t jsn = 1;
  Journal journal;
  FamProof proof;
  ASSERT_TRUE(ledger_->GetJournal(jsn, &journal).ok());
  ASSERT_TRUE(transport_->GetProof(jsn, &proof).ok());
  Digest root = ledger_->FamRoot();
  uint64_t expected_epoch = 0, expected_leaf = 0;
  FamAccumulator::ExpectedLocation(options_.fractal_height, jsn,
                                   &expected_epoch, &expected_leaf);
  auto accept = [&](const FamProof& m) {
    return m.jsn == jsn && m.epoch == expected_epoch &&
           m.target_epoch == proof.target_epoch &&
           m.local.leaf_index == expected_leaf &&
           m.local.tree_size == proof.local.tree_size &&
           Ledger::VerifyJournalProof(journal, m, root);
  };
  // Nested epoch-link label slack is tolerated (bound contextually by the
  // link chain itself); everything else must kill.
  FuzzEveryByte<FamProof>("FamProof", proof.Serialize(), accept, 0.95);
  FuzzTruncateAndExtend<FamProof>("FamProof", proof.Serialize());
  FuzzJunk<FamProof>("FamProof", 1024);
}

TEST_F(ProofPlaneFuzz, ClueProofEveryByte) {
  ClueProof proof;
  ASSERT_TRUE(transport_->GetClueProof("asset", 0, 0, &proof).ok());
  Digest root = ledger_->ClueRoot();
  auto accept = [&](const ClueProof& m) {
    return m.clue == "asset" && m.entry_count == asset_digests_.size() &&
           CmTree::VerifyClueProof(root, asset_digests_, m);
  };
  FuzzEveryByte<ClueProof>("ClueProof", proof.Serialize(), accept, 0.95);
  FuzzTruncateAndExtend<ClueProof>("ClueProof", proof.Serialize());
  FuzzJunk<ClueProof>("ClueProof", 1024);
}

TEST_F(ProofPlaneFuzz, FamBatchProofEveryByte) {
  // Cross the epoch boundary (fractal_height 3 => epoch 0 seals after 8
  // journals) so the batched format carries two groups AND a link chain.
  for (int i = 3; i < 9; ++i) {
    ASSERT_TRUE(client_
                    ->AppendVerified(StringToBytes("tx-" + std::to_string(i)),
                                     {"asset"}, nullptr)
                    .ok());
  }
  std::vector<uint64_t> jsns = {1, 3, 8};
  std::vector<Digest> digests;
  for (uint64_t jsn : jsns) {
    Journal journal;
    ASSERT_TRUE(ledger_->GetJournal(jsn, &journal).ok());
    digests.push_back(journal.TxHash());
  }
  FamBatchProof proof;
  ASSERT_TRUE(transport_->GetProofBatch(jsns, &proof).ok());
  ASSERT_EQ(proof.groups.size(), 2u);
  ASSERT_EQ(proof.epoch_links.size(), 1u);
  Digest root = ledger_->FamRoot();
  auto accept = [&](const FamBatchProof& m) {
    return m.target_epoch == proof.target_epoch &&
           FamAccumulator::VerifyBatchProof(options_.fractal_height, jsns,
                                            digests, m, root);
  };
  // Same nested-link label slack as FamProof; the verifier derives every
  // position from the jsns, so structural fields must all kill.
  FuzzEveryByte<FamBatchProof>("FamBatchProof", proof.Serialize(), accept,
                               0.95);
  FuzzTruncateAndExtend<FamBatchProof>("FamBatchProof", proof.Serialize());
  FuzzJunk<FamBatchProof>("FamBatchProof", 2048);
}

TEST_F(ProofPlaneFuzz, ClueRangeResultEveryByte) {
  const Timestamp from = 0;
  const Timestamp to = clock_.Now() + 1;
  ClueRangeResult result;
  ASSERT_TRUE(transport_->ProveClueRange("asset", from, to, &result).ok());
  ASSERT_EQ(result.journals.size(), asset_digests_.size());
  Digest clue_root = client_->trusted_clue_root();
  Digest fam_root = client_->trusted_fam_root();
  Bytes original = result.Serialize();
  // The client's own acceptance rule for a ProveClueRange reply.
  auto accept = [&](const ClueRangeResult& m) {
    if (!LedgerClient::VerifyClueRange(m, "asset", from, to,
                                       options_.fractal_height, clue_root,
                                       fam_root)
             .ok()) {
      return false;
    }
    // Presentation-flag mutants that leave every verified byte unchanged
    // (same rationale as JournalEveryByte) count as killed.
    bool equivalent = true;
    for (size_t i = 0; i < m.journals.size(); ++i) {
      if (!(m.journals[i].payload == result.journals[i].payload)) {
        equivalent = false;
      }
    }
    return m.Serialize() == original || !equivalent;
  };
  FuzzEveryByte<ClueRangeResult>("ClueRangeResult", original, accept, 0.95);
  FuzzTruncateAndExtend<ClueRangeResult>("ClueRangeResult", original);
  FuzzJunk<ClueRangeResult>("ClueRangeResult", 4096);
}

TEST_F(ProofPlaneFuzz, ReceiptEveryByte) {
  ASSERT_FALSE(client_->receipts().empty());
  const Receipt& receipt = client_->receipts().front();
  auto accept = [&](const Receipt& m) { return m.Verify(lsp_.public_key()); };
  FuzzEveryByte<Receipt>("Receipt", receipt.Serialize(), accept, 1.0);
  FuzzTruncateAndExtend<Receipt>("Receipt", receipt.Serialize());
  FuzzJunk<Receipt>("Receipt", 256);
}

TEST_F(ProofPlaneFuzz, SignedCommitmentEveryByte) {
  SignedCommitment c;
  ASSERT_TRUE(transport_->GetCommitment(&c).ok());
  auto accept = [&](const SignedCommitment& m) {
    return m.Verify(lsp_.public_key());
  };
  FuzzEveryByte<SignedCommitment>("SignedCommitment", c.Serialize(), accept,
                                  1.0);
  FuzzTruncateAndExtend<SignedCommitment>("SignedCommitment", c.Serialize());
  FuzzJunk<SignedCommitment>("SignedCommitment", 256);
}

TEST_F(ProofPlaneFuzz, ClientTransactionEveryByte) {
  ClientTransaction tx;
  tx.ledger_uri = "lg://fuzz";
  tx.clues = {"asset"};
  tx.payload = StringToBytes("fuzz-payload");
  tx.nonce = 42;
  tx.Sign(alice_);
  auto accept = [&](const ClientTransaction& m) {
    return m.ledger_uri == "lg://fuzz" && m.VerifyClientSignature();
  };
  FuzzEveryByte<ClientTransaction>("ClientTransaction", tx.Serialize(), accept,
                                   1.0);
  FuzzTruncateAndExtend<ClientTransaction>("ClientTransaction", tx.Serialize());
  FuzzJunk<ClientTransaction>("ClientTransaction", 512);
}

TEST_F(ProofPlaneFuzz, JournalEveryByte) {
  const uint64_t jsn = 1;
  Journal journal;
  FamProof proof;
  ASSERT_TRUE(ledger_->GetJournal(jsn, &journal).ok());
  ASSERT_TRUE(transport_->GetProof(jsn, &proof).ok());
  Digest root = ledger_->FamRoot();
  Digest true_tx_hash = journal.TxHash();
  Bytes original = journal.Serialize();
  auto accept = [&](const Journal& m) {
    // The client's own acceptance rule for a fetched journal...
    if (!LedgerClient::VerifyJournalAt(m, jsn, proof, options_.fractal_height,
                                       root)
             .ok()) {
      return false;
    }
    // ...where a MUTANT whose tx-hash AND payload are unchanged (e.g. a
    // flipped `occulted` presentation flag) is semantically the same
    // record: count it as killed, the adversary gained nothing.
    bool equivalent =
        m.TxHash() == true_tx_hash && m.payload == journal.payload;
    return m.Serialize() == original || !equivalent;
  };
  FuzzEveryByte<Journal>("Journal", original, accept, 1.0);
  FuzzTruncateAndExtend<Journal>("Journal", journal.Serialize());
  FuzzJunk<Journal>("Journal", 512);
}

TEST_F(ProofPlaneFuzz, JournalDeltaEveryByte) {
  std::vector<JournalDelta> deltas;
  ASSERT_TRUE(transport_->GetDelta(1, 2, &deltas).ok());
  ASSERT_EQ(deltas.size(), 1u);
  // Deltas carry no signature — acceptance is the mirror replay
  // reproducing the committed roots (exercised by the matrix test), which
  // consumes exactly this tuple. A mutant is accepted only if the tuple
  // the mirror feeds on is unchanged — impossible for a canonical
  // encoding, so the kill floor is exact.
  const JournalDelta& orig = deltas[0];
  auto accept = [&](const JournalDelta& m) {
    return m.tx_hash == orig.tx_hash &&
           m.payload_digest == orig.payload_digest && m.clues == orig.clues;
  };
  FuzzEveryByte<JournalDelta>("JournalDelta", deltas[0].Serialize(), accept,
                              1.0);
  FuzzTruncateAndExtend<JournalDelta>("JournalDelta", deltas[0].Serialize());
  FuzzJunk<JournalDelta>("JournalDelta", 256);
}

TEST_F(ProofPlaneFuzz, TimeAttestationEveryByte) {
  TimeAttestation att = tsa_.Endorse(Sha256::Hash(StringToBytes("pegged")));
  auto accept = [&](const TimeAttestation& m) {
    return m.Verify(tsa_key_.public_key());
  };
  FuzzEveryByte<TimeAttestation>("TimeAttestation", att.Serialize(), accept,
                                 1.0);
  FuzzTruncateAndExtend<TimeAttestation>("TimeAttestation", att.Serialize());
  FuzzJunk<TimeAttestation>("TimeAttestation", 256);
}

TEST_F(ProofPlaneFuzz, TimeProofEveryByte) {
  TLedger tledger(&tsa_, &clock_, KeyPair::FromSeedString("fuzz-tlsp"), {});
  Digest digest = Sha256::Hash(StringToBytes("when"));
  TLedgerReceipt receipt;
  ASSERT_TRUE(tledger.Submit(digest, clock_.Now(), &receipt).ok());
  tledger.ForceFinalize();
  TimeProof proof;
  ASSERT_TRUE(tledger.GetTimeProof(0, &proof).ok());
  auto accept = [&](const TimeProof& m) {
    return m.index == proof.index && m.tledger_ts == proof.tledger_ts &&
           m.finalized_size == proof.finalized_size &&
           TLedger::VerifyTimeProof(digest, m, tsa_key_.public_key());
  };
  FuzzEveryByte<TimeProof>("TimeProof", proof.Serialize(), accept, 0.9);
  FuzzTruncateAndExtend<TimeProof>("TimeProof", proof.Serialize());
  FuzzJunk<TimeProof>("TimeProof", 512);
}

}  // namespace
}  // namespace ledgerdb
