// Deterministic proof-plane fuzzer: every wire format a client accepts
// evidence through is mutated field-by-field (every bit of every byte),
// truncated at every length, extended, and bombarded with seeded junk.
//
// The formats live in one registry (Registry() below). Each entry names a
// format, builds an honest sample from a live ledger, and pairs the
// format's decoder with the client-side acceptance check for that sample.
// One loop (RunEntry) applies every property to every entry, and each
// entry runs as its own test, ProofPlaneFuzz.<Format>EveryByte.
//
// Properties enforced per mutant:
//   1. Deserialize is total — no crash, no hang (the byzantine ctest label
//      runs this under ASan/UBSan and TSan in CI).
//   2. Decodable mutants re-serialize bit-identically (canonical wire
//      format: no encoding malleability).
//   3. A mutant that decodes must FAIL the client-side acceptance check
//      for its context. The entry's kill floor is the required share of
//      mutants that fail to decode or are rejected. For signed evidence
//      it is 1.0 (the signature covers every field). For unsigned
//      Merkle/MPT proofs a small slack is tolerated for metadata fields
//      that are bound contextually at a higher layer (e.g. a fam epoch
//      link's own leaf-index labels) — the accepted mutant still proves the
//      same statement, so the slack is soundness-neutral; the floor keeps
//      the verifiers honest about everything else. An entry without an
//      acceptance check has no floor and gets properties 1 and 2 only.
//
// Bounded for tier-1: LEDGERDB_PROOF_FUZZ_ROUNDS (junk rounds per type,
// default 200) and LEDGERDB_PROOF_FUZZ_SEED override the defaults.

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "accum/fam.h"
#include "accum/shrubs.h"
#include "client/ledger_client.h"
#include "cmtree/cm_tree.h"
#include "common/random.h"
#include "net/transport.h"
#include "storage/checkpoint.h"
#include "storage/env.h"
#include "storage/stream_store.h"
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

/// What one format's decoder and acceptance check made of one input.
struct Outcome {
  bool decoded = false;
  Bytes reencoded;  ///< Serialize() of the decoded value
  bool accepted = false;
};

/// An honest encoding plus the type-erased decode-and-accept step for it.
struct Sample {
  Bytes honest;
  std::function<Outcome(const Bytes&)> run;
};

/// Binds T's codec to `accept`, the client's acceptance rule for the
/// sample's context (null for a format fuzzed on the decode side only).
template <typename T>
Sample MakeSample(Bytes honest, std::function<bool(const T&)> accept) {
  return {std::move(honest), [accept = std::move(accept)](const Bytes& raw) {
            Outcome outcome;
            T value;
            outcome.decoded = T::Deserialize(raw, &value);
            if (outcome.decoded) {
              outcome.reencoded = value.Serialize();
              outcome.accepted = accept != nullptr && accept(value);
            }
            return outcome;
          }};
}

/// The world every sample is built from: a ledger with three verified
/// appends on clue "asset", reached through the frame loopback.
class ProofPlaneFuzz : public ::testing::Test {
 public:
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

  /// Appends journals tx-<from>..tx-<to - 1> through the client.
  void AppendMore(int from, int to) {
    for (int i = from; i < to; ++i) {
      ASSERT_TRUE(client_
                      ->AppendVerified(StringToBytes("tx-" + std::to_string(i)),
                                       {"asset"}, nullptr)
                      .ok());
    }
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

/// One fuzzed format. `build` makes the honest sample and its acceptance
/// rule from a fresh ProofPlaneFuzz world (it may add journals).
struct FuzzEntry {
  const char* name;
  std::function<Sample(ProofPlaneFuzz*)> build;
  /// Required share of killed mutants; nullopt for a format without an
  /// acceptance check of its own.
  std::optional<double> kill_floor;
  size_t junk_max_len;
};

/// Every fuzzed format. A new wire shape gets every-byte mutation,
/// truncation, extension and junk by adding one entry here.
const std::vector<FuzzEntry>& Registry() {
  static const std::vector<FuzzEntry> entries = {
      {"MembershipProof",
       [](ProofPlaneFuzz*) {
         ShrubsAccumulator acc;
         std::vector<Digest> leaves;
         for (int i = 0; i < 5; ++i) {
           leaves.push_back(
               Sha256::Hash(StringToBytes("leaf-" + std::to_string(i))));
           acc.Append(leaves.back());
         }
         MembershipProof proof;
         EXPECT_TRUE(acc.GetProof(2, &proof).ok());
         // Leaf position and size are pinned by the caller's context (the
         // fam layer derives them from the jsn), not trusted from the proof.
         return MakeSample<MembershipProof>(
             proof.Serialize(),
             [proof, leaf = leaves[2], root = acc.Root()](
                 const MembershipProof& m) {
               return m.leaf_index == proof.leaf_index &&
                      m.tree_size == proof.tree_size &&
                      ShrubsAccumulator::VerifyProof(leaf, m, root);
             });
       },
       1.0, 256},
      {"BatchProof",
       [](ProofPlaneFuzz*) {
         ShrubsAccumulator acc;
         std::vector<Digest> leaves;
         for (int i = 0; i < 6; ++i) {
           leaves.push_back(
               Sha256::Hash(StringToBytes("bleaf-" + std::to_string(i))));
           acc.Append(leaves.back());
         }
         BatchProof proof;
         EXPECT_TRUE(acc.GetBatchProof({1, 3, 4}, &proof).ok());
         std::vector<Digest> targets = {leaves[1], leaves[3], leaves[4]};
         return MakeSample<BatchProof>(
             proof.Serialize(),
             [proof, targets, root = acc.Root()](const BatchProof& m) {
               return m.tree_size == proof.tree_size &&
                      m.leaf_indices == proof.leaf_indices &&
                      ShrubsAccumulator::VerifyBatchProof(targets, m, root);
             });
       },
       1.0, 512},
      {"FamProof",
       [](ProofPlaneFuzz* w) {
         const uint64_t jsn = 1;
         Journal journal;
         FamProof proof;
         EXPECT_TRUE(w->ledger_->GetJournal(jsn, &journal).ok());
         EXPECT_TRUE(w->transport_->GetProof(jsn, &proof).ok());
         uint64_t epoch = 0, leaf = 0;
         FamAccumulator::ExpectedLocation(w->options_.fractal_height, jsn,
                                          &epoch, &leaf);
         return MakeSample<FamProof>(
             proof.Serialize(), [=, root = w->ledger_->FamRoot()](
                                    const FamProof& m) {
               return m.jsn == jsn && m.epoch == epoch &&
                      m.target_epoch == proof.target_epoch &&
                      m.local.leaf_index == leaf &&
                      m.local.tree_size == proof.local.tree_size &&
                      Ledger::VerifyJournalProof(journal, m, root);
             });
       },
       // Nested epoch-link label slack is tolerated (bound contextually by
       // the link chain itself); everything else must kill.
       0.95, 1024},
      {"ClueProof",
       [](ProofPlaneFuzz* w) {
         ClueProof proof;
         EXPECT_TRUE(w->transport_->GetClueProof("asset", 0, 0, &proof).ok());
         return MakeSample<ClueProof>(
             proof.Serialize(), [digests = w->asset_digests_,
                                 root = w->ledger_->ClueRoot()](
                                    const ClueProof& m) {
               return m.clue == "asset" && m.entry_count == digests.size() &&
                      CmTree::VerifyClueProof(root, digests, m);
             });
       },
       0.95, 1024},
      {"FamBatchProof",
       [](ProofPlaneFuzz* w) {
         // Cross the epoch boundary (fractal_height 3 => epoch 0 seals
         // after 8 journals) so the batch carries two groups AND a link.
         w->AppendMore(3, 9);
         std::vector<uint64_t> jsns = {1, 3, 8};
         std::vector<Digest> digests;
         for (uint64_t jsn : jsns) {
           Journal journal;
           EXPECT_TRUE(w->ledger_->GetJournal(jsn, &journal).ok());
           digests.push_back(journal.TxHash());
         }
         FamBatchProof proof;
         EXPECT_TRUE(w->transport_->GetProofBatch(jsns, &proof).ok());
         EXPECT_EQ(proof.groups.size(), 2u);
         EXPECT_EQ(proof.epoch_links.size(), 1u);
         // Same nested-link label slack as FamProof; the verifier derives
         // every position from the jsns, so structural fields must kill.
         return MakeSample<FamBatchProof>(
             proof.Serialize(),
             [=, height = w->options_.fractal_height,
              root = w->ledger_->FamRoot()](const FamBatchProof& m) {
               return m.target_epoch == proof.target_epoch &&
                      FamAccumulator::VerifyBatchProof(height, jsns, digests,
                                                       m, root);
             });
       },
       0.95, 2048},
      {"ClueRangeResult",
       [](ProofPlaneFuzz* w) {
         const Timestamp from = 0;
         const Timestamp to = w->clock_.Now() + 1;
         ClueRangeResult result;
         EXPECT_TRUE(
             w->transport_->ProveClueRange("asset", from, to, &result).ok());
         EXPECT_EQ(result.journals.size(), w->asset_digests_.size());
         Bytes original = result.Serialize();
         // The client's own acceptance rule for a ProveClueRange reply.
         return MakeSample<ClueRangeResult>(
             original,
             [=, height = w->options_.fractal_height,
              clue_root = w->client_->trusted_clue_root(),
              fam_root = w->client_->trusted_fam_root()](
                 const ClueRangeResult& m) {
               if (!LedgerClient::VerifyClueRange(m, "asset", from, to,
                                                  height, clue_root, fam_root)
                        .ok()) {
                 return false;
               }
               // Presentation-flag mutants that leave every verified byte
               // unchanged (same rationale as Journal) count as killed.
               bool equivalent = true;
               for (size_t i = 0; i < m.journals.size(); ++i) {
                 if (!(m.journals[i].payload == result.journals[i].payload)) {
                   equivalent = false;
                 }
               }
               return m.Serialize() == original || !equivalent;
             });
       },
       0.95, 4096},
      {"Receipt",
       [](ProofPlaneFuzz* w) {
         EXPECT_FALSE(w->client_->receipts().empty());
         return MakeSample<Receipt>(
             w->client_->receipts().front().Serialize(),
             [key = w->lsp_.public_key()](const Receipt& m) {
               return m.Verify(key);
             });
       },
       1.0, 256},
      {"SignedCommitment",
       [](ProofPlaneFuzz* w) {
         SignedCommitment c;
         EXPECT_TRUE(w->transport_->GetCommitment(&c).ok());
         return MakeSample<SignedCommitment>(
             c.Serialize(),
             [key = w->lsp_.public_key()](const SignedCommitment& m) {
               return m.Verify(key);
             });
       },
       1.0, 256},
      {"ClientTransaction",
       [](ProofPlaneFuzz* w) {
         ClientTransaction tx;
         tx.ledger_uri = "lg://fuzz";
         tx.clues = {"asset"};
         tx.payload = StringToBytes("fuzz-payload");
         tx.nonce = 42;
         tx.Sign(w->alice_);
         return MakeSample<ClientTransaction>(
             tx.Serialize(), [](const ClientTransaction& m) {
               return m.ledger_uri == "lg://fuzz" && m.VerifyClientSignature();
             });
       },
       1.0, 512},
      {"Journal",
       [](ProofPlaneFuzz* w) {
         const uint64_t jsn = 1;
         Journal journal;
         FamProof proof;
         EXPECT_TRUE(w->ledger_->GetJournal(jsn, &journal).ok());
         EXPECT_TRUE(w->transport_->GetProof(jsn, &proof).ok());
         Bytes original = journal.Serialize();
         return MakeSample<Journal>(
             original, [=, height = w->options_.fractal_height,
                        root = w->ledger_->FamRoot()](const Journal& m) {
               // The client's own acceptance rule for a fetched journal...
               if (!LedgerClient::VerifyJournalAt(m, jsn, proof, height, root)
                        .ok()) {
                 return false;
               }
               // ...where a MUTANT whose tx-hash AND payload are unchanged
               // (e.g. a flipped `occulted` presentation flag) is
               // semantically the same record: count it as killed, the
               // adversary gained nothing.
               bool equivalent = m.TxHash() == journal.TxHash() &&
                                 m.payload == journal.payload;
               return m.Serialize() == original || !equivalent;
             });
       },
       1.0, 512},
      {"JournalDelta",
       [](ProofPlaneFuzz* w) {
         std::vector<JournalDelta> deltas;
         EXPECT_TRUE(w->transport_->GetDelta(1, 2, &deltas).ok());
         EXPECT_EQ(deltas.size(), 1u);
         // Deltas carry no signature — acceptance is the mirror replay
         // reproducing the committed roots (exercised by the matrix test),
         // which consumes exactly this tuple. A mutant is accepted only if
         // the tuple the mirror feeds on is unchanged — impossible for a
         // canonical encoding, so the kill floor is exact.
         return MakeSample<JournalDelta>(
             deltas[0].Serialize(), [orig = deltas[0]](const JournalDelta& m) {
               return m.tx_hash == orig.tx_hash &&
                      m.payload_digest == orig.payload_digest &&
                      m.clues == orig.clues;
             });
       },
       1.0, 256},
      {"TimeAttestation",
       [](ProofPlaneFuzz* w) {
         return MakeSample<TimeAttestation>(
             w->tsa_.Endorse(Sha256::Hash(StringToBytes("pegged")))
                 .Serialize(),
             [key = w->tsa_key_.public_key()](const TimeAttestation& m) {
               return m.Verify(key);
             });
       },
       1.0, 256},
      {"TimeProof",
       [](ProofPlaneFuzz* w) {
         TLedger tledger(&w->tsa_, &w->clock_,
                         KeyPair::FromSeedString("fuzz-tlsp"), {});
         Digest digest = Sha256::Hash(StringToBytes("when"));
         TLedgerReceipt receipt;
         EXPECT_TRUE(tledger.Submit(digest, w->clock_.Now(), &receipt).ok());
         tledger.ForceFinalize();
         TimeProof proof;
         EXPECT_TRUE(tledger.GetTimeProof(0, &proof).ok());
         return MakeSample<TimeProof>(
             proof.Serialize(),
             [=, key = w->tsa_key_.public_key()](const TimeProof& m) {
               return m.index == proof.index &&
                      m.tledger_ts == proof.tledger_ts &&
                      m.finalized_size == proof.finalized_size &&
                      TLedger::VerifyTimeProof(digest, m, key);
             });
       },
       0.9, 512},
      {"BlockHeader",
       [](ProofPlaneFuzz* w) {
         // A header is accepted when it hashes to its successor's link.
         w->AppendMore(3, 9);
         const std::vector<BlockHeader>& blocks = w->ledger_->blocks();
         EXPECT_GE(blocks.size(), 2u);
         return MakeSample<BlockHeader>(
             blocks[0].Serialize(),
             [link = blocks[1].prev_block_hash](const BlockHeader& m) {
               return m.Hash() == link;
             });
       },
       1.0, 256},
      {"CheckpointManifest",
       [](ProofPlaneFuzz* w) {
         MemEnv env;
         std::unique_ptr<FileStreamStore> journals, blocks;
         EXPECT_TRUE(FileStreamStore::Open(&env, "j.log", &journals).ok());
         EXPECT_TRUE(FileStreamStore::Open(&env, "b.log", &blocks).ok());
         CheckpointStore checkpoints(&env, "ckpt");
         Ledger ledger("lg://fuzz-ckpt", w->options_, &w->clock_, w->lsp_,
                       &w->registry_,
                       LedgerStorage{journals.get(), blocks.get(),
                                     &checkpoints});
         EXPECT_TRUE(ledger.SealBlock().ok());
         EXPECT_TRUE(ledger.WriteCheckpoint(nullptr).ok());
         std::vector<CheckpointEntry> entries;
         EXPECT_TRUE(checkpoints.List(&entries).ok());
         EXPECT_EQ(entries.size(), 1u);
         return MakeSample<CheckpointManifest>(
             entries.at(0).manifest.Serialize(),
             [key = w->lsp_.public_key()](const CheckpointManifest& m) {
               return m.Verify(key);
             });
       },
       1.0, 512},
      {"TimeEvidence",
       [](ProofPlaneFuzz* w) {
         // Its acceptance (the auditor's time-journal check) needs the
         // whole ledger prefix, so this entry checks decoding only.
         w->ledger_->AttachDirectTsa(&w->tsa_);
         uint64_t jsn = 0;
         EXPECT_TRUE(w->ledger_->AnchorTime(&jsn).ok());
         Journal journal;
         EXPECT_TRUE(w->ledger_->GetJournal(jsn, &journal).ok());
         return MakeSample<TimeEvidence>(journal.payload, nullptr);
       },
       std::nullopt, 512},
  };
  return entries;
}

/// Flips every bit of every byte of the honest sample; each mutant must
/// fail to decode or fail acceptance, and decodable mutants must be
/// canonical. Then every proper prefix and junk-extended encoding must
/// fail to decode (all formats carry explicit counts and check full
/// consumption), and seeded junk must never crash the decoder.
void RunEntry(const FuzzEntry& entry, const Sample& sample) {
  const std::string name = entry.name;
  const Bytes& original = sample.honest;
  ASSERT_FALSE(original.empty()) << name;
  {
    Outcome pristine = sample.run(original);
    ASSERT_TRUE(pristine.decoded) << name;
    ASSERT_EQ(pristine.reencoded, original) << name << ": non-canonical";
    if (entry.kill_floor.has_value()) {
      ASSERT_TRUE(pristine.accepted) << name << ": pristine encoding rejected";
    }
  }

  uint64_t mutants = 0, killed = 0;
  std::string survivors;
  for (size_t i = 0; i < original.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes mutated = original;
      mutated[i] ^= static_cast<uint8_t>(1u << bit);
      ++mutants;
      Outcome outcome = sample.run(mutated);
      if (!outcome.decoded) {
        ++killed;
        continue;
      }
      EXPECT_EQ(outcome.reencoded, mutated)
          << name << ": decodable mutant at byte " << i << " bit " << bit
          << " is non-canonical";
      if (!outcome.accepted) {
        ++killed;
      } else if (survivors.size() < 128) {
        survivors += " " + std::to_string(i) + ":" + std::to_string(bit);
      }
    }
  }
  if (entry.kill_floor.has_value()) {
    double kill = static_cast<double>(killed) / static_cast<double>(mutants);
    EXPECT_GE(kill, *entry.kill_floor)
        << name << ": accepted mutants at byte:bit ->" << survivors;
  }

  for (size_t len = 0; len < original.size(); ++len) {
    Bytes prefix(original.begin(), original.begin() + len);
    EXPECT_FALSE(sample.run(prefix).decoded)
        << name << ": truncation to " << len << " bytes decoded";
  }
  Random rng(FuzzSeed());
  for (int extra = 1; extra <= 4; ++extra) {
    Bytes extended = original;
    for (int i = 0; i < extra; ++i) {
      extended.push_back(static_cast<uint8_t>(rng.Uniform(256)));
    }
    EXPECT_FALSE(sample.run(extended).decoded)
        << name << ": trailing junk accepted";
  }

  Random junk_rng(FuzzSeed() ^ std::hash<std::string>{}(name));
  const uint64_t rounds = FuzzRounds();
  for (uint64_t round = 0; round < rounds; ++round) {
    Bytes junk(junk_rng.Uniform(entry.junk_max_len + 1));
    for (auto& b : junk) b = static_cast<uint8_t>(junk_rng.Uniform(256));
    (void)sample.run(junk);  // must not crash; outcome free
  }
}

class RegistryCase : public ProofPlaneFuzz {
 public:
  explicit RegistryCase(const FuzzEntry* entry) : entry_(entry) {}
  void TestBody() override { RunEntry(*entry_, entry_->build(this)); }

 private:
  const FuzzEntry* entry_;
};

// One test per registry entry, named ProofPlaneFuzz.<Format>EveryByte.
const bool kRegistered = [] {
  for (const FuzzEntry& entry : Registry()) {
    ::testing::RegisterTest(
        "ProofPlaneFuzz", (std::string(entry.name) + "EveryByte").c_str(),
        nullptr, nullptr, __FILE__, __LINE__,
        [&entry]() -> ProofPlaneFuzz* { return new RegistryCase(&entry); });
  }
  return true;
}();

}  // namespace
}  // namespace ledgerdb
