// Proof-cache correctness: the memoized proof plane must be INVISIBLE in
// the bytes — every cached proof path (current, anchored, batched, range
// blobs) must produce serializations identical to a cache-disabled ledger
// driven by the same history; stale blob stamps must never be served; the
// byte budget must hold under eviction; purge must drop cached epochs in
// lockstep with the trees; and concurrent readers sharing the cache
// between inline-sealed append rounds must stay race-free (the `tsan`
// CTest label runs this under ThreadSanitizer).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "accum/proof_cache.h"
#include "client/ledger_client.h"
#include "net/transport.h"

namespace ledgerdb {
namespace {

class ProofCacheTest : public ::testing::Test {
 protected:
  ProofCacheTest()
      : clock_(0),
        ca_(KeyPair::FromSeedString("pc-ca")),
        registry_(&ca_),
        lsp_(KeyPair::FromSeedString("pc-lsp")),
        user_(KeyPair::FromSeedString("pc-user")) {
    registry_.Register(ca_.Certify("lsp", lsp_.public_key(), Role::kLsp));
    registry_.Register(ca_.Certify("user", user_.public_key(), Role::kUser));
    options_.fractal_height = 2;  // epoch capacity 4: seals early and often
    options_.block_capacity = 4;
  }

  /// Two ledgers with identical histories: `cached` (default options) and
  /// `plain` (cache disabled). Same uri so one signed tx feeds both.
  void BuildPair(size_t cache_bytes = 0) {
    LedgerOptions cached_options = options_;
    if (cache_bytes != 0) cached_options.proof_cache_bytes = cache_bytes;
    LedgerOptions plain_options = options_;
    plain_options.enable_proof_cache = false;
    cached_ = std::make_unique<Ledger>("lg://pc", cached_options, &clock_,
                                       lsp_, &registry_);
    plain_ = std::make_unique<Ledger>("lg://pc", plain_options, &clock_,
                                      lsp_, &registry_);
  }

  ClientTransaction MakeTx(uint64_t seq, const std::vector<std::string>& clues) {
    ClientTransaction tx;
    tx.ledger_uri = "lg://pc";
    tx.clues = clues;
    tx.payload = StringToBytes("pc-payload-" + std::to_string(seq));
    tx.nonce = seq;
    tx.Sign(user_);
    return tx;
  }

  /// Appends the same tx to both ledgers; asserts they assign the same jsn.
  uint64_t AppendBoth(uint64_t seq, const std::vector<std::string>& clues) {
    ClientTransaction tx = MakeTx(seq, clues);
    uint64_t jsn_cached = 0, jsn_plain = 0;
    EXPECT_TRUE(cached_->Append(tx, &jsn_cached).ok());
    EXPECT_TRUE(plain_->Append(tx, &jsn_plain).ok());
    EXPECT_EQ(jsn_cached, jsn_plain);
    return jsn_cached;
  }

  SimulatedClock clock_;
  CertificateAuthority ca_;
  MemberRegistry registry_;
  KeyPair lsp_, user_;
  LedgerOptions options_;
  std::unique_ptr<Ledger> cached_;
  std::unique_ptr<Ledger> plain_;
};

// ---------------------------------------------------------------------------
// Byte-identical proofs, cache on vs off, cold vs warm
// ---------------------------------------------------------------------------

TEST_F(ProofCacheTest, CurrentProofsByteIdenticalColdAndWarm) {
  BuildPair();
  // 14 journals with fractal_height 2: epoch 0 (jsn 0..3) and epochs 1..3
  // seal; the live epoch stays partially filled.
  for (uint64_t i = 0; i < 14; ++i) AppendBoth(i, {"asset"});
  ASSERT_EQ(cached_->FamRoot(), plain_->FamRoot());
  for (uint64_t jsn = 0; jsn < 14; ++jsn) {
    FamProof cold, warm, reference;
    ASSERT_TRUE(cached_->GetProof(jsn, &cold).ok());
    ASSERT_TRUE(cached_->GetProof(jsn, &warm).ok());  // served from cache
    ASSERT_TRUE(plain_->GetProof(jsn, &reference).ok());
    EXPECT_EQ(cold.Serialize(), reference.Serialize()) << "jsn " << jsn;
    EXPECT_EQ(warm.Serialize(), reference.Serialize()) << "jsn " << jsn;
    Journal journal;
    ASSERT_TRUE(cached_->GetJournal(jsn, &journal).ok());
    EXPECT_TRUE(Ledger::VerifyJournalProof(journal, warm, plain_->FamRoot()));
  }
  ProofCache::Stats stats = cached_->ProofCacheStats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.resident_bytes, 0u);
  // The cache-off ledger never touched a cache at all.
  ProofCache::Stats off = plain_->ProofCacheStats();
  EXPECT_EQ(off.hits + off.misses + off.resident_bytes, 0u);
}

TEST_F(ProofCacheTest, AnchoredProofsByteIdenticalAgainstOldAnchor) {
  BuildPair();
  for (uint64_t i = 0; i < 8; ++i) AppendBoth(i, {});
  // Anchor at the (then) last sealed epoch, then keep appending: the
  // anchored path must serve historical proofs whose chain stops at the
  // anchor, identical with and without the cache.
  TrustedAnchor anchor_cached, anchor_plain;
  ASSERT_TRUE(cached_->MakeAnchor(&anchor_cached).ok());
  ASSERT_TRUE(plain_->MakeAnchor(&anchor_plain).ok());
  ASSERT_EQ(anchor_cached.epoch, anchor_plain.epoch);
  ASSERT_EQ(anchor_cached.epoch_root, anchor_plain.epoch_root);
  for (uint64_t i = 8; i < 14; ++i) AppendBoth(i, {});
  for (uint64_t jsn = 0; jsn < 7; ++jsn) {
    FamProof cold, warm, reference;
    ASSERT_TRUE(cached_->GetProofAnchored(jsn, anchor_cached, &cold).ok());
    ASSERT_TRUE(cached_->GetProofAnchored(jsn, anchor_cached, &warm).ok());
    ASSERT_TRUE(plain_->GetProofAnchored(jsn, anchor_plain, &reference).ok());
    EXPECT_EQ(cold.Serialize(), reference.Serialize()) << "jsn " << jsn;
    EXPECT_EQ(warm.Serialize(), reference.Serialize()) << "jsn " << jsn;
    Journal journal;
    ASSERT_TRUE(cached_->GetJournal(jsn, &journal).ok());
    EXPECT_TRUE(FamAccumulator::VerifyProofAnchored(journal.TxHash(), warm,
                                                    anchor_cached));
  }
  EXPECT_GT(cached_->ProofCacheStats().hits, 0u);
}

TEST_F(ProofCacheTest, BatchAndRangeProofsByteIdentical) {
  BuildPair();
  for (uint64_t i = 0; i < 14; ++i) {
    AppendBoth(i, {i % 2 == 0 ? "even" : "odd"});
  }
  std::vector<uint64_t> jsns = {0, 2, 4, 6, 8, 10, 12};
  FamBatchProof cold, warm, reference;
  ASSERT_TRUE(cached_->GetProofBatch(jsns, &cold).ok());
  ASSERT_TRUE(cached_->GetProofBatch(jsns, &warm).ok());
  ASSERT_TRUE(plain_->GetProofBatch(jsns, &reference).ok());
  EXPECT_EQ(cold.Serialize(), reference.Serialize());
  EXPECT_EQ(warm.Serialize(), reference.Serialize());
  std::vector<Digest> digests;
  for (uint64_t jsn : jsns) {
    Journal journal;
    ASSERT_TRUE(cached_->GetJournal(jsn, &journal).ok());
    digests.push_back(journal.TxHash());
  }
  EXPECT_TRUE(FamAccumulator::VerifyBatchProof(options_.fractal_height, jsns,
                                               digests, warm,
                                               plain_->FamRoot()));

  Bytes range_cold, range_warm, range_reference;
  Timestamp to = clock_.Now() + 1;
  ASSERT_TRUE(cached_->ProveClueRangeWire("even", 0, to, &range_cold).ok());
  ASSERT_TRUE(cached_->ProveClueRangeWire("even", 0, to, &range_warm).ok());
  ASSERT_TRUE(
      plain_->ProveClueRangeWire("even", 0, to, &range_reference).ok());
  EXPECT_EQ(range_cold, range_reference);
  EXPECT_EQ(range_warm, range_reference);
  EXPECT_GT(cached_->ProofCacheStats().hits, 0u);
}

TEST_F(ProofCacheTest, ClueProofBlobsByteIdenticalAndHit) {
  BuildPair();
  for (uint64_t i = 0; i < 6; ++i) AppendBoth(i, {"asset"});
  // A clue proof is memoized only inside the range blob that carries it.
  Timestamp to = clock_.Now() + 1;
  Bytes cold, warm, reference;
  ASSERT_TRUE(cached_->ProveClueRangeWire("asset", 0, to, &cold).ok());
  uint64_t misses_after_cold = cached_->ProofCacheStats().misses;
  ASSERT_TRUE(cached_->ProveClueRangeWire("asset", 0, to, &warm).ok());
  ASSERT_TRUE(plain_->ProveClueRangeWire("asset", 0, to, &reference).ok());
  EXPECT_EQ(cold, reference);
  EXPECT_EQ(warm, reference);
  // The second build hit the blob without a new miss.
  ProofCache::Stats stats = cached_->ProofCacheStats();
  EXPECT_EQ(stats.misses, misses_after_cold);
  EXPECT_GT(stats.hits, 0u);
  // The served clue proof equals a fresh cache-off build of the same range.
  ClueRangeResult served;
  ASSERT_TRUE(ClueRangeResult::Deserialize(warm, &served));
  ClueProof fresh;
  ASSERT_TRUE(
      plain_->GetClueProof("asset", served.begin, served.end, &fresh).ok());
  EXPECT_EQ(served.clue_proof.Serialize(), fresh.Serialize());
}

TEST_F(ProofCacheTest, RebuiltRangeReadCostsOneMiss) {
  // Epoch capacity 64: every journal sits in the live fam epoch, so the
  // batch proof consults no epoch-section entry and the range blob is the
  // only memo a range read looks up.
  options_.fractal_height = 6;
  BuildPair();
  for (uint64_t i = 0; i < 6; ++i) AppendBoth(i, {"asset"});
  Timestamp to = clock_.Now() + 1;
  Bytes first;
  ASSERT_TRUE(cached_->ProveClueRangeWire("asset", 0, to, &first).ok());
  AppendBoth(6, {"asset"});
  ProofCache::Stats before = cached_->ProofCacheStats();
  Bytes rebuilt, reference;
  ASSERT_TRUE(cached_->ProveClueRangeWire("asset", 0, to, &rebuilt).ok());
  ProofCache::Stats after = cached_->ProofCacheStats();
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_EQ(after.hits, before.hits);
  ASSERT_TRUE(plain_->ProveClueRangeWire("asset", 0, to, &reference).ok());
  EXPECT_EQ(rebuilt, reference);
  EXPECT_NE(rebuilt, first);
}

// ---------------------------------------------------------------------------
// Wire-level range memo: byte identity and occult-privacy invalidation
// ---------------------------------------------------------------------------

TEST_F(ProofCacheTest, WireRangeMemoByteIdenticalAndDroppedOnOccult) {
  BuildPair();
  std::vector<uint64_t> jsns;
  for (uint64_t i = 0; i < 10; ++i) {
    clock_.Advance(1000);
    jsns.push_back(AppendBoth(i, {"asset"}));
  }
  Timestamp to = clock_.Now() + 1;
  Bytes cold, warm, reference;
  ASSERT_TRUE(cached_->ProveClueRangeWire("asset", 0, to, &cold).ok());
  ProofCache::Stats before = cached_->ProofCacheStats();
  ASSERT_TRUE(cached_->ProveClueRangeWire("asset", 0, to, &warm).ok());
  ProofCache::Stats after = cached_->ProofCacheStats();
  // The repeat is served whole from the memo: one hit, no new miss.
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);
  ASSERT_TRUE(plain_->ProveClueRangeWire("asset", 0, to, &reference).ok());
  EXPECT_EQ(cold, reference);
  EXPECT_EQ(warm, reference);

  // Occult one selected journal. Retrievability changed, so the memo must
  // go: a re-served response has to carry the occulted (empty) payload —
  // serving the stale bytes would leak exactly what occult erased.
  KeyPair dba = KeyPair::FromSeedString("pc-dba");
  KeyPair regulator = KeyPair::FromSeedString("pc-reg");
  registry_.Register(ca_.Certify("dba", dba.public_key(), Role::kDba));
  registry_.Register(
      ca_.Certify("reg", regulator.public_key(), Role::kRegulator));
  uint64_t target = jsns[4];
  Digest req = Ledger::OccultRequestHash("lg://pc", target);
  std::vector<Endorsement> sigs = {{dba.public_key(), dba.Sign(req)},
                                   {regulator.public_key(),
                                    regulator.Sign(req)}};
  ASSERT_TRUE(cached_->Occult(target, sigs, nullptr).ok());
  ASSERT_TRUE(plain_->Occult(target, sigs, nullptr).ok());

  Bytes redone, redone_plain;
  ASSERT_TRUE(cached_->ProveClueRangeWire("asset", 0, to, &redone).ok());
  ASSERT_TRUE(plain_->ProveClueRangeWire("asset", 0, to, &redone_plain).ok());
  EXPECT_EQ(redone, redone_plain);
  EXPECT_NE(redone, reference);
  ClueRangeResult decoded;
  ASSERT_TRUE(ClueRangeResult::Deserialize(redone, &decoded));
  bool saw_target = false;
  for (const Journal& journal : decoded.journals) {
    if (journal.jsn != target) continue;
    saw_target = true;
    EXPECT_TRUE(journal.occulted);
    EXPECT_TRUE(journal.payload.empty());
  }
  EXPECT_TRUE(saw_target);
}

// ---------------------------------------------------------------------------
// Staleness: root-stamped blobs
// ---------------------------------------------------------------------------

TEST_F(ProofCacheTest, BlobStampNeverServesStaleProof) {
  // No block seals in this test, so no DropBlobs: only the stamp stands
  // between the memo and a stale answer.
  options_.block_capacity = 64;
  BuildPair();
  for (uint64_t i = 0; i < 4; ++i) AppendBoth(i, {"asset"});
  Timestamp to = clock_.Now() + 1;
  Bytes before;
  ASSERT_TRUE(cached_->ProveClueRangeWire("asset", 0, to, &before).ok());
  ClueRangeResult stale;
  ASSERT_TRUE(ClueRangeResult::Deserialize(before, &stale));
  EXPECT_EQ(stale.journals.size(), 4u);
  size_t resident = cached_->ProofCacheStats().resident_bytes;
  // The roots move: the cached blob's stamp is now stale and must be
  // rebuilt, not served.
  AppendBoth(4, {"asset"});
  ASSERT_EQ(cached_->ProofCacheStats().resident_bytes, resident)
      << "the stale blob must still be resident";
  uint64_t misses_before = cached_->ProofCacheStats().misses;
  Bytes after, reference;
  ASSERT_TRUE(cached_->ProveClueRangeWire("asset", 0, to, &after).ok());
  EXPECT_GT(cached_->ProofCacheStats().misses, misses_before);
  ASSERT_TRUE(plain_->ProveClueRangeWire("asset", 0, to, &reference).ok());
  EXPECT_EQ(after, reference);
  ClueRangeResult fresh;
  ASSERT_TRUE(ClueRangeResult::Deserialize(after, &fresh));
  ASSERT_EQ(fresh.journals.size(), 5u);
  EXPECT_EQ(fresh.clue_proof.entry_count, 5u);
  std::vector<uint64_t> jsns;
  std::vector<Digest> digests;
  for (const Journal& journal : fresh.journals) {
    jsns.push_back(journal.jsn);
    digests.push_back(journal.TxHash());
  }
  EXPECT_TRUE(
      CmTree::VerifyClueProof(cached_->ClueRoot(), digests, fresh.clue_proof));
  EXPECT_TRUE(FamAccumulator::VerifyBatchProof(options_.fractal_height, jsns,
                                               digests, fresh.fam_batch,
                                               cached_->FamRoot()));
}

// ---------------------------------------------------------------------------
// Capacity: byte budget + LRU eviction
// ---------------------------------------------------------------------------

TEST_F(ProofCacheTest, EvictionHonorsByteBudget) {
  // A budget far too small for the history forces whole-epoch eviction on
  // nearly every insert — correctness must be unaffected.
  BuildPair(/*cache_bytes=*/512);
  for (uint64_t i = 0; i < 20; ++i) AppendBoth(i, {"asset"});
  for (int round = 0; round < 2; ++round) {
    for (uint64_t jsn = 0; jsn < 20; ++jsn) {
      FamProof proof, reference;
      ASSERT_TRUE(cached_->GetProof(jsn, &proof).ok());
      ASSERT_TRUE(plain_->GetProof(jsn, &reference).ok());
      EXPECT_EQ(proof.Serialize(), reference.Serialize());
    }
  }
  ProofCache::Stats stats = cached_->ProofCacheStats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.resident_bytes, 512u);
}

TEST_F(ProofCacheTest, DirectCacheEvictionAndStats) {
  ProofCache cache(/*byte_budget=*/400);
  MembershipProof proof;
  proof.siblings.resize(2);
  proof.sibling_is_left.resize(2);
  proof.peaks.resize(1);
  // ApproxBytes = 32 * (2 + 1 + 2) = 160 per link: three links overflow
  // the 400-byte budget and evict the least-recently-used epoch.
  cache.InsertLink(1, proof);
  cache.InsertLink(2, proof);
  MembershipProof out;
  EXPECT_TRUE(cache.LookupLink(2, &out));
  EXPECT_TRUE(cache.LookupLink(1, &out));  // epoch 2 is now LRU
  cache.InsertLink(3, proof);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.LookupLink(2, &out)) << "LRU epoch survived eviction";
  EXPECT_TRUE(cache.LookupLink(1, &out));
  EXPECT_TRUE(cache.LookupLink(3, &out));
  EXPECT_LE(cache.stats().resident_bytes, 400u);

  // Blob staleness: same key, different stamp, must miss.
  Digest stamp_a = Sha256::Hash(StringToBytes("a"));
  Digest stamp_b = Sha256::Hash(StringToBytes("b"));
  cache.InsertBlob("k", stamp_a, StringToBytes("proof-bytes"));
  Bytes blob;
  EXPECT_TRUE(cache.LookupBlob("k", stamp_a, &blob));
  EXPECT_EQ(blob, StringToBytes("proof-bytes"));
  EXPECT_FALSE(cache.LookupBlob("k", stamp_b, &blob));
  cache.DropBlobs();
  EXPECT_FALSE(cache.LookupBlob("k", stamp_a, &blob));
}

// ---------------------------------------------------------------------------
// Purge: cached availability in lockstep with the trees
// ---------------------------------------------------------------------------

TEST_F(ProofCacheTest, PruneDropsCachedEpochsWithTheTrees) {
  FamAccumulator fam(2);
  ProofCache cache(1 << 20);
  fam.SetProofCache(&cache);
  std::vector<Digest> digests;
  for (int i = 0; i < 12; ++i) {
    digests.push_back(Sha256::Hash(StringToBytes("j" + std::to_string(i))));
    fam.Append(digests.back());
  }
  // Populate the cache for epochs 0 and 1, then prune them.
  FamProof proof;
  ASSERT_TRUE(fam.GetProof(0, &proof).ok());
  ASSERT_TRUE(fam.GetProof(4, &proof).ok());
  ASSERT_GT(cache.stats().resident_bytes, 0u);
  fam.PruneSealedEpochsBefore(2);
  // The cached material must NOT resurrect proofs the trees can no longer
  // build.
  EXPECT_TRUE(fam.GetProof(0, &proof).IsNotFound());
  EXPECT_TRUE(fam.GetProof(4, &proof).IsNotFound());
  FamBatchProof batch;
  EXPECT_TRUE(fam.GetBatchProof({0, 4}, &batch).IsNotFound());
  // Pruned epochs still serve their merged-cell links (from the retained
  // pruned_links_ path, bypassing the cache), so chain verification of
  // surviving journals keeps working.
  ASSERT_TRUE(fam.GetProof(8, &proof).ok());
  EXPECT_TRUE(FamAccumulator::VerifyProof(digests[8], proof, fam.Root()));
}

// ---------------------------------------------------------------------------
// VerifyBatchProof rejects mutations
// ---------------------------------------------------------------------------

TEST_F(ProofCacheTest, VerifyBatchProofRejectsTampering) {
  BuildPair();
  for (uint64_t i = 0; i < 14; ++i) AppendBoth(i, {});
  std::vector<uint64_t> jsns = {1, 5, 9, 12};
  std::vector<Digest> digests;
  for (uint64_t jsn : jsns) {
    Journal journal;
    ASSERT_TRUE(cached_->GetJournal(jsn, &journal).ok());
    digests.push_back(journal.TxHash());
  }
  FamBatchProof proof;
  ASSERT_TRUE(cached_->GetProofBatch(jsns, &proof).ok());
  const Digest root = cached_->FamRoot();
  const int h = options_.fractal_height;
  ASSERT_TRUE(FamAccumulator::VerifyBatchProof(h, jsns, digests, proof, root));

  {  // wrong digest for one journal
    std::vector<Digest> bad = digests;
    bad[2] = Sha256::Hash(StringToBytes("forged"));
    EXPECT_FALSE(FamAccumulator::VerifyBatchProof(h, jsns, bad, proof, root));
  }
  {  // jsns not strictly ascending
    std::vector<uint64_t> bad = {1, 5, 5, 12};
    EXPECT_FALSE(
        FamAccumulator::VerifyBatchProof(h, bad, digests, proof, root));
  }
  {  // a group relabeled to a different epoch
    FamBatchProof bad = proof;
    bad.groups[0].epoch += 1;
    EXPECT_FALSE(FamAccumulator::VerifyBatchProof(h, jsns, digests, bad, root));
  }
  {  // a leaf position shifted: ExpectedLocation binding must catch it
    FamBatchProof bad = proof;
    ASSERT_FALSE(bad.groups[0].batch.leaf_indices.empty());
    bad.groups[0].batch.leaf_indices[0] += 1;
    EXPECT_FALSE(FamAccumulator::VerifyBatchProof(h, jsns, digests, bad, root));
  }
  {  // dropped link: the chain no longer reaches the target epoch
    FamBatchProof bad = proof;
    ASSERT_FALSE(bad.epoch_links.empty());
    bad.epoch_links.pop_back();
    EXPECT_FALSE(FamAccumulator::VerifyBatchProof(h, jsns, digests, bad, root));
  }
  {  // dropped group: every input jsn must be covered
    FamBatchProof bad = proof;
    bad.groups.pop_back();
    EXPECT_FALSE(FamAccumulator::VerifyBatchProof(h, jsns, digests, bad, root));
  }
  {  // wrong trusted root
    Digest wrong = Sha256::Hash(StringToBytes("not-the-root"));
    EXPECT_FALSE(
        FamAccumulator::VerifyBatchProof(h, jsns, digests, proof, wrong));
  }
}

// ---------------------------------------------------------------------------
// Client batch-audit over the wire
// ---------------------------------------------------------------------------

TEST_F(ProofCacheTest, ClientBatchAuditRangeVerifiesAndCatchesTruncation) {
  BuildPair();
  LocalTransport transport(cached_.get());
  LedgerClient::Options copts;
  copts.lsp_key = lsp_.public_key();
  copts.fractal_height = options_.fractal_height;
  LedgerClient client(&transport, user_, copts);
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(client
                    .AppendVerified(StringToBytes("doc-" + std::to_string(i)),
                                    {"asset"}, nullptr)
                    .ok());
  }
  ASSERT_TRUE(client.RefreshTrustedRoots().ok());
  std::vector<Journal> journals;
  ClueRangeResult raw;
  Timestamp to = clock_.Now() + 1;
  ASSERT_TRUE(client.BatchAuditRange("asset", 0, to, &journals, &raw).ok());
  EXPECT_EQ(journals.size(), 10u);
  for (uint64_t i = 0; i < journals.size(); ++i) {
    EXPECT_EQ(journals[i].payload,
              StringToBytes("doc-" + std::to_string(i)));
  }
  // Without a refresh the pinned roots predate new appends: fails closed.
  ASSERT_TRUE(client.AppendVerified(StringToBytes("doc-10"), {"asset"},
                                    nullptr)
                  .ok());
  EXPECT_TRUE(client.BatchAuditRange("asset", 0, clock_.Now() + 1, &journals)
                  .IsVerificationFailed());
  ASSERT_TRUE(client.RefreshTrustedRoots().ok());
  EXPECT_TRUE(client.BatchAuditRange("asset", 0, clock_.Now() + 1, &journals)
                  .ok());
  EXPECT_EQ(journals.size(), 11u);
}

// ---------------------------------------------------------------------------
// Readers racing each other on the cache between sealed rounds (tsan)
// ---------------------------------------------------------------------------

TEST_F(ProofCacheTest, ReadersRaceSealTimeBlobInvalidation) {
  BuildPair();
  Ledger* ledger = cached_.get();
  constexpr int kRounds = 6;
  constexpr int kPerRound = 16;  // block_capacity 4: 4 seals per round
  constexpr int kReaders = 3;
  for (int round = 0; round < kRounds; ++round) {
    uint64_t base = static_cast<uint64_t>(round) * kPerRound;
    for (int i = 0; i < kPerRound; ++i) {
      uint64_t jsn = 0;
      ASSERT_TRUE(ledger->Append(MakeTx(base + i, {"asset"}), &jsn).ok());
    }
    // Appends are quiescent and every seal of the round (each one drops
    // the blob section via DropBlobs) has run inline. Readers now race
    // each other through every cached proof path, refilling the blob
    // section and the sealed-epoch material under the cache's lock.
    uint64_t committed = base + kPerRound;
    std::atomic<bool> failed{false};
    std::vector<std::thread> readers;
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&, t] {
        for (int iter = 0; iter < 20; ++iter) {
          ClueProof clue_proof;
          if (!ledger->GetClueProof("asset", 0, 0, &clue_proof).ok()) {
            failed = true;
          }
          uint64_t jsn = (static_cast<uint64_t>(t) * 20 + iter) % committed;
          FamProof proof;
          if (!ledger->GetProof(jsn, &proof).ok()) failed = true;
          Bytes range;
          if (!ledger->ProveClueRangeWire("asset", 0, clock_.Now() + 1, &range)
                   .ok()) {
            failed = true;
          }
        }
      });
    }
    for (std::thread& t : readers) t.join();
    EXPECT_FALSE(failed.load());
  }
  // After the dust settles the cached ledger still matches a cache-off
  // replay byte for byte.
  for (uint64_t i = 0; i < kRounds * kPerRound; ++i) {
    ClientTransaction tx = MakeTx(i, {"asset"});
    uint64_t jsn = 0;
    ASSERT_TRUE(plain_->Append(tx, &jsn).ok());
  }
  EXPECT_EQ(cached_->FamRoot(), plain_->FamRoot());
  EXPECT_EQ(cached_->ClueRoot(), plain_->ClueRoot());
  ClueProof a, b;
  ASSERT_TRUE(cached_->GetClueProof("asset", 0, 0, &a).ok());
  ASSERT_TRUE(plain_->GetClueProof("asset", 0, 0, &b).ok());
  EXPECT_EQ(a.Serialize(), b.Serialize());
}

}  // namespace
}  // namespace ledgerdb
