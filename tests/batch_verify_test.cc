// Batch ECDSA verification: Montgomery batch inversion, wNAF dual-scalar
// ladders, VerifyBatch accept/reject equivalence with the scalar path, and
// the batched ledger prevalidation built on top of them.

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "crypto/ecdsa.h"
#include "crypto/secp256k1.h"
#include "crypto/u256.h"
#include "ledger/ledger.h"
#include "ledger/sharded.h"

namespace ledgerdb {
namespace {

using secp256k1::kN;
using secp256k1::kP;

U256 RandomScalar(Random* rng, const U256& m) {
  for (;;) {
    Bytes raw = rng->NextBytes(32);
    U256 v = U256::FromBigEndian(raw.data());
    if (!v.IsZero() && Compare(v, m) < 0) return v;
  }
}

// ---------------------------------------------------------------------------
// Montgomery batch inversion (ModInverseBatch / FeInvBatch)
// ---------------------------------------------------------------------------

TEST(BatchInverseTest, EmptySpanIsNoop) {
  ModInverseBatch(nullptr, 0, kN);
  secp256k1::FeInvBatch(nullptr, 0);
}

TEST(BatchInverseTest, SingleElementMatchesScalar) {
  Random rng(7);
  U256 a = RandomScalar(&rng, kN);
  U256 batch = a;
  ModInverseBatch(&batch, 1, kN);
  EXPECT_EQ(batch, ModInverse(a, kN));

  U256 f = RandomScalar(&rng, kP);
  U256 fbatch = f;
  secp256k1::FeInvBatch(&fbatch, 1);
  EXPECT_EQ(fbatch, secp256k1::FeInv(f));
}

TEST(BatchInverseTest, ZeroElementSkippedWithoutCorruptingNeighbors) {
  Random rng(11);
  std::vector<U256> elems(9);
  std::vector<U256> originals(9);
  for (size_t i = 0; i < elems.size(); ++i) {
    elems[i] = RandomScalar(&rng, kN);
    originals[i] = elems[i];
  }
  elems[0] = originals[0] = U256();  // zero at the edge
  elems[4] = originals[4] = U256();  // zero in the middle
  ModInverseBatch(elems.data(), elems.size(), kN);
  for (size_t i = 0; i < elems.size(); ++i) {
    if (originals[i].IsZero()) {
      EXPECT_TRUE(elems[i].IsZero()) << "index " << i;
    } else {
      EXPECT_EQ(elems[i], ModInverse(originals[i], kN)) << "index " << i;
      EXPECT_EQ(MulMod(elems[i], originals[i], kN), U256(1)) << "index " << i;
    }
  }
}

TEST(BatchInverseTest, AllZeroSpan) {
  std::vector<U256> elems(5);
  ModInverseBatch(elems.data(), elems.size(), kN);
  for (const U256& e : elems) EXPECT_TRUE(e.IsZero());
}

TEST(BatchInverseTest, ThousandElementsCrossCheckedAgainstScalar) {
  Random rng(13);
  const size_t n = 1000;
  std::vector<U256> scalars(n), fields(n);
  std::vector<U256> scalars_in(n), fields_in(n);
  for (size_t i = 0; i < n; ++i) {
    scalars[i] = scalars_in[i] = RandomScalar(&rng, kN);
    fields[i] = fields_in[i] = RandomScalar(&rng, kP);
  }
  ModInverseBatch(scalars.data(), n, kN);
  secp256k1::FeInvBatch(fields.data(), n);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(scalars[i], ModInverse(scalars_in[i], kN)) << "index " << i;
    ASSERT_EQ(fields[i], secp256k1::FeInv(fields_in[i])) << "index " << i;
  }
}

// ---------------------------------------------------------------------------
// Fast scalar-lane arithmetic: Sqr, NMulMod, NInvBatch
// ---------------------------------------------------------------------------

TEST(ScalarLaneTest, SqrMatchesMulOnRandomAndEdgeValues) {
  Random rng(43);
  std::vector<U256> cases = {U256(), U256(1), U256(0xffffffffffffffffULL),
                             kN, kP,
                             U256(~0ULL, ~0ULL, ~0ULL, ~0ULL)};
  for (int i = 0; i < 256; ++i) {
    Bytes raw = rng.NextBytes(32);
    cases.push_back(U256::FromBigEndian(raw.data()));
  }
  for (const U256& a : cases) {
    U256 mlo, mhi, slo, shi;
    Mul(a, a, &mlo, &mhi);
    Sqr(a, &slo, &shi);
    ASSERT_EQ(slo, mlo);
    ASSERT_EQ(shi, mhi);
  }
}

TEST(ScalarLaneTest, NMulModMatchesGenericMulMod) {
  Random rng(47);
  for (int i = 0; i < 512; ++i) {
    Bytes ra = rng.NextBytes(32);
    Bytes rb = rng.NextBytes(32);
    // Unreduced inputs (any 256-bit value) must still reduce correctly.
    U256 a = U256::FromBigEndian(ra.data());
    U256 b = U256::FromBigEndian(rb.data());
    ASSERT_EQ(secp256k1::NMulMod(a, b), MulMod(a, b, kN));
  }
  // n-1 squared and values straddling n.
  U256 nm1;
  Sub(kN, U256(1), &nm1);
  EXPECT_EQ(secp256k1::NMulMod(nm1, nm1), MulMod(nm1, nm1, kN));
  EXPECT_EQ(secp256k1::NMulMod(kN, nm1), MulMod(kN, nm1, kN));
  EXPECT_EQ(secp256k1::NMulMod(U256(), nm1), U256());
}

TEST(ScalarLaneTest, NInvBatchMatchesScalarWithZeroIsolation) {
  Random rng(53);
  const size_t n = 257;
  std::vector<U256> elems(n), in(n);
  for (size_t i = 0; i < n; ++i) elems[i] = in[i] = RandomScalar(&rng, kN);
  elems[0] = in[0] = U256();
  elems[100] = in[100] = U256();
  secp256k1::NInvBatch(elems.data(), n);
  for (size_t i = 0; i < n; ++i) {
    if (in[i].IsZero()) {
      ASSERT_TRUE(elems[i].IsZero()) << "index " << i;
    } else {
      ASSERT_EQ(elems[i], ModInverse(in[i], kN)) << "index " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// GLV endomorphism decomposition
// ---------------------------------------------------------------------------

TEST(GlvSplitTest, RecombinesToOriginalScalar) {
  // lambda must match SplitScalar's internal constant; recombination
  // k1 + k2·λ ≡ k (mod n) proves both the decomposition identity and the
  // sign folding.
  const U256 lambda{0xdf02967c1b23bd72ULL, 0x122e22ea20816678ULL,
                    0xa5261c028812645aULL, 0x5363ad4cc05c30e0ULL};
  Random rng(59);
  std::vector<U256> cases = {U256(), U256(1), U256(2)};
  U256 nm1;
  Sub(kN, U256(1), &nm1);
  cases.push_back(nm1);
  for (int i = 0; i < 128; ++i) cases.push_back(RandomScalar(&rng, kN));
  for (const U256& k : cases) {
    U256 k1, k2;
    bool neg1 = false, neg2 = false;
    secp256k1::SplitScalar(k, &k1, &neg1, &k2, &neg2);
    // Components must be short enough to halve the ladder: < 2^130.
    ASSERT_EQ(k1.limb[3], 0u);
    ASSERT_EQ(k2.limb[3], 0u);
    ASSERT_LE(k1.limb[2], 3u);
    ASSERT_LE(k2.limb[2], 3u);
    U256 t1 = neg1 ? SubMod(U256(), k1, kN) : k1;
    U256 t2 = MulMod(neg2 ? SubMod(U256(), k2, kN) : k2, lambda, kN);
    ASSERT_EQ(AddMod(t1, t2, kN), Compare(k, kN) >= 0 ? SubMod(k, kN, kN) : k)
        << "k1.neg=" << neg1 << " k2.neg=" << neg2;
  }
}

TEST(GlvSplitTest, EndomorphismActsAsLambdaOnCurve) {
  // λ·P computed by generic scalar multiplication must equal (β·x, y).
  const U256 lambda{0xdf02967c1b23bd72ULL, 0x122e22ea20816678ULL,
                    0xa5261c028812645aULL, 0x5363ad4cc05c30e0ULL};
  const U256 beta{0xc1396c28719501eeULL, 0x9cf0497512f58995ULL,
                  0x6e64479eac3434e9ULL, 0x7ae96a2b657c0710ULL};
  Random rng(61);
  for (int i = 0; i < 8; ++i) {
    KeyPair kp = KeyPair::Generate(&rng);
    secp256k1::AffinePoint p = kp.public_key().point();
    secp256k1::AffinePoint lp = secp256k1::ScalarMul(lambda, p).ToAffine();
    EXPECT_EQ(lp.x, secp256k1::FeMul(beta, p.x));
    EXPECT_EQ(lp.y, p.y);
    // The context's λQ table is exactly the endomorphism image.
    secp256k1::VerifyContext ctx = secp256k1::VerifyContext::For(p);
    for (int j = 0; j < 4; ++j) {
      EXPECT_EQ(ctx.lam_odd[j].x, secp256k1::FeMul(beta, ctx.q_odd[j].x));
      EXPECT_EQ(ctx.lam_odd[j].y, ctx.q_odd[j].y);
      EXPECT_TRUE(ctx.lam_odd[j].IsOnCurve());
    }
  }
}

// ---------------------------------------------------------------------------
// wNAF Strauss–Shamir ladder vs the reference interleaved ladder
// ---------------------------------------------------------------------------

TEST(WNafLadderTest, MatchesInterleavedOnRandomScalars) {
  Random rng(17);
  KeyPair kp = KeyPair::Generate(&rng);
  const secp256k1::AffinePoint q = kp.public_key().point();
  const secp256k1::VerifyContext ctx = secp256k1::VerifyContext::For(q);
  for (int iter = 0; iter < 32; ++iter) {
    U256 k1 = RandomScalar(&rng, kN);
    U256 k2 = RandomScalar(&rng, kN);
    secp256k1::AffinePoint ref =
        secp256k1::DoubleScalarMulInterleaved(k1, k2, q).ToAffine();
    EXPECT_EQ(secp256k1::DoubleScalarMul(k1, k2, q).ToAffine(), ref);
    EXPECT_EQ(secp256k1::DoubleScalarMul(k1, k2, ctx).ToAffine(), ref);
  }
}

TEST(WNafLadderTest, EdgeScalars) {
  Random rng(19);
  KeyPair kp = KeyPair::Generate(&rng);
  const secp256k1::AffinePoint q = kp.public_key().point();
  U256 n_minus_1;
  Sub(kN, U256(1), &n_minus_1);
  const U256 cases[] = {U256(), U256(1), U256(2), U256(7), n_minus_1};
  for (const U256& k1 : cases) {
    for (const U256& k2 : cases) {
      secp256k1::AffinePoint ref =
          secp256k1::DoubleScalarMulInterleaved(k1, k2, q).ToAffine();
      EXPECT_EQ(secp256k1::DoubleScalarMul(k1, k2, q).ToAffine(), ref);
    }
  }
}

TEST(WNafLadderTest, ForBatchMatchesFor) {
  Random rng(23);
  const size_t n = 6;
  std::vector<secp256k1::AffinePoint> qs(n);
  for (size_t i = 0; i < n; ++i) {
    qs[i] = KeyPair::Generate(&rng).public_key().point();
  }
  std::vector<secp256k1::VerifyContext> batch(n);
  secp256k1::VerifyContext::ForBatch(qs.data(), n, batch.data());
  for (size_t i = 0; i < n; ++i) {
    secp256k1::VerifyContext single = secp256k1::VerifyContext::For(qs[i]);
    for (int t = 0; t < 4; ++t) {
      EXPECT_EQ(batch[i].q_odd[t], single.q_odd[t]) << i << "/" << t;
      EXPECT_TRUE(batch[i].q_odd[t].IsOnCurve()) << i << "/" << t;
    }
    EXPECT_EQ(batch[i].g_plus_q, single.g_plus_q) << i;
  }
}

TEST(WNafLadderTest, BatchToAffineMatchesToAffine) {
  Random rng(29);
  std::vector<secp256k1::JacobianPoint> pts;
  for (int i = 0; i < 8; ++i) {
    U256 k = RandomScalar(&rng, kN);
    pts.push_back(secp256k1::ScalarMulBase(k));
  }
  pts.push_back(secp256k1::JacobianPoint());  // infinity mid-batch
  std::vector<secp256k1::AffinePoint> affine(pts.size());
  secp256k1::BatchToAffine(pts.data(), pts.size(), affine.data());
  for (size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(affine[i], pts[i].ToAffine()) << "index " << i;
  }
}

// ---------------------------------------------------------------------------
// VerifyBatch: bit-identical accept/reject vs one-by-one VerifySignature
// ---------------------------------------------------------------------------

struct SignedMessage {
  PublicKey key;
  Digest message;
  Signature sig;
};

SignedMessage MakeSigned(Random* rng, const KeyPair& kp, int salt) {
  SignedMessage sm;
  sm.key = kp.public_key();
  sm.message = Sha256::Hash(std::string("msg-") + std::to_string(salt) +
                            std::to_string(rng->Next()));
  sm.sig = kp.Sign(sm.message);
  return sm;
}

TEST(VerifyBatchTest, MixedChunkMatchesScalarVerification) {
  Random rng(31);
  KeyPair alice = KeyPair::Generate(&rng);
  KeyPair bob = KeyPair::Generate(&rng);

  std::vector<SignedMessage> sms;
  // [0] valid.
  sms.push_back(MakeSigned(&rng, alice, 0));
  // [1] corrupted r.
  sms.push_back(MakeSigned(&rng, alice, 1));
  sms[1].sig.r = AddMod(sms[1].sig.r, U256(1), kN);
  // [2] corrupted s.
  sms.push_back(MakeSigned(&rng, alice, 2));
  sms[2].sig.s = AddMod(sms[2].sig.s, U256(1), kN);
  // [3] high-s variant (n - s): valid ECDSA, accepted by the scalar path.
  sms.push_back(MakeSigned(&rng, alice, 3));
  Sub(kN, sms[3].sig.s, &sms[3].sig.s);
  // [4] wrong key.
  sms.push_back(MakeSigned(&rng, alice, 4));
  sms[4].key = bob.public_key();
  // [5] zero r (malformed).
  sms.push_back(MakeSigned(&rng, alice, 5));
  sms[5].sig.r = U256();
  // [6] zero s (malformed, must be excluded from the shared inversion).
  sms.push_back(MakeSigned(&rng, alice, 6));
  sms[6].sig.s = U256();
  // [7] s >= n (malformed).
  sms.push_back(MakeSigned(&rng, alice, 7));
  sms[7].sig.s = kN;
  // [8] another valid one at the tail, from a different signer.
  sms.push_back(MakeSigned(&rng, bob, 8));

  const secp256k1::VerifyContext alice_ctx =
      secp256k1::VerifyContext::For(alice.public_key().point());

  std::vector<VerifyJob> jobs(sms.size());
  for (size_t i = 0; i < sms.size(); ++i) {
    jobs[i].key = &sms[i].key;
    jobs[i].message = &sms[i].message;
    jobs[i].sig = &sms[i].sig;
    // Mix cached and uncached contexts inside one chunk.
    if (sms[i].key == alice.public_key()) jobs[i].ctx = &alice_ctx;
  }
  std::vector<uint8_t> batch = VerifyBatch(jobs);

  ASSERT_EQ(batch.size(), sms.size());
  for (size_t i = 0; i < sms.size(); ++i) {
    bool scalar = VerifySignature(sms[i].key, sms[i].message, sms[i].sig);
    EXPECT_EQ(batch[i] != 0, scalar) << "index " << i;
  }
  // Spot-check the expected verdicts so the equivalence test cannot pass
  // vacuously.
  EXPECT_TRUE(batch[0]);
  EXPECT_FALSE(batch[1]);
  EXPECT_FALSE(batch[2]);
  EXPECT_TRUE(batch[3]);  // high-s accepted, same as scalar path
  EXPECT_FALSE(batch[4]);
  EXPECT_FALSE(batch[5]);
  EXPECT_FALSE(batch[6]);
  EXPECT_FALSE(batch[7]);
  EXPECT_TRUE(batch[8]);
}

TEST(VerifyBatchTest, EmptyAndSingle) {
  EXPECT_TRUE(VerifyBatch({}).empty());

  Random rng(37);
  KeyPair kp = KeyPair::Generate(&rng);
  SignedMessage sm = MakeSigned(&rng, kp, 0);
  VerifyJob job;
  job.key = &sm.key;
  job.message = &sm.message;
  job.sig = &sm.sig;
  std::vector<uint8_t> out = VerifyBatch(std::span<const VerifyJob>(&job, 1));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0]);
}

TEST(VerifyBatchTest, LargeChunkAgainstScalar) {
  Random rng(41);
  std::vector<KeyPair> keys;
  for (int i = 0; i < 4; ++i) keys.push_back(KeyPair::Generate(&rng));
  std::vector<SignedMessage> sms;
  for (int i = 0; i < 96; ++i) {
    sms.push_back(MakeSigned(&rng, keys[i % keys.size()], i));
    if (i % 7 == 3) sms.back().sig.s = AddMod(sms.back().sig.s, U256(1), kN);
    if (i % 11 == 5) sms.back().message = Sha256::Hash(std::string("other"));
  }
  std::vector<VerifyJob> jobs(sms.size());
  for (size_t i = 0; i < sms.size(); ++i) {
    jobs[i].key = &sms[i].key;
    jobs[i].message = &sms[i].message;
    jobs[i].sig = &sms[i].sig;
  }
  std::vector<uint8_t> batch = VerifyBatch(jobs);
  for (size_t i = 0; i < sms.size(); ++i) {
    EXPECT_EQ(batch[i] != 0,
              VerifySignature(sms[i].key, sms[i].message, sms[i].sig))
        << "index " << i;
  }
}

// ---------------------------------------------------------------------------
// Ledger::PrevalidateBatch and the pipelined append on top of VerifyBatch
// ---------------------------------------------------------------------------

struct LedgerFixture {
  SimulatedClock clock{0};
  CertificateAuthority ca{KeyPair::FromSeedString("bv-ca")};
  MemberRegistry registry{&ca};
  KeyPair lsp{KeyPair::FromSeedString("bv-lsp")};
  KeyPair user{KeyPair::FromSeedString("bv-user")};
  KeyPair stranger{KeyPair::FromSeedString("bv-stranger")};
  LedgerOptions options;

  LedgerFixture() {
    registry.Register(ca.Certify("lsp", lsp.public_key(), Role::kLsp));
    registry.Register(ca.Certify("user", user.public_key(), Role::kUser));
  }

  ClientTransaction MakeTx(uint64_t i, const KeyPair& signer) {
    ClientTransaction tx;
    tx.ledger_uri = "lg://batch-verify";
    tx.clues = {"clue-" + std::to_string(i % 8)};
    tx.payload = Bytes(64, static_cast<uint8_t>(i));
    tx.nonce = i;
    tx.Sign(signer);
    return tx;
  }
};

TEST(PrevalidateBatchTest, MatchesScalarPrevalidateWithFailureIsolation) {
  LedgerFixture fx;
  Ledger ledger("lg://batch-verify", fx.options, &fx.clock, fx.lsp,
                &fx.registry);

  std::vector<ClientTransaction> txs;
  for (uint64_t i = 0; i < 20; ++i) txs.push_back(fx.MakeTx(i, fx.user));
  txs[3].payload.push_back(0xAA);   // breaks π_c (payload signed earlier)
  txs[7] = fx.MakeTx(7, fx.stranger);  // valid signature, unregistered
  txs[11].ledger_uri = "lg://other";   // wrong ledger
  ClientTransaction bad_sig = fx.MakeTx(12, fx.user);
  bad_sig.client_sig.s = U256();       // malformed signature
  txs[12] = bad_sig;

  std::vector<const ClientTransaction*> ptrs(txs.size());
  for (size_t i = 0; i < txs.size(); ++i) ptrs[i] = &txs[i];
  std::vector<Ledger::PrevalidatedTx> outs(txs.size());
  std::vector<Status> statuses(txs.size());
  ledger.PrevalidateBatch(ptrs, outs.data(), statuses.data());

  for (size_t i = 0; i < txs.size(); ++i) {
    Ledger::PrevalidatedTx scalar_out;
    Status scalar = ledger.Prevalidate(txs[i], &scalar_out);
    EXPECT_EQ(statuses[i].code(), scalar.code()) << "index " << i;
    EXPECT_EQ(statuses[i].message(), scalar.message()) << "index " << i;
    if (scalar.ok()) {
      EXPECT_EQ(outs[i].journal.request_hash, scalar_out.journal.request_hash);
      EXPECT_EQ(outs[i].journal.payload_digest,
                scalar_out.journal.payload_digest);
    }
  }
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_TRUE(statuses[3].IsVerificationFailed());
  EXPECT_TRUE(statuses[7].IsPermissionDenied());
  EXPECT_TRUE(statuses[11].IsInvalidArgument());
  EXPECT_TRUE(statuses[12].IsVerificationFailed());
}

TEST(PrevalidateBatchTest, PipelinedAppendBatchIsolatesInvalidSignatures) {
  LedgerFixture fx;
  ShardedLedgerGroup group("lg://batch-verify", 2, fx.options, &fx.clock,
                           fx.lsp, &fx.registry);

  std::vector<ClientTransaction> txs;
  for (uint64_t i = 0; i < 200; ++i) txs.push_back(fx.MakeTx(i, fx.user));
  // Poison a few spread across prevalidation chunks.
  for (uint64_t i : {5ul, 64ul, 130ul, 199ul}) {
    txs[i].payload.push_back(0xFF);
  }

  std::vector<ShardedLedgerGroup::Location> locations;
  std::vector<Status> statuses;
  Status overall = group.AppendBatch(txs, &locations, &statuses);
  EXPECT_FALSE(overall.ok());

  size_t committed = 0;
  for (size_t i = 0; i < txs.size(); ++i) {
    bool poisoned = i == 5 || i == 64 || i == 130 || i == 199;
    EXPECT_EQ(statuses[i].ok(), !poisoned) << "index " << i;
    if (statuses[i].ok()) ++committed;
  }
  // 196 commits + 2 genesis journals; every valid tx landed despite the
  // corrupt chunk-mates.
  EXPECT_EQ(group.TotalJournals(), committed + 2);
}

}  // namespace
}  // namespace ledgerdb
