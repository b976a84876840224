#include "crypto/ecdsa.h"

#include <cstring>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ledgerdb {

using secp256k1::AffinePoint;
using secp256k1::JacobianPoint;
using secp256k1::kN;
using secp256k1::NMulMod;

namespace {

// Canonicalizes a 256-bit value mod n. Any u < 2^256 is < 2n, so one
// conditional subtraction replaces the generic O(512) ReduceWide.
U256 NCanon(U256 u) {
  if (Compare(u, kN) >= 0) Sub(u, kN, &u);
  return u;
}

}  // namespace

Bytes PublicKey::Serialize() const {
  Bytes out(64);
  point_.x.ToBigEndian(out.data());
  point_.y.ToBigEndian(out.data() + 32);
  return out;
}

bool PublicKey::Deserialize(Slice raw, PublicKey* out) {
  if (raw.size() != 64) return false;
  AffinePoint p;
  p.x = U256::FromBigEndian(raw.data());
  p.y = U256::FromBigEndian(raw.data() + 32);
  p.infinity = false;
  if (!p.IsOnCurve()) return false;
  *out = PublicKey(p);
  return true;
}

Digest PublicKey::Id() const { return Sha256::Hash(Serialize()); }

Bytes Signature::Serialize() const {
  Bytes out(64);
  r.ToBigEndian(out.data());
  s.ToBigEndian(out.data() + 32);
  return out;
}

bool Signature::Deserialize(Slice raw, Signature* out) {
  if (raw.size() != 64) return false;
  out->r = U256::FromBigEndian(raw.data());
  out->s = U256::FromBigEndian(raw.data() + 32);
  return true;
}

KeyPair KeyPair::FromSecret(const U256& secret) {
  KeyPair kp;
  if (secret.IsZero() || Compare(secret, kN) >= 0) return kp;
  kp.secret_ = secret;
  kp.public_key_ = PublicKey(secp256k1::ScalarMulBase(secret).ToAffine());
  return kp;
}

KeyPair KeyPair::Generate(Random* rng) {
  for (;;) {
    Bytes seed = rng->NextBytes(32);
    U256 candidate = U256::FromBigEndian(seed.data());
    if (candidate.IsZero() || Compare(candidate, kN) >= 0) continue;
    return FromSecret(candidate);
  }
}

KeyPair KeyPair::FromSeedString(std::string_view seed) {
  Digest d = Sha256::Hash(seed);
  U256 candidate = U256::FromBigEndian(d.bytes.data());
  // Re-hash until the scalar is in range (overwhelmingly the first try).
  while (candidate.IsZero() || Compare(candidate, kN) >= 0) {
    d = Sha256::Hash(Slice(d.bytes.data(), 32));
    candidate = U256::FromBigEndian(d.bytes.data());
  }
  return FromSecret(candidate);
}

namespace {

// RFC 6979 deterministic nonce generation (HMAC-SHA256 DRBG). Returns a
// nonce in [1, n-1].
U256 Rfc6979Nonce(const U256& secret, const Digest& message,
                  uint32_t attempt) {
  uint8_t v[32], k[32];
  std::memset(v, 0x01, sizeof(v));
  std::memset(k, 0x00, sizeof(k));

  Bytes seed;
  seed.reserve(64 + 4);
  Bytes secret_bytes = secret.ToBytes();
  seed.insert(seed.end(), secret_bytes.begin(), secret_bytes.end());
  seed.insert(seed.end(), message.bytes.begin(), message.bytes.end());
  // Extra-data variant: mix in the retry counter so consecutive attempts
  // produce independent nonces.
  if (attempt != 0) PutU32(&seed, attempt);

  auto hmac_step = [&](uint8_t sep) {
    Bytes data;
    data.insert(data.end(), v, v + 32);
    data.push_back(sep);
    data.insert(data.end(), seed.begin(), seed.end());
    Digest kd = HmacSha256(Slice(k, 32), Slice(data));
    std::memcpy(k, kd.bytes.data(), 32);
    Digest vd = HmacSha256(Slice(k, 32), Slice(v, 32));
    std::memcpy(v, vd.bytes.data(), 32);
  };

  hmac_step(0x00);
  hmac_step(0x01);

  for (;;) {
    Digest vd = HmacSha256(Slice(k, 32), Slice(v, 32));
    std::memcpy(v, vd.bytes.data(), 32);
    U256 candidate = U256::FromBigEndian(v);
    if (!candidate.IsZero() && Compare(candidate, kN) < 0) return candidate;
    Bytes data(v, v + 32);
    data.push_back(0x00);
    Digest kd = HmacSha256(Slice(k, 32), Slice(data));
    std::memcpy(k, kd.bytes.data(), 32);
    vd = HmacSha256(Slice(k, 32), Slice(v, 32));
    std::memcpy(v, vd.bytes.data(), 32);
  }
}

}  // namespace

Signature KeyPair::Sign(const Digest& message) const {
  U256 z = NCanon(U256::FromBigEndian(message.bytes.data()));

  for (uint32_t attempt = 0;; ++attempt) {
    U256 k = Rfc6979Nonce(secret_, message, attempt);
    AffinePoint rp = secp256k1::ScalarMulBase(k).ToAffine();
    U256 r = NCanon(rp.x);
    if (r.IsZero()) continue;
    U256 kinv = ModInverse(k, kN);
    U256 rd = NMulMod(r, secret_);
    U256 s = NMulMod(kinv, AddMod(z, rd, kN));
    if (s.IsZero()) continue;
    // Low-s normalization (malleability hygiene).
    U256 half;
    Sub(kN, s, &half);
    if (Compare(half, s) < 0) s = half;
    return Signature{r, s};
  }
}

bool VerifySignature(const PublicKey& key, const Digest& message,
                     const Signature& sig) {
  return VerifySignature(key, message, sig, nullptr);
}

bool VerifySignature(const PublicKey& key, const Digest& message,
                     const Signature& sig,
                     const secp256k1::VerifyContext* ctx) {
  if (!key.valid()) return false;
  if (sig.r.IsZero() || sig.s.IsZero()) return false;
  if (Compare(sig.r, kN) >= 0 || Compare(sig.s, kN) >= 0) return false;

  U256 z = NCanon(U256::FromBigEndian(message.bytes.data()));

  U256 w = ModInverse(sig.s, kN);
  U256 u1 = NMulMod(z, w);
  U256 u2 = NMulMod(sig.r, w);
  JacobianPoint rp = ctx != nullptr
                         ? secp256k1::DoubleScalarMul(u1, u2, *ctx)
                         : secp256k1::DoubleScalarMul(u1, u2, key.point());
  if (rp.infinity) return false;
  AffinePoint ra = rp.ToAffine();
  U256 rx = NCanon(ra.x);
  return rx == sig.r;
}

std::vector<uint8_t> VerifyBatch(std::span<const VerifyJob> jobs) {
  const size_t n = jobs.size();
  std::vector<uint8_t> ok(n, 0);
  if (n == 0) return ok;
  LEDGERDB_OBS_SPAN(span, obs::stages::kSigBatch);
  LEDGERDB_OBS_COUNT(obs::names::kCryptoBatchVerifyCallsTotal);
  LEDGERDB_OBS_COUNT_N(obs::names::kCryptoBatchVerifySigsTotal, n);
  LEDGERDB_OBS_OBSERVE(obs::names::kCryptoBatchChunkCount, n);

  // Screen malformed inputs. `winv` carries s for live jobs and zero for
  // dead ones; NInvBatch skips zeros, so a bad job never enters the
  // running product (per-signature failure isolation).
  std::vector<U256> winv(n);
  std::vector<uint8_t> live(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const VerifyJob& j = jobs[i];
    if (j.key == nullptr || j.message == nullptr || j.sig == nullptr) continue;
    if (!j.key->valid()) continue;
    if (j.sig->r.IsZero() || j.sig->s.IsZero()) continue;
    if (Compare(j.sig->r, kN) >= 0 || Compare(j.sig->s, kN) >= 0) continue;
    live[i] = 1;
    winv[i] = j.sig->s;
  }
  secp256k1::NInvBatch(winv.data(), n);

  // Temporary wNAF tables for live jobs without a cached context, all
  // normalized through one further shared field inversion.
  std::vector<size_t> uncached;
  for (size_t i = 0; i < n; ++i) {
    if (live[i] && jobs[i].ctx == nullptr) uncached.push_back(i);
  }
  std::vector<secp256k1::VerifyContext> temp_ctx(uncached.size());
  if (!uncached.empty()) {
    std::vector<AffinePoint> qs(uncached.size());
    for (size_t t = 0; t < uncached.size(); ++t) {
      qs[t] = jobs[uncached[t]].key->point();
    }
    secp256k1::VerifyContext::ForBatch(qs.data(), qs.size(), temp_ctx.data());
  }
  std::vector<const secp256k1::VerifyContext*> ctxs(n, nullptr);
  for (size_t i = 0; i < n; ++i) ctxs[i] = jobs[i].ctx;
  for (size_t t = 0; t < uncached.size(); ++t) {
    ctxs[uncached[t]] = &temp_ctx[t];
  }

  // All the ladders, results left Jacobian; dead slots stay at infinity
  // and are skipped by the batch normalization below.
  std::vector<JacobianPoint> rpts(n);
  for (size_t i = 0; i < n; ++i) {
    if (!live[i]) continue;
    U256 z = NCanon(U256::FromBigEndian(jobs[i].message->bytes.data()));
    U256 u1 = NMulMod(z, winv[i]);
    U256 u2 = NMulMod(jobs[i].sig->r, winv[i]);
    rpts[i] = secp256k1::DoubleScalarMul(u1, u2, *ctxs[i]);
  }

  // One batched field inversion normalizes every R point to affine.
  std::vector<AffinePoint> raff(n);
  secp256k1::BatchToAffine(rpts.data(), n, raff.data());
  for (size_t i = 0; i < n; ++i) {
    if (!live[i] || raff[i].infinity) continue;
    U256 rx = NCanon(raff[i].x);
    ok[i] = rx == jobs[i].sig->r ? 1 : 0;
  }
  size_t failures = 0;
  for (size_t i = 0; i < n; ++i) failures += ok[i] == 0;
  if (failures > 0) {
    LEDGERDB_OBS_COUNT_N(obs::names::kCryptoBatchVerifyFailuresTotal,
                         failures);
  }
  return ok;
}

}  // namespace ledgerdb
