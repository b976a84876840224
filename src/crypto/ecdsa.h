#ifndef LEDGERDB_CRYPTO_ECDSA_H_
#define LEDGERDB_CRYPTO_ECDSA_H_

#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/random.h"
#include "crypto/hash.h"
#include "crypto/secp256k1.h"

namespace ledgerdb {

/// secp256k1 public key (affine point). Serialized as 64 bytes (x || y,
/// big-endian).
class PublicKey {
 public:
  PublicKey() = default;
  explicit PublicKey(const secp256k1::AffinePoint& point) : point_(point) {}

  const secp256k1::AffinePoint& point() const { return point_; }
  bool valid() const { return !point_.infinity && point_.IsOnCurve(); }

  Bytes Serialize() const;
  static bool Deserialize(Slice raw, PublicKey* out);

  /// Stable identifier for registries and receipts: SHA-256 of the
  /// serialized key.
  Digest Id() const;

  bool operator==(const PublicKey& o) const { return point_ == o.point_; }

 private:
  secp256k1::AffinePoint point_;
};

/// ECDSA signature (r, s), 64 bytes serialized. Signatures are produced with
/// RFC-6979 deterministic nonces and normalized to low-s form.
struct Signature {
  U256 r;
  U256 s;

  Bytes Serialize() const;
  static bool Deserialize(Slice raw, Signature* out);
};

/// Private/public key pair. The threat model (§II-B) assumes ECDSA is
/// reliable; every ledger participant (user, LSP, TSA, regulator) holds one.
class KeyPair {
 public:
  KeyPair() = default;

  /// Derives a key pair from explicit secret bytes (test vectors).
  static KeyPair FromSecret(const U256& secret);

  /// Deterministically generates a key pair from `rng`.
  static KeyPair Generate(Random* rng);

  /// Convenience: key pair derived from a seed string (hashed to a scalar).
  /// Used by tests and examples to create stable named identities.
  static KeyPair FromSeedString(std::string_view seed);

  const PublicKey& public_key() const { return public_key_; }
  const U256& secret() const { return secret_; }
  bool valid() const { return !secret_.IsZero(); }

  /// Signs a 32-byte message digest.
  Signature Sign(const Digest& message) const;

 private:
  U256 secret_;
  PublicKey public_key_;
};

/// Verifies `sig` over `message` against `key`. Returns false for malformed
/// inputs (zero r/s, out-of-range values, invalid key).
bool VerifySignature(const PublicKey& key, const Digest& message,
                     const Signature& sig);

/// Verification with an optional precomputed per-key context (from
/// secp256k1::VerifyContext::For(key.point())). `ctx` must have been built
/// for `key`; pass nullptr to fall back to the one-shot path. Repeat
/// signers skip the G+Q point setup on every verify.
bool VerifySignature(const PublicKey& key, const Digest& message,
                     const Signature& sig,
                     const secp256k1::VerifyContext* ctx);

/// One signature check inside a VerifyBatch chunk. The pointed-to objects
/// must stay alive for the duration of the call; `ctx` is optional (from
/// MemberRegistry::FindVerifyContext) — jobs without one get a temporary
/// wNAF table, batch-normalized together with the chunk's other
/// context-less jobs.
struct VerifyJob {
  const PublicKey* key = nullptr;
  const Digest* message = nullptr;
  const Signature* sig = nullptr;
  const secp256k1::VerifyContext* ctx = nullptr;
};

/// Batched ECDSA verification: accept/reject-identical to calling
/// VerifySignature once per job, but the whole chunk shares ONE batched
/// modular inversion for all s⁻¹ mod n values and ONE batched field
/// inversion to normalize every resulting R point to affine (Montgomery's
/// trick both times). Each result is independent — a malformed or
/// mis-signed job fails alone and never poisons its chunk.
std::vector<uint8_t> VerifyBatch(std::span<const VerifyJob> jobs);

}  // namespace ledgerdb

#endif  // LEDGERDB_CRYPTO_ECDSA_H_
