#ifndef LEDGERDB_TIMESTAMP_TSA_H_
#define LEDGERDB_TIMESTAMP_TSA_H_

#include <cstdint>
#include <vector>

#include "common/clock.h"
#include "crypto/ecdsa.h"
#include "crypto/hash.h"

namespace ledgerdb {

/// A TSA endorsement π_t: the authority's signature over a digest–timestamp
/// pair (Protocol 3 step 1). Proves the digest existed no later than
/// `timestamp` according to the trusted authority's clock.
struct TimeAttestation {
  Digest digest;
  Timestamp timestamp = 0;
  Signature signature;

  /// The signed message: H("tsa-attest" || digest || timestamp).
  Digest MessageHash() const;

  /// Verifies the signature against the TSA's public key.
  bool Verify(const PublicKey& tsa_key) const;

  Bytes Serialize() const;
  static bool Deserialize(Slice raw, TimeAttestation* out);
};

/// Time Stamp Authority (Prerequisite 3): an independent trusted third
/// party whose public key is CA-certified. This in-process substitute for
/// the national TSA services preserves the protocol-relevant behavior —
/// an authoritative clock plus non-repudiable signatures.
class TsaService {
 public:
  TsaService(KeyPair key, Clock* clock) : key_(std::move(key)), clock_(clock) {}

  /// Assigns the current authoritative timestamp to `digest` and signs the
  /// pair.
  TimeAttestation Endorse(const Digest& digest);

  const PublicKey& public_key() const { return key_.public_key(); }

  /// Endorsements issued so far (cost metric: TSA interaction is the
  /// expensive step T-Ledger amortizes).
  uint64_t endorsement_count() const { return endorsements_; }

 private:
  KeyPair key_;
  Clock* clock_;
  uint64_t endorsements_ = 0;
};

/// Round-robin pool of independent TSA services (§III-B1: "we utilize a
/// pool of independent TSA services ... to enhance system availability").
/// A verifier accepts an attestation from any pool member.
class TsaPool {
 public:
  void Add(TsaService* tsa) { members_.push_back(tsa); }

  size_t size() const { return members_.size(); }

  /// Endorses with the next pool member.
  TimeAttestation Endorse(const Digest& digest);

  /// True if `attestation` verifies against any member's key.
  bool VerifyAny(const TimeAttestation& attestation) const;

 private:
  std::vector<TsaService*> members_;
  size_t next_ = 0;
};

}  // namespace ledgerdb

#endif  // LEDGERDB_TIMESTAMP_TSA_H_
