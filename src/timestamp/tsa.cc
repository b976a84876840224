#include "timestamp/tsa.h"

namespace ledgerdb {

Digest TimeAttestation::MessageHash() const {
  Bytes buf = StringToBytes("tsa-attest");
  PutDigest(&buf, digest);
  PutU64(&buf, static_cast<uint64_t>(timestamp));
  return Sha256::Hash(buf);
}

bool TimeAttestation::Verify(const PublicKey& tsa_key) const {
  return VerifySignature(tsa_key, MessageHash(), signature);
}

Bytes TimeAttestation::Serialize() const {
  Bytes out;
  PutDigest(&out, digest);
  PutU64(&out, static_cast<uint64_t>(timestamp));
  Bytes sig = signature.Serialize();
  out.insert(out.end(), sig.begin(), sig.end());
  return out;
}

bool TimeAttestation::Deserialize(Slice raw, TimeAttestation* out) {
  ByteReader r(raw);
  out->digest = r.Digest();
  out->timestamp = static_cast<Timestamp>(r.U64());
  return Signature::Deserialize(r.Fixed(64), &out->signature) && r.AtEnd();
}

TimeAttestation TsaService::Endorse(const Digest& digest) {
  TimeAttestation attestation;
  attestation.digest = digest;
  attestation.timestamp = clock_->Now();
  attestation.signature = key_.Sign(attestation.MessageHash());
  ++endorsements_;
  return attestation;
}

TimeAttestation TsaPool::Endorse(const Digest& digest) {
  TimeAttestation attestation = members_[next_]->Endorse(digest);
  next_ = (next_ + 1) % members_.size();
  return attestation;
}

bool TsaPool::VerifyAny(const TimeAttestation& attestation) const {
  for (const TsaService* tsa : members_) {
    if (attestation.Verify(tsa->public_key())) return true;
  }
  return false;
}

}  // namespace ledgerdb
