#include "timestamp/t_ledger.h"

namespace ledgerdb {

Digest TLedgerReceipt::MessageHash(const Digest& digest) const {
  Bytes buf = StringToBytes("tledger-receipt");
  PutDigest(&buf, digest);
  PutU64(&buf, index);
  PutU64(&buf, static_cast<uint64_t>(client_ts));
  PutU64(&buf, static_cast<uint64_t>(tledger_ts));
  return Sha256::Hash(buf);
}

Bytes TimeProof::Serialize() const {
  Bytes out;
  PutU64(&out, index);
  PutU64(&out, static_cast<uint64_t>(tledger_ts));
  PutU64(&out, finalized_size);
  PutLengthPrefixed(&out, membership.Serialize());
  PutLengthPrefixed(&out, finalization.Serialize());
  return out;
}

bool TimeProof::Deserialize(Slice raw, TimeProof* out) {
  ByteReader r(raw);
  out->index = r.U64();
  out->tledger_ts = static_cast<Timestamp>(r.U64());
  out->finalized_size = r.U64();
  r.Nested(&out->membership);
  r.Nested(&out->finalization);
  return r.AtEnd();
}

TLedger::TLedger(TsaService* tsa, Clock* clock, KeyPair lsp_key,
                 Options options)
    : tsa_(tsa),
      clock_(clock),
      lsp_key_(std::move(lsp_key)),
      options_(options),
      last_finalize_(clock->Now()) {}

Status TLedger::Submit(const Digest& digest, Timestamp tau_c,
                       TLedgerReceipt* receipt) {
  Timestamp tau_t = clock_->Now();
  // Protocol 4 admission: τ_t < τ_c + τ_Δ. A stale submission (the
  // amplification attack's delayed anchor) is rejected outright.
  if (tau_t >= tau_c + options_.tau_delta) {
    ++rejected_;
    return Status::TimestampRejected("submission delay exceeds tau_delta");
  }
  receipt->index = accum_.Append(digest);
  receipt->client_ts = tau_c;
  receipt->tledger_ts = tau_t;
  receipt->lsp_signature = lsp_key_.Sign(receipt->MessageHash(digest));
  return Status::OK();
}

bool TLedger::Tick() {
  Timestamp now = clock_->Now();
  if (now - last_finalize_ < options_.finalize_interval) return false;
  if (accum_.size() == finalized_through_) {
    last_finalize_ = now;
    return false;
  }
  ForceFinalize();
  return true;
}

void TLedger::ForceFinalize() {
  // Top layer, Protocol 3: two-way pegging of the T-Ledger root with TSA.
  Finalization fin;
  fin.size = accum_.size();
  fin.attestation = tsa_->Endorse(accum_.Root());
  finalizations_.push_back(fin);
  finalized_through_ = fin.size;
  last_finalize_ = clock_->Now();
}

Status TLedger::GetTimeProof(uint64_t index, TimeProof* proof) const {
  if (index >= accum_.size()) return Status::OutOfRange("index out of range");
  // First finalization whose covered size includes the index.
  const Finalization* covering = nullptr;
  for (const Finalization& fin : finalizations_) {
    if (fin.size > index) {
      covering = &fin;
      break;
    }
  }
  if (covering == nullptr) {
    return Status::NotFound("no finalization covers this submission yet");
  }
  proof->index = index;
  proof->finalized_size = covering->size;
  proof->finalization = covering->attestation;
  return accum_.GetProofAtSize(index, covering->size, &proof->membership);
}

bool TLedger::VerifyTimeProof(const Digest& digest, const TimeProof& proof,
                              const PublicKey& tsa_key) {
  // TSA really signed this root at this time, and the digest sits under it.
  return proof.finalization.Verify(tsa_key) &&
         VerifyTimeProofPath(digest, proof);
}

bool TLedger::VerifyTimeProofPath(const Digest& digest,
                                  const TimeProof& proof) {
  // The membership proof is against exactly the finalized size, sits
  // at the claimed submission index, and its peaks bag into the attested
  // root. Binding leaf_index to proof.index stops an index relabel that
  // would shift which T-Ledger slot the attestation is claimed for.
  if (proof.membership.tree_size != proof.finalized_size) return false;
  if (proof.membership.leaf_index != proof.index) return false;
  return ShrubsAccumulator::VerifyProof(digest, proof.membership,
                                        proof.finalization.digest);
}

bool TLedger::VerifyReceipt(const Digest& digest,
                            const TLedgerReceipt& receipt) const {
  return VerifySignature(lsp_key_.public_key(), receipt.MessageHash(digest),
                         receipt.lsp_signature);
}

}  // namespace ledgerdb
