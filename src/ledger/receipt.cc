#include "ledger/receipt.h"

namespace ledgerdb {

Digest Receipt::MessageHash() const {
  Bytes buf = StringToBytes("receipt");
  PutU64(&buf, jsn);
  for (const Digest* d : {&request_hash, &tx_hash, &block_hash}) {
    PutDigest(&buf, *d);
  }
  PutU64(&buf, static_cast<uint64_t>(timestamp));
  return Sha256::Hash(buf);
}

bool Receipt::Verify(const PublicKey& lsp_key) const {
  return VerifySignature(lsp_key, MessageHash(), lsp_sig);
}

Bytes Receipt::Serialize() const {
  Bytes out;
  PutU64(&out, jsn);
  for (const Digest* d : {&request_hash, &tx_hash, &block_hash}) {
    PutDigest(&out, *d);
  }
  PutU64(&out, static_cast<uint64_t>(timestamp));
  Bytes sig = lsp_sig.Serialize();
  out.insert(out.end(), sig.begin(), sig.end());
  return out;
}

bool Receipt::Deserialize(Slice raw, Receipt* out) {
  ByteReader r(raw);
  out->jsn = r.U64();
  out->request_hash = r.Digest();
  out->tx_hash = r.Digest();
  out->block_hash = r.Digest();
  out->timestamp = static_cast<Timestamp>(r.U64());
  return Signature::Deserialize(r.Fixed(64), &out->lsp_sig) && r.AtEnd();
}

Digest SignedCommitment::MessageHash() const {
  Bytes buf = StringToBytes("commitment");
  PutU32(&buf, static_cast<uint32_t>(ledger_uri.size()));
  Bytes uri = StringToBytes(ledger_uri);
  buf.insert(buf.end(), uri.begin(), uri.end());
  PutU64(&buf, journal_count);
  for (const Digest* d : {&fam_root, &clue_root, &state_root}) {
    PutDigest(&buf, *d);
  }
  PutU64(&buf, static_cast<uint64_t>(timestamp));
  return Sha256::Hash(buf);
}

bool SignedCommitment::Verify(const PublicKey& lsp_key) const {
  return VerifySignature(lsp_key, MessageHash(), lsp_sig);
}

Bytes SignedCommitment::Serialize() const {
  Bytes out;
  PutLengthPrefixed(&out, StringToBytes(ledger_uri));
  PutU64(&out, journal_count);
  for (const Digest* d : {&fam_root, &clue_root, &state_root}) {
    PutDigest(&out, *d);
  }
  PutU64(&out, static_cast<uint64_t>(timestamp));
  Bytes sig = lsp_sig.Serialize();
  out.insert(out.end(), sig.begin(), sig.end());
  return out;
}

bool SignedCommitment::Deserialize(Slice raw, SignedCommitment* out) {
  ByteReader r(raw);
  out->ledger_uri = r.LengthPrefixed().ToString();
  out->journal_count = r.U64();
  out->fam_root = r.Digest();
  out->clue_root = r.Digest();
  out->state_root = r.Digest();
  out->timestamp = static_cast<Timestamp>(r.U64());
  return Signature::Deserialize(r.Fixed(64), &out->lsp_sig) && r.AtEnd();
}

}  // namespace ledgerdb
