#include "ledger/block.h"

namespace ledgerdb {

Bytes BlockHeader::Serialize() const {
  Bytes out;
  PutU64(&out, height);
  PutU64(&out, first_jsn);
  PutU32(&out, journal_count);
  PutU64(&out, static_cast<uint64_t>(timestamp));
  for (const Digest* d :
       {&prev_block_hash, &tx_root, &fam_root, &clue_root, &state_root}) {
    PutDigest(&out, *d);
  }
  return out;
}

bool BlockHeader::Deserialize(Slice raw, BlockHeader* out) {
  ByteReader r(raw);
  out->height = r.U64();
  out->first_jsn = r.U64();
  out->journal_count = r.U32();
  out->timestamp = static_cast<Timestamp>(r.U64());
  for (Digest* d :
       {&out->prev_block_hash, &out->tx_root, &out->fam_root, &out->clue_root,
        &out->state_root}) {
    *d = r.Digest();
  }
  return r.AtEnd();
}

Digest BlockHeader::Hash() const { return Sha256::Hash(Serialize()); }

}  // namespace ledgerdb
