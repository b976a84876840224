#ifndef LEDGERDB_LEDGER_BLOCK_H_
#define LEDGERDB_LEDGER_BLOCK_H_

#include <cstdint>
#include <vector>

#include "common/clock.h"
#include "crypto/hash.h"

namespace ledgerdb {

/// Sealed block header. Blocks batch journals for receipt issuance and
/// carry the per-block verifiable snapshots: the fam root (journal
/// accumulator), the CM-Tree root (clue state) and the world-state root,
/// matching the LedgerInfo structure of Figure 2. Headers are hash-linked.
struct BlockHeader {
  uint64_t height = 0;
  uint64_t first_jsn = 0;
  uint32_t journal_count = 0;
  Timestamp timestamp = 0;
  Digest prev_block_hash;
  Digest tx_root;     ///< Merkle root over the block's tx-hashes
  Digest fam_root;    ///< fam commitment after this block
  Digest clue_root;   ///< CM-Tree1 root after this block
  Digest state_root;  ///< world-state accumulator root after this block

  /// Digest of the serialized header — the block-hash used in receipts and
  /// in the audit's boundary verification.
  Digest Hash() const;

  Bytes Serialize() const;
  static bool Deserialize(Slice raw, BlockHeader* out);
};

}  // namespace ledgerdb

#endif  // LEDGERDB_LEDGER_BLOCK_H_
