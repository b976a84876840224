#ifndef LEDGERDB_NET_MIRROR_H_
#define LEDGERDB_NET_MIRROR_H_

#include "accum/fam.h"
#include "cmtree/cm_tree.h"
#include "ledger/journal.h"
#include "ledger/world_state.h"
#include "storage/node_store.h"

namespace ledgerdb {

/// Client-side replica of the server's three commitment accumulators, fed
/// by JournalDeltas. Apply() performs exactly the accumulator transitions
/// Ledger::Accumulate performs, so after replaying the same deltas the
/// mirror's roots are bit-identical to the server's — this is what lets an
/// audited RefreshTrustedRoots *verify* a claimed commitment instead of
/// blindly pinning it, and what CrossCheckCommitments compares at
/// arbitrary historical journal counts (fam RootAtJournalCount).
///
/// Not copyable (the CM-Tree holds a pointer into the node store); to roll
/// back a failed speculative apply, rebuild from the retained deltas.
class LedgerMirror {
 public:
  LedgerMirror(int fractal_height, int mpt_cache_depth)
      : fam_(fractal_height), cmtree_(&store_, mpt_cache_depth) {}

  LedgerMirror(const LedgerMirror&) = delete;
  LedgerMirror& operator=(const LedgerMirror&) = delete;

  /// Replays one journal's effects: tx-hash into fam, and per clue a
  /// CM-Tree append plus a world-state put of the payload digest.
  Status Apply(const JournalDelta& delta) {
    fam_.Append(delta.tx_hash);
    for (const std::string& clue : delta.clues) {
      LEDGERDB_RETURN_IF_ERROR(cmtree_.Append(clue, delta.tx_hash, nullptr));
      LEDGERDB_RETURN_IF_ERROR(
          world_state_.Put(clue, delta.payload_digest.ToBytes()));
    }
    return Status::OK();
  }

  uint64_t journal_count() const { return fam_.size(); }
  Digest fam_root() const { return fam_.Root(); }
  Digest clue_root() const { return cmtree_.Root(); }
  Digest state_root() const { return world_state_.Root(); }

  /// fam commitment as it stood after `count` journals (gossip cross-check
  /// of another client's pinned commitments).
  Status RootAtJournalCount(uint64_t count, Digest* out) const {
    return fam_.RootAtJournalCount(count, out);
  }

 private:
  FamAccumulator fam_;
  MemoryNodeStore store_;
  CmTree cmtree_;
  WorldState world_state_;
};

}  // namespace ledgerdb

#endif  // LEDGERDB_NET_MIRROR_H_
