#ifndef LEDGERDB_LEDGER_LEDGER_MIRROR_H_
#define LEDGERDB_LEDGER_LEDGER_MIRROR_H_

#include <cstdint>
#include <map>

#include "accum/fam.h"
#include "cmtree/cm_tree.h"
#include "common/status.h"
#include "ledger/journal.h"
#include "ledger/world_state.h"
#include "storage/checkpoint.h"

namespace ledgerdb {

/// The commitment core: the three accumulators behind every signed root
/// (fam, CM-Tree, world state), fed by JournalDeltas. It is the one place
/// a journal's accumulator transitions are made. The Ledger commits,
/// replays and restores through it, and every client mirror and auditor
/// replays the served deltas through the same Apply, so replaying a
/// ledger's deltas reproduces its roots bit for bit. That is what lets an
/// audited RefreshTrustedRoots *verify* a claimed commitment instead of
/// blindly pinning it, and what CrossCheckCommitments compares at
/// arbitrary historical journal counts (fam RootAtJournalCount).
///
/// Not copyable, because CmTree is not (its trie points into the node
/// store the tree owns); to roll back a failed speculative apply, rebuild
/// from the retained deltas.
class LedgerMirror {
 public:
  /// The second argument is ignored; it keeps two-argument callers
  /// compiling.
  explicit LedgerMirror(int fractal_height, int /*ignored*/ = 0)
      : fam_(fractal_height) {}

  LedgerMirror(const LedgerMirror&) = delete;
  LedgerMirror& operator=(const LedgerMirror&) = delete;

  /// Applies one journal's effects: tx-hash into fam, and per clue a
  /// CM-Tree append plus a world-state put of the payload digest.
  Status Apply(const JournalDelta& delta);

  uint64_t journal_count() const { return fam_.size(); }
  Digest fam_root() const { return fam_.Root(); }
  Digest clue_root() const { return cmtree_.Root(); }
  Digest state_root() const { return world_state_.Root(); }

  /// fam commitment as it stood after `count` journals (gossip cross-check
  /// of another client's pinned commitments, block-header checks).
  Status RootAtJournalCount(uint64_t count, Digest* out) const {
    return fam_.RootAtJournalCount(count, out);
  }

  /// The accumulators, for proof building, the proof-cache hookup, purge
  /// pruning and clue-tree compaction. None of those moves a root; every
  /// transition goes through Apply.
  FamAccumulator& fam() { return fam_; }
  const FamAccumulator& fam() const { return fam_; }
  CmTree& cmtree() { return cmtree_; }
  const CmTree& cmtree() const { return cmtree_; }
  const WorldState& world_state() const { return world_state_; }

  /// Appends the kCkptSectionFam, kCkptSectionCmTree and
  /// kCkptSectionWorldState sections, in that order, to `snapshot`.
  Status AppendCheckpointSections(Bytes* snapshot) const;

  /// Adopts those three sections into this fresh core. Each restore
  /// validates its own shape, re-derives MPT content addresses and checks
  /// leaf coherence; the journal count must then equal the manifest's
  /// watermark and the three roots the manifest's signed roots, so only
  /// an image that re-derives the signed commitment can load.
  Status RestoreCheckpointSections(const std::map<uint32_t, Slice>& sections,
                                   const CheckpointManifest& manifest);

 private:
  FamAccumulator fam_;
  CmTree cmtree_;
  WorldState world_state_;
};

}  // namespace ledgerdb

#endif  // LEDGERDB_LEDGER_LEDGER_MIRROR_H_
