#ifndef LEDGERDB_CMTREE_CM_TREE_H_
#define LEDGERDB_CMTREE_CM_TREE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "accum/shrubs.h"
#include "common/status.h"
#include "mpt/mpt.h"
#include "storage/node_store.h"

namespace ledgerdb {

/// Proof returned by clue-oriented verification (§IV-C). Binds a range of a
/// clue's journal digests to the ledger's CM-Tree root:
///  - `batch` proves the entries inside the clue's own accumulator
///    (CM-Tree2) using the minimal node set of the 6-step algorithm;
///  - `mpt` proves that CM-Tree1 maps the scattered clue key to the
///    commitment (entry count + accumulator root) of that CM-Tree2.
struct ClueProof {
  std::string clue;
  uint64_t entry_count = 0;  ///< total entries under the clue (binds m)
  BatchProof batch;
  MptProof mpt;

  size_t CostInHashes() const {
    return batch.CostInHashes() + mpt.CostInHashes();
  }

  Bytes Serialize() const;
  static bool Deserialize(Slice raw, ClueProof* out);
};

/// Two-layer clue merged tree (CM-Tree, §IV-B). CM-Tree1 is a Merkle
/// Patricia Trie keyed by SHA-3–scattered clue strings; each leaf commits
/// that clue's CM-Tree2, an independent Shrubs accumulator of the clue's
/// journal digests. Because each CM-Tree2 is separate from the ledger-wide
/// accumulator, clue verification costs O(m) in the clue's own size and is
/// independent of total ledger size — the property Figure 9 measures.
class CmTree {
 public:
  CmTree();

  /// Not copyable: the trie points into the node store the tree owns.
  CmTree(const CmTree&) = delete;
  CmTree& operator=(const CmTree&) = delete;

  /// Appends a journal digest under `clue`; `entry_index` receives the
  /// entry's index inside the clue (its clue version).
  Status Append(const std::string& clue, const Digest& journal_digest,
                uint64_t* entry_index);

  /// Commitment over all clues (CM-Tree1 root). Record this per block for
  /// verifiable snapshots.
  Digest Root() const { return mpt_root_; }

  /// Number of entries currently under `clue` (0 if absent).
  uint64_t ClueCount(const std::string& clue) const;

  /// Builds a client-side proof for entries [begin, end) of `clue`
  /// (steps 1–5 of the §IV-C algorithm). `end == 0` means "through the
  /// latest entry".
  Status GetClueProof(const std::string& clue, uint64_t begin, uint64_t end,
                      ClueProof* proof) const;

  /// Step 6, client side: verifies `digests` (the journal digests claimed
  /// for entries [begin, end)) against `trusted_root`.
  static bool VerifyClueProof(const Digest& trusted_root,
                              const std::vector<Digest>& digests,
                              const ClueProof& proof);

  /// SHA-3 scattering of a clue string into its 32-byte CM-Tree1 key.
  static Digest ScatterClueKey(const std::string& clue) {
    return Sha3_256::Hash(clue);
  }

  /// Idle-time maintenance: drops CM-Tree1 snapshot nodes unreachable from
  /// the current root (copy-on-write garbage). Proofs against *historical*
  /// clue roots stop resolving; current proofs are unaffected. Returns the
  /// number of nodes reclaimed.
  Status Compact(size_t* reclaimed);

  /// Checkpoint serialization: every per-clue accumulator (CM-Tree2) plus
  /// the CM-Tree1 root and its reachable node set (historical snapshot
  /// garbage is not carried — the restored store matches a post-Compact
  /// image).
  Status SerializeTo(Bytes* out) const;

  /// Restores from SerializeTo output. Re-derives each node's content
  /// address before insertion and verifies CM-Tree1 maps every restored
  /// clue to exactly its restored accumulator's (count, root) commitment,
  /// so only a coherent tree can load. The caller must still cross-check
  /// Root() against an authenticated commitment.
  Status RestoreFrom(Slice raw);

 private:
  /// MPT leaf value: [u64 entry_count][32-byte accumulator root].
  static Bytes EncodeClueValue(uint64_t count, const Digest& accum_root);

  NodeStore store_;
  Mpt mpt_;
  Digest mpt_root_;
  std::unordered_map<std::string, ShrubsAccumulator> accumulators_;
};

}  // namespace ledgerdb

#endif  // LEDGERDB_CMTREE_CM_TREE_H_
