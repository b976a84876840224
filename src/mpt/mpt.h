#ifndef LEDGERDB_MPT_MPT_H_
#define LEDGERDB_MPT_MPT_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/hash.h"
#include "storage/node_store.h"

namespace ledgerdb {

/// Authenticated path for one key in a Merkle Patricia Trie: the serialized
/// nodes from the root down to the terminal node. The verifier re-hashes
/// each node and checks it is referenced by its parent while consuming the
/// key's nibbles.
struct MptProof {
  std::vector<Bytes> nodes;

  /// Digests touched during verification (cost metric).
  size_t CostInHashes() const { return nodes.size(); }

  Bytes Serialize() const;
  static bool Deserialize(Slice raw, MptProof* out);
};

/// Copy-on-write Merkle Patricia Trie (§IV-B): 16-way branch nodes,
/// path-compressing extension nodes and leaf nodes, over fixed-length
/// 32-byte keys (64 nibbles). Keys are expected to be pre-scattered with
/// SHA-3 (see CmTree) so the trie stays balanced.
///
/// Every update allocates fresh nodes bottom-up and returns a new root
/// digest; all prior roots remain valid snapshots backed by the same
/// NodeStore (this is how per-block verifiable snapshots are captured).
/// Keys are never deleted: ledger clues only accumulate.
class Mpt {
 public:
  /// `cache_depth`: nodes at trie depth < cache_depth are written to the
  /// hot tier when the store is a TieredNodeStore (the paper's "top layers
  /// cached in memory" deployment). Pass 0 to disable tier hints.
  explicit Mpt(NodeStore* store, int cache_depth = 0)
      : store_(store), cache_depth_(cache_depth) {}

  /// Root digest of the empty trie (all zeros).
  static Digest EmptyRoot() { return Digest(); }

  /// Inserts or overwrites `key -> value` in the snapshot rooted at `root`;
  /// returns the new snapshot root via `new_root`.
  Status Put(const Digest& root, const Digest& key, Slice value,
             Digest* new_root);

  /// Looks up `key` in the snapshot rooted at `root`.
  Status Get(const Digest& root, const Digest& key, Bytes* value) const;

  /// Builds a membership proof for `key` in the snapshot rooted at `root`.
  Status GetProof(const Digest& root, const Digest& key,
                  MptProof* proof) const;

  /// Verifies that `proof` binds `key -> expected_value` under
  /// `trusted_root`. Pure function: needs no store access.
  static bool VerifyProof(const Digest& trusted_root, const Digest& key,
                          Slice expected_value, const MptProof& proof);

  /// Statistics: number of nodes written since construction.
  uint64_t NodesWritten() const { return nodes_written_; }

  /// Marks every node reachable from `root` into `live` (snapshot
  /// retention set for garbage collection). Roots whose nodes were
  /// already collected are cheap to re-mark (set dedup).
  Status CollectReachable(const Digest& root,
                          std::unordered_set<Digest, DigestHasher>* live) const;

 private:
  /// Nibble-level view of a key suffix.
  struct PathView {
    const uint8_t* nibbles;
    size_t size;
  };

  Digest PutRec(const Digest& node_ref, PathView path, Slice value, int depth,
                Status* status);
  Digest WriteNode(const Bytes& serialized, int depth);

  NodeStore* store_;
  int cache_depth_;
  uint64_t nodes_written_ = 0;
};

/// Expands a 32-byte key into 64 nibbles (high nibble first).
std::vector<uint8_t> KeyToNibbles(const Digest& key);

}  // namespace ledgerdb

#endif  // LEDGERDB_MPT_MPT_H_
