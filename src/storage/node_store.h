#ifndef LEDGERDB_STORAGE_NODE_STORE_H_
#define LEDGERDB_STORAGE_NODE_STORE_H_

#include <unordered_map>
#include <unordered_set>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/hash.h"

namespace ledgerdb {

/// Hash-map-backed, content-addressed store for serialized MPT nodes,
/// keyed by their digest. MPT versioned roots rely on nodes being
/// immutable once written, so the store never mutates an entry.
class NodeStore {
 public:
  /// Stores `node` under `key`. Idempotent: re-putting the same key is a
  /// no-op (contents are content-addressed, so they cannot differ).
  void Put(const Digest& key, Slice node) { map_.emplace(key, node.ToBytes()); }

  /// Fetches the node stored under `key`.
  Status Get(const Digest& key, Bytes* out) const;

  bool Contains(const Digest& key) const { return map_.count(key) != 0; }

  /// Number of distinct nodes stored.
  size_t Size() const { return map_.size(); }

  /// Garbage collection: deletes every node NOT in `live` (the retention
  /// set built with Mpt::CollectReachable over the roots to keep).
  /// Returns the number of nodes removed.
  size_t Sweep(const std::unordered_set<Digest, DigestHasher>& live);

 private:
  std::unordered_map<Digest, Bytes, DigestHasher> map_;
};

}  // namespace ledgerdb

#endif  // LEDGERDB_STORAGE_NODE_STORE_H_
