#ifndef LEDGERDB_STORAGE_NODE_STORE_H_
#define LEDGERDB_STORAGE_NODE_STORE_H_

#include <unordered_map>
#include <unordered_set>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/hash.h"

namespace ledgerdb {

/// Content-addressed store for serialized Merkle/MPT nodes, keyed by their
/// digest. MPT versioned roots rely on nodes being immutable once written,
/// so the store never mutates an entry.
class NodeStore {
 public:
  virtual ~NodeStore() = default;

  /// Stores `node` under `key`. Idempotent: re-putting the same key is a
  /// no-op (contents are content-addressed, so they cannot differ).
  virtual Status Put(const Digest& key, Slice node) = 0;

  /// Fetches the node stored under `key`.
  virtual Status Get(const Digest& key, Bytes* out) const = 0;

  virtual bool Contains(const Digest& key) const = 0;

  /// Number of distinct nodes stored.
  virtual size_t Size() const = 0;

  /// Garbage collection: deletes every node NOT in `live` (the retention
  /// set built with Mpt::CollectReachable over the roots to keep).
  /// Returns the number of nodes removed.
  virtual size_t Sweep(
      const std::unordered_set<Digest, DigestHasher>& live) = 0;
};

/// Hash-map-backed node store.
class MemoryNodeStore : public NodeStore {
 public:
  Status Put(const Digest& key, Slice node) override;
  Status Get(const Digest& key, Bytes* out) const override;
  bool Contains(const Digest& key) const override;
  size_t Size() const override { return map_.size(); }
  size_t Sweep(const std::unordered_set<Digest, DigestHasher>& live) override;

 private:
  std::unordered_map<Digest, Bytes, DigestHasher> map_;
};

}  // namespace ledgerdb

#endif  // LEDGERDB_STORAGE_NODE_STORE_H_
