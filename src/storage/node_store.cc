#include "storage/node_store.h"

namespace ledgerdb {

Status MemoryNodeStore::Put(const Digest& key, Slice node) {
  map_.emplace(key, node.ToBytes());
  return Status::OK();
}

Status MemoryNodeStore::Get(const Digest& key, Bytes* out) const {
  auto it = map_.find(key);
  if (it == map_.end()) return Status::NotFound("node not in store");
  *out = it->second;
  return Status::OK();
}

bool MemoryNodeStore::Contains(const Digest& key) const {
  return map_.find(key) != map_.end();
}

size_t MemoryNodeStore::Sweep(
    const std::unordered_set<Digest, DigestHasher>& live) {
  size_t removed = 0;
  for (auto it = map_.begin(); it != map_.end();) {
    if (live.count(it->first) == 0) {
      it = map_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

}  // namespace ledgerdb
