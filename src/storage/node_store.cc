#include "storage/node_store.h"

namespace ledgerdb {

Status NodeStore::Get(const Digest& key, Bytes* out) const {
  auto it = map_.find(key);
  if (it == map_.end()) return Status::NotFound("node not in store");
  *out = it->second;
  return Status::OK();
}

size_t NodeStore::Sweep(const std::unordered_set<Digest, DigestHasher>& live) {
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
