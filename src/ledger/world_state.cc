#include "ledger/world_state.h"

#include <algorithm>

namespace ledgerdb {

Digest WorldState::UpdateDigest(const std::string& key, uint64_t version,
                                const Bytes& value) {
  Bytes buf = StringToBytes("state-update");
  PutLengthPrefixed(&buf, StringToBytes(key));
  PutU64(&buf, version);
  PutLengthPrefixed(&buf, value);
  return Sha256::Hash(buf);
}

void WorldState::Put(const std::string& key, const Bytes& value) {
  Entry& entry = state_[key];
  accum_.Append(UpdateDigest(key, entry.version++, value));
  entry.value = value;
}

Status WorldState::Get(const std::string& key, Bytes* value) const {
  auto it = state_.find(key);
  if (it == state_.end()) return Status::NotFound("state key absent");
  *value = it->second.value;
  return Status::OK();
}

uint64_t WorldState::Version(const std::string& key) const {
  auto it = state_.find(key);
  return it == state_.end() ? 0 : it->second.version;
}

Status WorldState::GetUpdateProof(uint64_t update_index,
                                  MembershipProof* proof) const {
  return accum_.GetProof(update_index, proof);
}

void WorldState::SerializeTo(Bytes* out) const {
  accum_.SerializeTo(out);
  // Keys in sorted order for deterministic snapshot bytes.
  std::vector<const std::string*> keys;
  keys.reserve(state_.size());
  for (const auto& entry : state_) keys.push_back(&entry.first);
  std::sort(keys.begin(), keys.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  PutU64(out, state_.size());
  for (const std::string* key : keys) {
    const Entry& entry = state_.at(*key);
    PutLengthPrefixed(out, StringToBytes(*key));
    PutU64(out, entry.version);
    PutLengthPrefixed(out, entry.value);
  }
}

Status WorldState::RestoreFrom(Slice raw) {
  ByteReader r(raw);
  if (!ShrubsAccumulator::DeserializeFrom(&r, &accum_)) {
    return Status::Corruption("world-state snapshot: accumulator");
  }
  const uint64_t key_count = r.U64();
  if (!r.ok() || key_count > r.remaining()) {
    return Status::Corruption("world-state snapshot: key count");
  }
  state_.clear();
  uint64_t total_versions = 0;
  for (uint64_t i = 0; i < key_count; ++i) {
    std::string key = r.LengthPrefixed().ToString();
    Entry entry;
    entry.version = r.U64();
    entry.value = r.LengthPrefixed().ToBytes();
    if (!r.ok()) return Status::Corruption("world-state snapshot: entry");
    if (entry.version == 0 || !state_.emplace(key, std::move(entry)).second) {
      return Status::Corruption("world-state snapshot: duplicate or zero key");
    }
    total_versions += state_.at(key).version;
  }
  // Every transition ever applied is one accumulator leaf.
  if (total_versions != accum_.size()) {
    return Status::Corruption("world-state snapshot: version/accum mismatch");
  }
  if (!r.AtEnd()) {
    return Status::Corruption("world-state snapshot: trailing bytes");
  }
  return Status::OK();
}

bool WorldState::VerifyUpdate(const std::string& key, uint64_t version,
                              const Bytes& value, const MembershipProof& proof,
                              const Digest& trusted_root) {
  return ShrubsAccumulator::VerifyProof(UpdateDigest(key, version, value),
                                        proof, trusted_root);
}

}  // namespace ledgerdb
