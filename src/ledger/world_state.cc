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

Bytes WorldState::EncodeCurrent(uint64_t version, const Bytes& value) {
  Bytes out;
  PutU64(&out, version);
  PutDigest(&out, Sha256::Hash(value));
  return out;
}

Status WorldState::Put(const std::string& key, const Bytes& value,
                       uint64_t* update_index) {
  Entry& entry = state_[key];
  uint64_t version = entry.version++;
  entry.value = value;
  uint64_t index = accum_.Append(UpdateDigest(key, version, value));
  LEDGERDB_RETURN_IF_ERROR(mpt_.Put(mpt_root_, Sha3_256::Hash(key),
                                    Slice(EncodeCurrent(version, value)),
                                    &mpt_root_));
  if (update_index != nullptr) *update_index = index;
  return Status::OK();
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

Status WorldState::GetCurrentProof(const std::string& key,
                                   MptProof* proof) const {
  return mpt_.GetProof(mpt_root_, Sha3_256::Hash(key), proof);
}

Status WorldState::SerializeTo(Bytes* out) const {
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
  PutDigest(out, mpt_root_);
  std::unordered_set<Digest, DigestHasher> live;
  LEDGERDB_RETURN_IF_ERROR(mpt_.CollectReachable(mpt_root_, &live));
  std::vector<Digest> node_keys(live.begin(), live.end());
  std::sort(node_keys.begin(), node_keys.end());
  PutU64(out, node_keys.size());
  for (const Digest& key : node_keys) {
    Bytes node;
    LEDGERDB_RETURN_IF_ERROR(mpt_store_.Get(key, &node));
    PutLengthPrefixed(out, node);
  }
  return Status::OK();
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
  const Digest root = r.Digest();
  const uint64_t node_count = r.U64();
  if (!r.ok() || node_count > r.remaining()) {
    return Status::Corruption("world-state snapshot: node count");
  }
  for (uint64_t i = 0; i < node_count; ++i) {
    Slice node = r.LengthPrefixed();
    if (!r.ok()) return Status::Corruption("world-state snapshot: node");
    LEDGERDB_RETURN_IF_ERROR(mpt_store_.Put(Sha256::Hash(node), node));
  }
  if (!r.AtEnd()) {
    return Status::Corruption("world-state snapshot: trailing bytes");
  }
  mpt_root_ = root;
  // Coherence spot-check over a deterministic stride of ~64 keys (small
  // maps are swept in full): the binding check is the caller's root
  // cross-check against the signed manifest; this walk only guards
  // against a serializer bug pairing the key map with the wrong MPT
  // leaves, and each probe costs a Sha3 + full MPT descent. A surviving
  // mismatch cannot corrupt a client — current-state proofs over a
  // miswired key fail client-side verification.
  const uint64_t stride = state_.size() <= 64 ? 1 : state_.size() / 64;
  uint64_t index = 0;
  for (const auto& entry : state_) {
    if (index++ % stride != 0) continue;
    Bytes value;
    Status s = mpt_.Get(mpt_root_, Sha3_256::Hash(entry.first), &value);
    if (!s.ok() || value != EncodeCurrent(entry.second.version - 1,
                                          entry.second.value)) {
      return Status::Corruption("world-state snapshot: key/MPT mismatch for " +
                                entry.first);
    }
  }
  if (key_count == 0 && mpt_root_ != Mpt::EmptyRoot()) {
    return Status::Corruption("world-state snapshot: root without keys");
  }
  return Status::OK();
}

bool WorldState::VerifyUpdate(const std::string& key, uint64_t version,
                              const Bytes& value, const MembershipProof& proof,
                              const Digest& trusted_root) {
  return ShrubsAccumulator::VerifyProof(UpdateDigest(key, version, value),
                                        proof, trusted_root);
}

bool WorldState::VerifyCurrent(const std::string& key, uint64_t version,
                               const Bytes& value, const MptProof& proof,
                               const Digest& trusted_current_root) {
  Bytes expected = EncodeCurrent(version, value);
  return Mpt::VerifyProof(trusted_current_root, Sha3_256::Hash(key),
                          Slice(expected), proof);
}

}  // namespace ledgerdb
