#include "cmtree/cm_tree.h"

#include <algorithm>

namespace ledgerdb {

Bytes ClueProof::Serialize() const {
  Bytes out;
  PutLengthPrefixed(&out, StringToBytes(clue));
  PutU64(&out, entry_count);
  PutLengthPrefixed(&out, batch.Serialize());
  PutLengthPrefixed(&out, mpt.Serialize());
  return out;
}

bool ClueProof::Deserialize(Slice raw, ClueProof* out) {
  ByteReader r(raw);
  out->clue = r.LengthPrefixed().ToString();
  out->entry_count = r.U64();
  r.Nested(&out->batch);
  r.Nested(&out->mpt);
  return r.AtEnd();
}

CmTree::CmTree() : mpt_(&store_), mpt_root_(Mpt::EmptyRoot()) {}

Bytes CmTree::EncodeClueValue(uint64_t count, const Digest& accum_root) {
  Bytes out;
  PutU64(&out, count);
  PutDigest(&out, accum_root);
  return out;
}

Status CmTree::Append(const std::string& clue, const Digest& journal_digest,
                      uint64_t* entry_index) {
  // Step 1 of CM-Tree insertion: locate/extend the clue's own accumulator
  // (CM-Tree2) — O(1) thanks to Shrubs.
  ShrubsAccumulator& accum = accumulators_[clue];
  uint64_t index = accum.Append(journal_digest);
  // Step 2: refresh the clue's CM-Tree1 value and recompute the MPT path
  // hashes bottom-up (copy-on-write snapshot).
  Bytes value = EncodeClueValue(accum.size(), accum.Root());
  LEDGERDB_RETURN_IF_ERROR(
      mpt_.Put(mpt_root_, ScatterClueKey(clue), Slice(value), &mpt_root_));
  if (entry_index != nullptr) *entry_index = index;
  return Status::OK();
}

uint64_t CmTree::ClueCount(const std::string& clue) const {
  auto it = accumulators_.find(clue);
  return it == accumulators_.end() ? 0 : it->second.size();
}

Status CmTree::GetClueProof(const std::string& clue, uint64_t begin,
                            uint64_t end, ClueProof* proof) const {
  auto it = accumulators_.find(clue);
  if (it == accumulators_.end()) return Status::NotFound("unknown clue");
  const ShrubsAccumulator& accum = it->second;
  if (end == 0) end = accum.size();
  if (begin >= end || end > accum.size()) {
    return Status::OutOfRange("invalid clue entry range");
  }
  proof->clue = clue;
  proof->entry_count = accum.size();

  // Steps 1–4: destination leaf set N1, derived path sets N2/N3, minimal
  // retrieval set N — all inside GetBatchProof.
  std::vector<uint64_t> indices;
  indices.reserve(end - begin);
  for (uint64_t i = begin; i < end; ++i) indices.push_back(i);
  LEDGERDB_RETURN_IF_ERROR(accum.GetBatchProof(indices, &proof->batch));

  // Step 5: CM-Tree1 proof nodes across layers, bottom-up.
  return mpt_.GetProof(mpt_root_, ScatterClueKey(clue), &proof->mpt);
}

bool CmTree::VerifyClueProof(const Digest& trusted_root,
                             const std::vector<Digest>& digests,
                             const ClueProof& proof) {
  // Step 6(1): verify the entries against the clue's CM-Tree2.
  if (proof.batch.tree_size != proof.entry_count) return false;
  Digest accum_root = ShrubsAccumulator::BagPeaks(proof.batch.peaks);
  if (!ShrubsAccumulator::VerifyBatchProof(digests, proof.batch, accum_root)) {
    return false;
  }
  // Step 6(2): verify the CM-Tree1 route binds the clue to exactly this
  // accumulator commitment (count + root).
  Bytes expected_value = EncodeClueValue(proof.entry_count, accum_root);
  return Mpt::VerifyProof(trusted_root, ScatterClueKey(proof.clue),
                          Slice(expected_value), proof.mpt);
}

Status CmTree::Compact(size_t* reclaimed) {
  std::unordered_set<Digest, DigestHasher> live;
  LEDGERDB_RETURN_IF_ERROR(mpt_.CollectReachable(mpt_root_, &live));
  size_t removed = store_.Sweep(live);
  if (reclaimed != nullptr) *reclaimed = removed;
  return Status::OK();
}

Status CmTree::SerializeTo(Bytes* out) const {
  // Clues in sorted order so identical trees serialize to identical bytes
  // (the snapshot digest recorded in a checkpoint manifest depends on it).
  std::vector<const std::string*> clues;
  clues.reserve(accumulators_.size());
  for (const auto& entry : accumulators_) clues.push_back(&entry.first);
  std::sort(clues.begin(), clues.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  PutU64(out, accumulators_.size());
  for (const std::string* clue : clues) {
    PutLengthPrefixed(out, StringToBytes(*clue));
    accumulators_.at(*clue).SerializeTo(out);
  }
  PutDigest(out, mpt_root_);
  std::unordered_set<Digest, DigestHasher> live;
  LEDGERDB_RETURN_IF_ERROR(mpt_.CollectReachable(mpt_root_, &live));
  std::vector<Digest> keys(live.begin(), live.end());
  std::sort(keys.begin(), keys.end());
  PutU64(out, keys.size());
  for (const Digest& key : keys) {
    Bytes node;
    LEDGERDB_RETURN_IF_ERROR(store_.Get(key, &node));
    PutLengthPrefixed(out, node);
  }
  return Status::OK();
}

Status CmTree::RestoreFrom(Slice raw) {
  ByteReader r(raw);
  const uint64_t clue_count = r.U64();
  if (clue_count > r.remaining()) {
    return Status::Corruption("cmtree snapshot: clue count");
  }
  accumulators_.clear();
  for (uint64_t i = 0; i < clue_count; ++i) {
    std::string clue = r.LengthPrefixed().ToString();
    ShrubsAccumulator accum;
    if (!ShrubsAccumulator::DeserializeFrom(&r, &accum)) {
      return Status::Corruption("cmtree snapshot: clue accumulator");
    }
    if (accum.empty() || !accumulators_.emplace(clue, std::move(accum)).second) {
      return Status::Corruption("cmtree snapshot: duplicate or empty clue");
    }
  }
  const Digest root = r.Digest();
  const uint64_t node_count = r.U64();
  if (!r.ok() || node_count > r.remaining()) {
    return Status::Corruption("cmtree snapshot: node count");
  }
  for (uint64_t i = 0; i < node_count; ++i) {
    Slice node = r.LengthPrefixed();
    if (!r.ok()) return Status::Corruption("cmtree snapshot: node");
    // Content addresses are re-derived, never read from the snapshot: a
    // node that doesn't hash to its own key cannot enter the store.
    store_.Put(Sha256::Hash(node), node);
  }
  if (!r.AtEnd()) return Status::Corruption("cmtree snapshot: trailing bytes");
  mpt_root_ = root;
  // Coherence spot-check: CM-Tree1 must map a restored clue to exactly
  // its restored accumulator's commitment. The binding check is the
  // caller's root cross-check against the signed manifest — this walk is
  // defense-in-depth against a serializer bug pairing the layers wrong,
  // so a deterministic stride over ~64 clues suffices (small structures
  // get swept in full); a full sweep would dominate restore time with
  // per-clue MPT walks. Any surviving mismatch still cannot corrupt a
  // client: proofs over a miswired clue fail client-side verification.
  const uint64_t stride =
      accumulators_.size() <= 64 ? 1 : accumulators_.size() / 64;
  uint64_t index = 0;
  for (const auto& entry : accumulators_) {
    if (index++ % stride != 0) continue;
    Bytes value;
    Status s = mpt_.Get(mpt_root_, ScatterClueKey(entry.first), &value);
    if (!s.ok() ||
        value != EncodeClueValue(entry.second.size(), entry.second.Root())) {
      return Status::Corruption("cmtree snapshot: clue/MPT mismatch for " +
                                entry.first);
    }
  }
  if (clue_count == 0 && mpt_root_ != Mpt::EmptyRoot()) {
    return Status::Corruption("cmtree snapshot: root without clues");
  }
  return Status::OK();
}

}  // namespace ledgerdb
