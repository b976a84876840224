#include "accum/shrubs.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace ledgerdb {

namespace {

constexpr uint32_t kMaxProofElements = 1 << 20;

}  // namespace

Bytes MembershipProof::Serialize() const {
  Bytes out;
  PutU64(&out, leaf_index);
  PutU64(&out, tree_size);
  PutU32(&out, static_cast<uint32_t>(siblings.size()));
  for (size_t i = 0; i < siblings.size(); ++i) {
    out.push_back(sibling_is_left[i] ? 1 : 0);
    PutDigest(&out, siblings[i]);
  }
  PutU32(&out, static_cast<uint32_t>(peaks.size()));
  for (const Digest& peak : peaks) PutDigest(&out, peak);
  PutU32(&out, static_cast<uint32_t>(peak_index));
  return out;
}

bool MembershipProof::Deserialize(Slice raw, MembershipProof* out) {
  ByteReader r(raw);
  out->leaf_index = r.U64();
  out->tree_size = r.U64();
  uint32_t count = r.Count(64);
  out->siblings.assign(count, Digest());
  out->sibling_is_left.assign(count, false);
  for (uint32_t i = 0; i < count; ++i) {
    out->sibling_is_left[i] = r.Bool();
    out->siblings[i] = r.Digest();
  }
  out->peaks.assign(r.Count(64), Digest());
  for (Digest& peak : out->peaks) peak = r.Digest();
  out->peak_index = r.U32();
  return r.AtEnd();
}

Bytes BatchProof::Serialize() const {
  Bytes out;
  PutU64(&out, tree_size);
  PutU32(&out, static_cast<uint32_t>(leaf_indices.size()));
  for (uint64_t index : leaf_indices) PutU64(&out, index);
  PutU32(&out, static_cast<uint32_t>(nodes.size()));
  for (const ProofNode& node : nodes) {
    PutU32(&out, static_cast<uint32_t>(node.level));
    PutU64(&out, node.index);
    PutDigest(&out, node.digest);
  }
  PutU32(&out, static_cast<uint32_t>(peaks.size()));
  for (const Digest& peak : peaks) PutDigest(&out, peak);
  return out;
}

bool BatchProof::Deserialize(Slice raw, BatchProof* out) {
  ByteReader r(raw);
  out->tree_size = r.U64();
  out->leaf_indices.assign(r.Count(kMaxProofElements), 0);
  for (uint64_t& index : out->leaf_indices) index = r.U64();
  out->nodes.assign(r.Count(kMaxProofElements), ProofNode());
  for (ProofNode& node : out->nodes) {
    uint32_t level = r.U32();
    if (level > 63) return false;
    node.level = static_cast<int>(level);
    node.index = r.U64();
    node.digest = r.Digest();
  }
  out->peaks.assign(r.Count(64), Digest());
  for (Digest& peak : out->peaks) peak = r.Digest();
  return r.AtEnd();
}

void ShrubsAccumulator::SerializeTo(Bytes* out) const {
  PutU64(out, num_leaves_);
  PutU64(out, hash_count_);
  PutU32(out, static_cast<uint32_t>(levels_.size()));
  for (const auto& level : levels_) {
    for (const Digest& node : level) PutDigest(out, node);
  }
}

bool ShrubsAccumulator::DeserializeFrom(ByteReader* r,
                                        ShrubsAccumulator* out) {
  const uint64_t num_leaves = r->U64();
  const uint64_t hash_count = r->U64();
  const uint32_t num_levels = r->U32();
  // Append's cascade invariant pins the whole shape: level h holds exactly
  // num_leaves >> h nodes and the top level is the first empty one.
  uint32_t expected_levels = 0;
  for (uint64_t n = num_leaves; n > 0; n >>= 1) ++expected_levels;
  if (!r->ok() || num_levels != expected_levels) return false;
  out->num_leaves_ = num_leaves;
  out->hash_count_ = hash_count;
  out->levels_.assign(num_levels, {});
  for (uint32_t h = 0; h < num_levels; ++h) {
    uint64_t count = num_leaves >> h;
    if (count > r->remaining() / 32) return r->Fail();
    out->levels_[h].assign(count, Digest());
    for (Digest& node : out->levels_[h]) node = r->Digest();
  }
  return r->ok();
}

uint64_t ShrubsAccumulator::Append(const Digest& digest) {
  if (levels_.empty()) levels_.emplace_back();
  uint64_t index = num_leaves_;
  levels_[0].push_back(HashMerkleLeaf(digest));
  ++hash_count_;
  ++num_leaves_;

  // Cascade: whenever a level's node count becomes even, the new pair's
  // parent is appended one level up. Amortized O(1) per append.
  size_t h = 0;
  while (levels_[h].size() % 2 == 0) {
    if (levels_.size() == h + 1) levels_.emplace_back();
    const auto& level = levels_[h];
    levels_[h + 1].push_back(
        HashMerkleNode(level[level.size() - 2], level[level.size() - 1]));
    ++hash_count_;
    ++h;
  }
  return index;
}

std::vector<Digest> ShrubsAccumulator::PeaksAtSize(uint64_t as_of) const {
  std::vector<Digest> peaks;
  if (as_of == 0 || as_of > num_leaves_) return peaks;
  uint64_t consumed = 0;
  for (int b = 63; b >= 0; --b) {
    if ((as_of >> b) & 1) {
      // Peak at height b starting at leaf `consumed`.
      peaks.push_back(levels_[b][consumed >> b]);
      consumed += (1ULL << b);
    }
  }
  return peaks;
}

Digest ShrubsAccumulator::BagPeaks(const std::vector<Digest>& peaks) {
  if (peaks.empty()) return Digest();
  Digest acc = peaks.back();
  for (size_t i = peaks.size() - 1; i-- > 0;) {
    acc = HashChain(peaks[i], acc);
  }
  return acc;
}

Status ShrubsAccumulator::GetProofAtSize(uint64_t leaf_index, uint64_t as_of,
                                         MembershipProof* proof) const {
  if (as_of > num_leaves_) {
    return Status::OutOfRange("as_of beyond accumulator size");
  }
  if (leaf_index >= as_of) {
    return Status::OutOfRange("leaf index beyond as_of size");
  }
  proof->leaf_index = leaf_index;
  proof->tree_size = as_of;
  proof->siblings.clear();
  proof->sibling_is_left.clear();
  proof->peaks = PeaksAtSize(as_of);

  // Locate the mountain (perfect subtree) containing the leaf.
  uint64_t consumed = 0;
  size_t peak_idx = 0;
  int height = 0;
  for (int b = 63; b >= 0; --b) {
    if ((as_of >> b) & 1) {
      if (leaf_index < consumed + (1ULL << b)) {
        height = b;
        break;
      }
      consumed += (1ULL << b);
      ++peak_idx;
    }
  }
  proof->peak_index = peak_idx;

  // Sibling path inside the mountain: complete by construction.
  for (int h = 0; h < height; ++h) {
    uint64_t node = leaf_index >> h;
    uint64_t sibling = node ^ 1;
    proof->siblings.push_back(levels_[h][sibling]);
    proof->sibling_is_left.push_back((node & 1) == 1);
  }
  return Status::OK();
}

namespace {

/// Mountain decomposition of a tree of `size` leaves: (height, start leaf)
/// per peak, left to right.
std::vector<std::pair<int, uint64_t>> Mountains(uint64_t size) {
  std::vector<std::pair<int, uint64_t>> out;
  uint64_t consumed = 0;
  for (int b = 63; b >= 0; --b) {
    if ((size >> b) & 1) {
      out.emplace_back(b, consumed);
      consumed += (1ULL << b);
    }
  }
  return out;
}

/// Structural binding: every shape field of a membership proof must match
/// the unique shape the prover would derive from (leaf_index, tree_size).
/// Without this a forged proof can relabel leaf_index/tree_size while the
/// digest path still checks out (the path only constrains the digests).
bool ProofShapeOk(const MembershipProof& proof) {
  if (proof.leaf_index >= proof.tree_size) return false;
  if (proof.siblings.size() != proof.sibling_is_left.size()) return false;
  auto mountains = Mountains(proof.tree_size);
  if (proof.peaks.size() != mountains.size()) return false;
  if (proof.peak_index >= mountains.size()) return false;
  const auto& [height, start] = mountains[proof.peak_index];
  uint64_t end = start + (1ULL << height);
  if (proof.leaf_index < start || proof.leaf_index >= end) return false;
  if (proof.siblings.size() != static_cast<size_t>(height)) return false;
  for (int h = 0; h < height; ++h) {
    if (proof.sibling_is_left[h] != (((proof.leaf_index >> h) & 1) == 1)) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool ShrubsAccumulator::VerifyProofAgainstPeaks(
    const Digest& payload_digest, const MembershipProof& proof,
    const std::vector<Digest>& trusted_peaks) {
  if (!ProofShapeOk(proof)) return false;
  Digest acc = HashMerkleLeaf(payload_digest);
  for (size_t i = 0; i < proof.siblings.size(); ++i) {
    acc = proof.sibling_is_left[i] ? HashMerkleNode(proof.siblings[i], acc)
                                   : HashMerkleNode(acc, proof.siblings[i]);
  }
  if (!(acc == proof.peaks[proof.peak_index])) return false;
  if (proof.peaks.size() != trusted_peaks.size()) return false;
  for (size_t i = 0; i < trusted_peaks.size(); ++i) {
    if (!(proof.peaks[i] == trusted_peaks[i])) return false;
  }
  return true;
}

bool ShrubsAccumulator::VerifyProof(const Digest& payload_digest,
                                    const MembershipProof& proof,
                                    const Digest& expected_root) {
  if (!ProofShapeOk(proof)) return false;
  Digest acc = HashMerkleLeaf(payload_digest);
  for (size_t i = 0; i < proof.siblings.size(); ++i) {
    acc = proof.sibling_is_left[i] ? HashMerkleNode(proof.siblings[i], acc)
                                   : HashMerkleNode(acc, proof.siblings[i]);
  }
  if (!(acc == proof.peaks[proof.peak_index])) return false;
  return BagPeaks(proof.peaks) == expected_root;
}

Status ShrubsAccumulator::GetBatchProof(
    const std::vector<uint64_t>& leaf_indices, BatchProof* proof) const {
  proof->tree_size = num_leaves_;
  proof->leaf_indices = leaf_indices;
  std::sort(proof->leaf_indices.begin(), proof->leaf_indices.end());
  proof->leaf_indices.erase(
      std::unique(proof->leaf_indices.begin(), proof->leaf_indices.end()),
      proof->leaf_indices.end());
  proof->nodes.clear();
  proof->peaks = Frontier();
  if (!proof->leaf_indices.empty() &&
      proof->leaf_indices.back() >= num_leaves_) {
    return Status::OutOfRange("leaf index beyond accumulator size");
  }

  auto target = proof->leaf_indices.begin();
  for (const auto& [height, start] : Mountains(num_leaves_)) {
    uint64_t end = start + (1ULL << height);
    // Collect this mountain's targets as global level-0 positions.
    std::vector<uint64_t> marked;
    while (target != proof->leaf_indices.end() && *target < end) {
      marked.push_back(*target);
      ++target;
    }
    if (marked.empty()) continue;  // peak supplied via proof->peaks
    // Walk up the mountain; emit siblings that are not themselves marked
    // (the N2 − (N2 ∩ N3) rule).
    for (int h = 0; h < height; ++h) {
      std::vector<uint64_t> parents;
      for (size_t i = 0; i < marked.size(); ++i) {
        uint64_t pos = marked[i];
        uint64_t sibling = pos ^ 1;
        bool sibling_marked =
            (i + 1 < marked.size() && marked[i + 1] == sibling);
        if (sibling_marked) {
          ++i;  // pair consumed together
        } else {
          proof->nodes.push_back({h, sibling, levels_[h][sibling]});
        }
        parents.push_back(pos >> 1);
      }
      marked = std::move(parents);
    }
  }
  return Status::OK();
}

Status ShrubsAccumulator::PlanBatchProof(
    const std::vector<uint64_t>& leaf_indices, ProofPlan* plan) const {
  plan->n1 = leaf_indices;
  std::sort(plan->n1.begin(), plan->n1.end());
  plan->n1.erase(std::unique(plan->n1.begin(), plan->n1.end()),
                 plan->n1.end());
  plan->n2.clear();
  plan->n3.clear();
  plan->shipped.clear();
  if (!plan->n1.empty() && plan->n1.back() >= num_leaves_) {
    return Status::OutOfRange("leaf index beyond accumulator size");
  }

  auto target = plan->n1.begin();
  for (const auto& [height, start] : Mountains(num_leaves_)) {
    uint64_t end = start + (1ULL << height);
    std::vector<uint64_t> marked;
    while (target != plan->n1.end() && *target < end) {
      marked.push_back(*target);
      ++target;
    }
    if (marked.empty()) continue;
    for (int h = 0; h < height; ++h) {
      std::vector<uint64_t> parents;
      for (size_t i = 0; i < marked.size(); ++i) {
        uint64_t pos = marked[i];
        uint64_t sibling = pos ^ 1;
        bool sibling_marked =
            (i + 1 < marked.size() && marked[i + 1] == sibling);
        // N3: non-leaf positions derivable from the targets (the marked
        // ancestors). Leaf-level targets are inputs (N1), not proofs.
        if (h > 0) plan->n3.emplace_back(h, pos);
        if (sibling_marked) {
          // A marked pair: each node is the other's path sibling, so both
          // enter N2 — and both are derivable, landing in N2 ∩ N3 (the
          // paper's {cell21, cell22}).
          if (h > 0) {
            plan->n2.emplace_back(h, pos);
            plan->n2.emplace_back(h, sibling);
            plan->n3.emplace_back(h, sibling);
          }
          ++i;  // the pair is consumed together
        } else {
          // Underivable sibling: needed (N2) and must be shipped (N).
          plan->n2.emplace_back(h, sibling);
          plan->shipped.emplace_back(h, sibling);
        }
        parents.push_back(pos >> 1);
      }
      marked = std::move(parents);
    }
  }
  return Status::OK();
}

bool ShrubsAccumulator::VerifyBatchProof(
    const std::vector<Digest>& payload_digests, const BatchProof& proof,
    const Digest& expected_root) {
  if (payload_digests.size() != proof.leaf_indices.size()) return false;
  if (proof.tree_size == 0) return proof.leaf_indices.empty() && expected_root.IsZero();
  // Index the supplied nodes.
  auto node_key = [](int level, uint64_t index) {
    return (static_cast<uint64_t>(level) << 58) | index;
  };
  std::unordered_map<uint64_t, Digest> supplied;
  for (const auto& n : proof.nodes) {
    if (n.level < 0 || n.level > 57) return false;
    supplied[node_key(n.level, n.index)] = n.digest;
  }
  size_t used_nodes = 0;

  auto mountains = Mountains(proof.tree_size);
  if (proof.peaks.size() != mountains.size()) return false;

  size_t target_pos = 0;
  for (size_t m = 0; m < mountains.size(); ++m) {
    const auto& [height, start] = mountains[m];
    uint64_t end = start + (1ULL << height);
    std::vector<std::pair<uint64_t, Digest>> level_nodes;  // (pos, digest)
    while (target_pos < proof.leaf_indices.size() &&
           proof.leaf_indices[target_pos] < end) {
      uint64_t idx = proof.leaf_indices[target_pos];
      if (idx < start) return false;  // unsorted/duplicate or out of mountain
      level_nodes.emplace_back(idx,
                               HashMerkleLeaf(payload_digests[target_pos]));
      ++target_pos;
    }
    if (level_nodes.empty()) continue;
    for (int h = 0; h < height; ++h) {
      std::vector<std::pair<uint64_t, Digest>> parents;
      for (size_t i = 0; i < level_nodes.size(); ++i) {
        uint64_t pos = level_nodes[i].first;
        uint64_t sibling = pos ^ 1;
        Digest sib_digest;
        bool have_sibling = false;
        if (i + 1 < level_nodes.size() && level_nodes[i + 1].first == sibling) {
          sib_digest = level_nodes[i + 1].second;
          have_sibling = true;
        } else {
          auto it = supplied.find(node_key(h, sibling));
          if (it == supplied.end()) return false;
          sib_digest = it->second;
          ++used_nodes;
        }
        Digest left = (pos & 1) ? sib_digest : level_nodes[i].second;
        Digest right = (pos & 1) ? level_nodes[i].second : sib_digest;
        parents.emplace_back(pos >> 1, HashMerkleNode(left, right));
        if (have_sibling) ++i;
      }
      level_nodes = std::move(parents);
    }
    if (level_nodes.size() != 1) return false;
    if (!(level_nodes[0].second == proof.peaks[m])) return false;
  }
  if (target_pos != proof.leaf_indices.size()) return false;
  if (used_nodes != supplied.size()) return false;  // no spurious nodes
  return BagPeaks(proof.peaks) == expected_root;
}

Status ShrubsAccumulator::GetNode(int level, uint64_t index,
                                  Digest* out) const {
  if (level < 0 || static_cast<size_t>(level) >= levels_.size()) {
    return Status::OutOfRange("level out of range");
  }
  if (index >= levels_[level].size()) {
    return Status::OutOfRange("node index out of range");
  }
  *out = levels_[level][index];
  return Status::OK();
}

size_t ShrubsAccumulator::TotalNodes() const {
  size_t total = 0;
  for (const auto& level : levels_) total += level.size();
  return total;
}

}  // namespace ledgerdb
