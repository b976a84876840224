#include "accum/fam.h"

#include <algorithm>
#include <cassert>

#include "accum/proof_cache.h"

namespace ledgerdb {

Bytes FamProof::Serialize() const {
  Bytes out;
  PutU64(&out, jsn);
  PutU64(&out, epoch);
  PutU64(&out, target_epoch);
  PutLengthPrefixed(&out, local.Serialize());
  PutU32(&out, static_cast<uint32_t>(epoch_links.size()));
  for (const MembershipProof& link : epoch_links) {
    PutLengthPrefixed(&out, link.Serialize());
  }
  return out;
}

bool FamProof::Deserialize(Slice raw, FamProof* out) {
  ByteReader r(raw);
  out->jsn = r.U64();
  out->epoch = r.U64();
  out->target_epoch = r.U64();
  r.Nested(&out->local);
  out->epoch_links.assign(r.Count(1u << 20), MembershipProof());
  for (MembershipProof& link : out->epoch_links) r.Nested(&link);
  return r.AtEnd();
}

Bytes FamBatchProof::Serialize() const {
  Bytes out;
  PutU64(&out, target_epoch);
  PutU32(&out, static_cast<uint32_t>(groups.size()));
  for (const EpochGroup& group : groups) {
    PutU64(&out, group.epoch);
    PutU32(&out, static_cast<uint32_t>(group.jsns.size()));
    for (uint64_t jsn : group.jsns) PutU64(&out, jsn);
    PutLengthPrefixed(&out, group.batch.Serialize());
  }
  PutU32(&out, static_cast<uint32_t>(epoch_links.size()));
  for (const MembershipProof& link : epoch_links) {
    PutLengthPrefixed(&out, link.Serialize());
  }
  return out;
}

bool FamBatchProof::Deserialize(Slice raw, FamBatchProof* out) {
  ByteReader r(raw);
  out->target_epoch = r.U64();
  out->groups.assign(r.Count(1u << 20), EpochGroup());
  for (EpochGroup& group : out->groups) {
    group.epoch = r.U64();
    group.jsns.assign(r.Count(1u << 20), 0);
    for (uint64_t& jsn : group.jsns) jsn = r.U64();
    r.Nested(&group.batch);
  }
  out->epoch_links.assign(r.Count(1u << 20), MembershipProof());
  for (MembershipProof& link : out->epoch_links) r.Nested(&link);
  return r.AtEnd();
}

FamAccumulator::FamAccumulator(int fractal_height)
    : fractal_height_(fractal_height),
      epoch_capacity_(1ULL << fractal_height) {
  assert(fractal_height >= 1 && fractal_height <= 30);
}

uint64_t FamAccumulator::Append(const Digest& journal_digest) {
  uint64_t jsn = num_journals_++;
  current_.Append(journal_digest);
  if (current_.size() == epoch_capacity_) {
    // Rule 1: the full tree's root becomes the first (merged) leaf of the
    // next epoch.
    Digest root = current_.Root();
    sealed_roots_.push_back(root);
    sealed_trees_.push_back(
        std::make_unique<ShrubsAccumulator>(std::move(current_)));
    current_ = ShrubsAccumulator();
    current_.Append(root);
  }
  return jsn;
}

void FamAccumulator::SerializeTo(Bytes* out) const {
  PutU32(out, static_cast<uint32_t>(fractal_height_));
  PutU64(out, num_journals_);
  current_.SerializeTo(out);
  PutU32(out, static_cast<uint32_t>(sealed_roots_.size()));
  for (size_t e = 0; e < sealed_roots_.size(); ++e) {
    PutDigest(out, sealed_roots_[e]);
    const bool retained = sealed_trees_[e] != nullptr;
    out->push_back(retained ? 1 : 0);
    if (retained) sealed_trees_[e]->SerializeTo(out);
  }
  PutU32(out, static_cast<uint32_t>(pruned_links_.size()));
  for (const MembershipProof& link : pruned_links_) {
    PutLengthPrefixed(out, link.Serialize());
  }
}

bool FamAccumulator::DeserializeFrom(Slice raw, FamAccumulator* out) {
  ByteReader r(raw);
  if (static_cast<int>(r.U32()) != out->fractal_height_) return false;
  const uint64_t num_journals = r.U64();
  if (!ShrubsAccumulator::DeserializeFrom(&r, &out->current_)) return false;
  const uint32_t sealed = r.Count(1u << 26);
  out->sealed_roots_.assign(sealed, Digest());
  out->sealed_trees_.clear();
  out->sealed_trees_.resize(sealed);
  for (uint32_t e = 0; e < sealed; ++e) {
    out->sealed_roots_[e] = r.Digest();
    if (r.Bool()) {
      auto tree = std::make_unique<ShrubsAccumulator>();
      if (!ShrubsAccumulator::DeserializeFrom(&r, tree.get())) return false;
      if (tree->size() != out->epoch_capacity_) return false;
      if (tree->Root() != out->sealed_roots_[e]) return false;
      out->sealed_trees_[e] = std::move(tree);
    }
  }
  out->pruned_links_.assign(r.Count(sealed), MembershipProof());
  for (MembershipProof& link : out->pruned_links_) r.Nested(&link);
  if (!r.AtEnd()) return false;
  // Shape invariants: the live tree seals (and resets) the instant it hits
  // epoch capacity, and with sealed epochs present its first cell must be
  // the merged root of the last sealed epoch.
  const uint64_t cap = out->epoch_capacity_;
  if (out->current_.size() >= cap) return false;
  uint64_t expected = 0;
  if (sealed == 0) {
    expected = out->current_.size();
  } else {
    if (out->current_.empty()) return false;
    if (out->current_.LeafNode(0) !=
        HashMerkleLeaf(out->sealed_roots_[sealed - 1])) {
      return false;
    }
    expected = cap + static_cast<uint64_t>(sealed - 1) * (cap - 1) +
               (out->current_.size() - 1);
  }
  if (expected != num_journals) return false;
  out->num_journals_ = num_journals;
  return true;
}

FamAccumulator::JournalLocation FamAccumulator::Locate(uint64_t jsn) const {
  if (jsn < epoch_capacity_) return {0, jsn};
  uint64_t j = jsn - epoch_capacity_;
  uint64_t per_epoch = epoch_capacity_ - 1;  // first slot is the merged cell
  return {1 + j / per_epoch, 1 + j % per_epoch};
}

void FamAccumulator::ExpectedLocation(int fractal_height, uint64_t jsn,
                                      uint64_t* epoch, uint64_t* local_leaf) {
  uint64_t capacity = 1ULL << fractal_height;
  if (jsn < capacity) {
    *epoch = 0;
    *local_leaf = jsn;
    return;
  }
  uint64_t j = jsn - capacity;
  uint64_t per_epoch = capacity - 1;  // first slot is the merged cell
  *epoch = 1 + j / per_epoch;
  *local_leaf = 1 + j % per_epoch;
}

Status FamAccumulator::SealedEpochRoot(uint64_t e, Digest* out) const {
  if (e >= sealed_roots_.size()) return Status::NotFound("epoch not sealed");
  *out = sealed_roots_[e];
  return Status::OK();
}

Digest FamAccumulator::Root() const {
  if (current_.empty()) {
    return sealed_roots_.empty() ? Digest() : sealed_roots_.back();
  }
  return current_.Root();
}

Status FamAccumulator::RootAtJournalCount(uint64_t count, Digest* out) const {
  if (count > num_journals_) return Status::OutOfRange("count beyond size");
  if (count == 0) {
    *out = Digest();
    return Status::OK();
  }
  JournalLocation loc = Locate(count - 1);
  uint64_t local_leaves = loc.local_leaf + 1;
  if (local_leaves == epoch_capacity_) {
    // That append sealed the epoch: the visible commitment right after is
    // the fresh epoch holding only the merged cell — computable from the
    // sealed root alone (works even when the next epoch was pruned).
    *out = HashMerkleLeaf(sealed_roots_[loc.epoch]);
    return Status::OK();
  }
  if (loc.epoch < sealed_trees_.size() && sealed_trees_[loc.epoch] == nullptr) {
    return Status::NotFound("epoch pruned by purge");
  }
  const ShrubsAccumulator& tree = (loc.epoch < sealed_trees_.size())
                                      ? *sealed_trees_[loc.epoch]
                                      : current_;
  *out = tree.RootAtSize(local_leaves);
  return Status::OK();
}

Status FamAccumulator::AppendEpochLinks(
    uint64_t from_epoch, uint64_t to_epoch,
    std::vector<MembershipProof>* links) const {
  uint64_t start = from_epoch + 1;
  links->reserve(links->size() + (to_epoch - from_epoch));
  if (cache_ != nullptr && start <= to_epoch) {
    // Serve the sealed prefix of the chain in one bulk lookup (one lock
    // acquisition instead of one per epoch). Pruned epochs are never in
    // the cache, so the run stops before them and the per-epoch fallback
    // below serves them from pruned_links_; the same fallback rebuilds
    // and inserts whatever else the run missed.
    uint64_t sealed_hi =
        std::min<uint64_t>(to_epoch + 1, sealed_trees_.size());
    if (start < sealed_hi) {
      start = cache_->LookupLinkRun(start, sealed_hi, links);
    }
  }
  for (uint64_t e = start; e <= to_epoch; ++e) {
    MembershipProof link;
    if (e < sealed_trees_.size()) {
      LEDGERDB_RETURN_IF_ERROR(GetEpochLink(e, &link));
    } else {
      LEDGERDB_RETURN_IF_ERROR(current_.GetProof(0, &link));
    }
    links->push_back(std::move(link));
  }
  return Status::OK();
}

Status FamAccumulator::SealedLocalProof(uint64_t epoch, uint64_t leaf,
                                        MembershipProof* proof) const {
  if (cache_ != nullptr && cache_->LookupLocal(epoch, leaf, proof)) {
    return Status::OK();
  }
  LEDGERDB_RETURN_IF_ERROR(sealed_trees_[epoch]->GetProof(leaf, proof));
  if (cache_ != nullptr) cache_->InsertLocal(epoch, leaf, *proof);
  return Status::OK();
}

Status FamAccumulator::GetProof(uint64_t jsn, FamProof* proof) const {
  if (jsn >= num_journals_) return Status::OutOfRange("jsn out of range");
  JournalLocation loc = Locate(jsn);
  proof->jsn = jsn;
  proof->epoch = loc.epoch;
  proof->target_epoch = CurrentEpoch();
  proof->epoch_links.clear();
  if (loc.epoch < sealed_trees_.size()) {
    if (sealed_trees_[loc.epoch] == nullptr) {
      return Status::NotFound("epoch pruned by purge");
    }
    LEDGERDB_RETURN_IF_ERROR(
        SealedLocalProof(loc.epoch, loc.local_leaf, &proof->local));
  } else {
    LEDGERDB_RETURN_IF_ERROR(current_.GetProof(loc.local_leaf, &proof->local));
  }
  return AppendEpochLinks(loc.epoch, proof->target_epoch,
                          &proof->epoch_links);
}

Status FamAccumulator::GetProofAnchored(uint64_t jsn,
                                        const TrustedAnchor& anchor,
                                        FamProof* proof) const {
  if (jsn >= num_journals_) return Status::OutOfRange("jsn out of range");
  if (anchor.epoch >= sealed_roots_.size()) {
    return Status::InvalidArgument("anchor epoch not sealed");
  }
  JournalLocation loc = Locate(jsn);
  if (loc.epoch > anchor.epoch) {
    return Status::InvalidArgument("journal lies after the trusted anchor");
  }
  proof->jsn = jsn;
  proof->epoch = loc.epoch;
  proof->target_epoch = anchor.epoch;
  proof->epoch_links.clear();
  if (sealed_trees_[loc.epoch] == nullptr) {
    return Status::NotFound("epoch pruned by purge");
  }
  LEDGERDB_RETURN_IF_ERROR(
      SealedLocalProof(loc.epoch, loc.local_leaf, &proof->local));
  return AppendEpochLinks(loc.epoch, anchor.epoch, &proof->epoch_links);
}

namespace {

/// Walks the proof chain; on success stores the final (target epoch)
/// commitment in `final_root`.
bool ChainProof(const Digest& journal_digest, const FamProof& proof,
                Digest* final_root) {
  Digest running = ShrubsAccumulator::BagPeaks(proof.local.peaks);
  if (!ShrubsAccumulator::VerifyProof(journal_digest, proof.local, running)) {
    return false;
  }
  if (proof.epoch_links.size() !=
      proof.target_epoch - proof.epoch) {
    return false;
  }
  for (const MembershipProof& link : proof.epoch_links) {
    // The merged cell must be the first leaf of the next epoch.
    if (link.leaf_index != 0) return false;
    Digest next = ShrubsAccumulator::BagPeaks(link.peaks);
    if (!ShrubsAccumulator::VerifyProof(running, link, next)) return false;
    running = next;
  }
  *final_root = running;
  return true;
}

}  // namespace

bool FamAccumulator::VerifyProof(const Digest& journal_digest,
                                 const FamProof& proof,
                                 const Digest& trusted_root) {
  Digest final_root;
  if (!ChainProof(journal_digest, proof, &final_root)) return false;
  return final_root == trusted_root;
}

bool FamAccumulator::VerifyProofAnchored(const Digest& journal_digest,
                                         const FamProof& proof,
                                         const TrustedAnchor& anchor) {
  if (proof.target_epoch != anchor.epoch) return false;
  Digest final_root;
  if (!ChainProof(journal_digest, proof, &final_root)) return false;
  return final_root == anchor.epoch_root;
}

Status FamAccumulator::GetEpochProof(uint64_t jsn, MembershipProof* proof,
                                     uint64_t* epoch) const {
  if (jsn >= num_journals_) return Status::OutOfRange("jsn out of range");
  JournalLocation loc = Locate(jsn);
  *epoch = loc.epoch;
  if (loc.epoch < sealed_trees_.size()) {
    if (sealed_trees_[loc.epoch] == nullptr) {
      return Status::NotFound("epoch pruned by purge");
    }
    return SealedLocalProof(loc.epoch, loc.local_leaf, proof);
  }
  return current_.GetProof(loc.local_leaf, proof);
}

Status FamAccumulator::GetEpochLink(uint64_t e, MembershipProof* link) const {
  if (e >= sealed_trees_.size()) {
    return Status::OutOfRange("epoch not sealed");
  }
  if (sealed_trees_[e] == nullptr) {
    // Pruned epochs already keep their link materialized; don't touch the
    // cache (it evicts pruned epochs on purge).
    *link = pruned_links_[e];
    return Status::OK();
  }
  if (cache_ != nullptr && cache_->LookupLink(e, link)) return Status::OK();
  LEDGERDB_RETURN_IF_ERROR(sealed_trees_[e]->GetProof(0, link));
  if (cache_ != nullptr) cache_->InsertLink(e, *link);
  return Status::OK();
}

Status FamAccumulator::GetBatchProof(const std::vector<uint64_t>& jsns_in,
                                     FamBatchProof* proof) const {
  if (jsns_in.empty()) return Status::InvalidArgument("empty jsn set");
  std::vector<uint64_t> jsns = jsns_in;
  std::sort(jsns.begin(), jsns.end());
  jsns.erase(std::unique(jsns.begin(), jsns.end()), jsns.end());
  if (jsns.back() >= num_journals_) {
    return Status::OutOfRange("jsn out of range");
  }
  proof->target_epoch = CurrentEpoch();
  proof->groups.clear();
  proof->epoch_links.clear();
  // jsns are ascending and Locate is monotone, so grouping by a simple
  // epoch-change scan yields epoch-ascending groups.
  std::vector<std::vector<uint64_t>> group_leaves;
  for (uint64_t jsn : jsns) {
    JournalLocation loc = Locate(jsn);
    if (proof->groups.empty() || proof->groups.back().epoch != loc.epoch) {
      proof->groups.emplace_back();
      proof->groups.back().epoch = loc.epoch;
      group_leaves.emplace_back();
    }
    proof->groups.back().jsns.push_back(jsn);
    group_leaves.back().push_back(loc.local_leaf);
  }
  for (size_t g = 0; g < proof->groups.size(); ++g) {
    FamBatchProof::EpochGroup& group = proof->groups[g];
    if (group.epoch < sealed_trees_.size()) {
      if (sealed_trees_[group.epoch] == nullptr) {
        return Status::NotFound("epoch pruned by purge");
      }
      if (cache_ != nullptr &&
          cache_->LookupBatch(group.epoch, group_leaves[g], &group.batch)) {
        continue;
      }
      LEDGERDB_RETURN_IF_ERROR(
          sealed_trees_[group.epoch]->GetBatchProof(group_leaves[g],
                                                    &group.batch));
      if (cache_ != nullptr) {
        cache_->InsertBatch(group.epoch, group_leaves[g], group.batch);
      }
    } else {
      // Live epoch: never cached (it changes on every append).
      LEDGERDB_RETURN_IF_ERROR(
          current_.GetBatchProof(group_leaves[g], &group.batch));
    }
  }
  return AppendEpochLinks(proof->groups.front().epoch, proof->target_epoch,
                          &proof->epoch_links);
}

bool FamAccumulator::VerifyBatchProof(int fractal_height,
                                      const std::vector<uint64_t>& jsns,
                                      const std::vector<Digest>& journal_digests,
                                      const FamBatchProof& proof,
                                      const Digest& trusted_root) {
  if (jsns.empty() || jsns.size() != journal_digests.size()) return false;
  for (size_t i = 1; i < jsns.size(); ++i) {
    if (jsns[i] <= jsns[i - 1]) return false;
  }
  if (proof.groups.empty()) return false;
  // Bind every journal to its ExpectedLocation-derived (epoch, leaf): the
  // groups' concatenated jsns must equal the input set, group epochs must
  // strictly ascend, and leaf labels must match the fam layout.
  std::vector<size_t> offsets(proof.groups.size(), 0);
  size_t cursor = 0;
  for (size_t g = 0; g < proof.groups.size(); ++g) {
    const FamBatchProof::EpochGroup& group = proof.groups[g];
    if (g > 0 && group.epoch <= proof.groups[g - 1].epoch) return false;
    if (group.jsns.empty() ||
        group.jsns.size() != group.batch.leaf_indices.size()) {
      return false;
    }
    offsets[g] = cursor;
    for (size_t i = 0; i < group.jsns.size(); ++i) {
      if (cursor >= jsns.size() || group.jsns[i] != jsns[cursor]) return false;
      uint64_t expected_epoch = 0, expected_leaf = 0;
      ExpectedLocation(fractal_height, group.jsns[i], &expected_epoch,
                       &expected_leaf);
      if (expected_epoch != group.epoch ||
          group.batch.leaf_indices[i] != expected_leaf) {
        return false;
      }
      ++cursor;
    }
  }
  if (cursor != jsns.size()) return false;
  uint64_t min_epoch = proof.groups.front().epoch;
  if (proof.target_epoch < min_epoch) return false;
  if (proof.epoch_links.size() != proof.target_epoch - min_epoch) {
    return false;
  }
  auto verify_group = [&](size_t g, const Digest& epoch_root) {
    const FamBatchProof::EpochGroup& group = proof.groups[g];
    std::vector<Digest> slice(
        journal_digests.begin() + static_cast<ptrdiff_t>(offsets[g]),
        journal_digests.begin() +
            static_cast<ptrdiff_t>(offsets[g] + group.jsns.size()));
    return ShrubsAccumulator::VerifyBatchProof(slice, group.batch, epoch_root);
  };
  // Same chain walk as ChainProof, seeded by the oldest group's batch.
  Digest running = ShrubsAccumulator::BagPeaks(proof.groups.front().batch.peaks);
  if (!verify_group(0, running)) return false;
  size_t next_group = 1;
  for (uint64_t e = min_epoch + 1; e <= proof.target_epoch; ++e) {
    const MembershipProof& link = proof.epoch_links[e - min_epoch - 1];
    // The merged cell must be the first leaf of the next epoch.
    if (link.leaf_index != 0) return false;
    Digest next = ShrubsAccumulator::BagPeaks(link.peaks);
    if (!ShrubsAccumulator::VerifyProof(running, link, next)) return false;
    running = next;
    if (next_group < proof.groups.size() &&
        proof.groups[next_group].epoch == e) {
      if (!verify_group(next_group, running)) return false;
      ++next_group;
    }
  }
  if (next_group != proof.groups.size()) return false;
  return running == trusted_root;
}

size_t FamAccumulator::PruneSealedEpochsBefore(uint64_t epoch) {
  size_t freed = 0;
  uint64_t limit = std::min<uint64_t>(epoch, sealed_trees_.size());
  if (limit > 0 && pruned_links_.size() < sealed_trees_.size()) {
    pruned_links_.resize(sealed_trees_.size());
  }
  for (uint64_t e = 0; e < limit; ++e) {
    if (sealed_trees_[e] == nullptr) continue;
    // Retain exactly the merged-cell link path before dropping the tree.
    sealed_trees_[e]->GetProof(0, &pruned_links_[e]);
    freed += sealed_trees_[e]->TotalNodes();
    sealed_trees_[e].reset();
  }
  // Cached proofs for pruned epochs must become unavailable exactly when
  // fresh ones do (the uncached path now answers NotFound for them).
  if (cache_ != nullptr && limit > 0) cache_->InvalidateEpochsBelow(limit);
  return freed;
}

Status FamVerifier::Sync(const FamAccumulator& fam) {
  // Verify the chain links for every newly sealed epoch before trusting
  // its root (the "before a new trusted anchor is set, all earlier ledger
  // data must be cryptographically verified" step, amortized).
  for (uint64_t e = trusted_roots_.size(); e < fam.NumSealedEpochs(); ++e) {
    Digest root;
    LEDGERDB_RETURN_IF_ERROR(fam.SealedEpochRoot(e, &root));
    if (e > 0) {
      MembershipProof link;
      LEDGERDB_RETURN_IF_ERROR(fam.GetEpochLink(e, &link));
      if (link.leaf_index != 0 ||
          !ShrubsAccumulator::VerifyProof(trusted_roots_[e - 1], link, root)) {
        return Status::VerificationFailed("epoch chain link invalid");
      }
    }
    trusted_roots_.push_back(root);
  }
  live_root_ = fam.Root();
  return Status::OK();
}

bool FamVerifier::Verify(const Digest& journal_digest,
                         const MembershipProof& local, uint64_t epoch) const {
  if (epoch < trusted_roots_.size()) {
    return ShrubsAccumulator::VerifyProof(journal_digest, local,
                                          trusted_roots_[epoch]);
  }
  if (epoch == trusted_roots_.size()) {
    return ShrubsAccumulator::VerifyProof(journal_digest, local, live_root_);
  }
  return false;
}

Status FamAccumulator::MakeAnchor(TrustedAnchor* anchor) const {
  if (sealed_roots_.empty()) return Status::NotFound("no sealed epoch yet");
  anchor->epoch = sealed_roots_.size() - 1;
  anchor->epoch_root = sealed_roots_.back();
  return Status::OK();
}

size_t FamAccumulator::TotalNodes() const {
  size_t total = current_.TotalNodes();
  for (const auto& tree : sealed_trees_) {
    if (tree != nullptr) total += tree->TotalNodes();
  }
  return total;
}

}  // namespace ledgerdb
