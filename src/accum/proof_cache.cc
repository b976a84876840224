#include "accum/proof_cache.h"

#include <algorithm>

#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace ledgerdb {

ProofCache::ProofCache(size_t byte_budget) : byte_budget_(byte_budget) {}

std::string ProofCache::PackLeaves(const std::vector<uint64_t>& leaves) {
  std::string key;
  key.reserve(leaves.size() * 8);
  for (uint64_t leaf : leaves) {
    for (int b = 0; b < 8; ++b) {
      key.push_back(static_cast<char>((leaf >> (8 * b)) & 0xff));
    }
  }
  return key;
}

size_t ProofCache::ApproxBytes(const MembershipProof& proof) {
  // Digests dominate; the fixed fields round up to one digest.
  return 32 * (proof.siblings.size() + proof.peaks.size() + 2);
}

size_t ProofCache::ApproxBytes(const BatchProof& proof) {
  return 48 * proof.nodes.size() + 32 * proof.peaks.size() +
         8 * proof.leaf_indices.size() + 64;
}

void ProofCache::PublishGaugeLocked() const {
  LEDGERDB_OBS_GAUGE_SET(obs::names::kProofCacheResidentBytes,
                         static_cast<int64_t>(resident_));
}

void ProofCache::AddBytesAndEvictLocked(size_t delta) {
  resident_ += delta;
  while (resident_ > byte_budget_ && !(epochs_.empty() && blobs_.empty())) {
    // Find the least-recently-used victim across both sections; evict it
    // whole (epoch granularity for the fam section).
    uint64_t oldest = ~0ULL;
    auto epoch_victim = epochs_.end();
    auto blob_victim = blobs_.end();
    for (auto it = epochs_.begin(); it != epochs_.end(); ++it) {
      if (it->second.last_use < oldest) {
        oldest = it->second.last_use;
        epoch_victim = it;
        blob_victim = blobs_.end();
      }
    }
    for (auto it = blobs_.begin(); it != blobs_.end(); ++it) {
      if (it->second.last_use < oldest) {
        oldest = it->second.last_use;
        blob_victim = it;
        epoch_victim = epochs_.end();
      }
    }
    if (blob_victim != blobs_.end()) {
      resident_ -= std::min(resident_, blob_victim->second.bytes);
      blobs_.erase(blob_victim);
    } else if (epoch_victim != epochs_.end()) {
      resident_ -= std::min(resident_, epoch_victim->second.bytes);
      epochs_.erase(epoch_victim);
    }
    ++evictions_;
    LEDGERDB_OBS_COUNT(obs::names::kProofCacheEvictionsTotal);
  }
  PublishGaugeLocked();
}

bool ProofCache::LookupLink(uint64_t epoch, MembershipProof* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = epochs_.find(epoch);
  if (it == epochs_.end() || !it->second.has_link) {
    ++misses_;
    LEDGERDB_OBS_COUNT(obs::names::kProofCacheMissesTotal);
    return false;
  }
  Touch(&it->second);
  *out = it->second.link;
  ++hits_;
  LEDGERDB_OBS_COUNT(obs::names::kProofCacheHitsTotal);
  return true;
}

uint64_t ProofCache::LookupLinkRun(uint64_t lo, uint64_t hi,
                                   std::vector<MembershipProof>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t e = lo;
  for (; e < hi; ++e) {
    auto it = epochs_.find(e);
    if (it == epochs_.end() || !it->second.has_link) break;
    Touch(&it->second);
    out->push_back(it->second.link);
  }
  hits_ += e - lo;
  LEDGERDB_OBS_COUNT_N(obs::names::kProofCacheHitsTotal,
                       static_cast<int64_t>(e - lo));
  return e;
}

void ProofCache::InsertLink(uint64_t epoch, const MembershipProof& link) {
  std::lock_guard<std::mutex> lock(mu_);
  EpochEntry& entry = epochs_[epoch];
  if (entry.has_link) return;
  entry.has_link = true;
  entry.link = link;
  Touch(&entry);
  size_t delta = ApproxBytes(link);
  entry.bytes += delta;
  AddBytesAndEvictLocked(delta);
}

bool ProofCache::LookupLocal(uint64_t epoch, uint64_t leaf,
                             MembershipProof* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = epochs_.find(epoch);
  if (it != epochs_.end()) {
    auto hit = it->second.locals.find(leaf);
    if (hit != it->second.locals.end()) {
      Touch(&it->second);
      *out = hit->second;
      ++hits_;
      LEDGERDB_OBS_COUNT(obs::names::kProofCacheHitsTotal);
      return true;
    }
  }
  ++misses_;
  LEDGERDB_OBS_COUNT(obs::names::kProofCacheMissesTotal);
  return false;
}

void ProofCache::InsertLocal(uint64_t epoch, uint64_t leaf,
                             const MembershipProof& proof) {
  std::lock_guard<std::mutex> lock(mu_);
  EpochEntry& entry = epochs_[epoch];
  if (!entry.locals.emplace(leaf, proof).second) return;
  Touch(&entry);
  size_t delta = ApproxBytes(proof);
  entry.bytes += delta;
  AddBytesAndEvictLocked(delta);
}

bool ProofCache::LookupBatch(uint64_t epoch,
                             const std::vector<uint64_t>& leaves,
                             BatchProof* out) {
  std::string key = PackLeaves(leaves);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = epochs_.find(epoch);
  if (it != epochs_.end()) {
    auto hit = it->second.batches.find(key);
    if (hit != it->second.batches.end()) {
      Touch(&it->second);
      *out = hit->second;
      ++hits_;
      LEDGERDB_OBS_COUNT(obs::names::kProofCacheHitsTotal);
      return true;
    }
  }
  ++misses_;
  LEDGERDB_OBS_COUNT(obs::names::kProofCacheMissesTotal);
  return false;
}

void ProofCache::InsertBatch(uint64_t epoch,
                             const std::vector<uint64_t>& leaves,
                             const BatchProof& proof) {
  std::string key = PackLeaves(leaves);
  std::lock_guard<std::mutex> lock(mu_);
  EpochEntry& entry = epochs_[epoch];
  if (!entry.batches.emplace(std::move(key), proof).second) return;
  Touch(&entry);
  size_t delta = ApproxBytes(proof);
  entry.bytes += delta;
  AddBytesAndEvictLocked(delta);
}

void ProofCache::InvalidateEpochsBelow(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = epochs_.begin(); it != epochs_.end();) {
    if (it->first < epoch) {
      resident_ -= std::min(resident_, it->second.bytes);
      it = epochs_.erase(it);
    } else {
      ++it;
    }
  }
  PublishGaugeLocked();
}

bool ProofCache::LookupBlob(const std::string& key, const Digest& stamp,
                            Bytes* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = blobs_.find(key);
  if (it == blobs_.end() || !(it->second.stamp == stamp)) {
    ++misses_;
    LEDGERDB_OBS_COUNT(obs::names::kProofCacheMissesTotal);
    return false;
  }
  Touch(&it->second);
  *out = it->second.value;
  ++hits_;
  LEDGERDB_OBS_COUNT(obs::names::kProofCacheHitsTotal);
  return true;
}

void ProofCache::InsertBlob(const std::string& key, const Digest& stamp,
                            Bytes value) {
  size_t bytes = key.size() + value.size() + 64;
  std::lock_guard<std::mutex> lock(mu_);
  BlobEntry& entry = blobs_[key];
  resident_ -= std::min(resident_, entry.bytes);  // replacing a stale stamp
  entry.stamp = stamp;
  entry.value = std::move(value);
  entry.bytes = bytes;
  Touch(&entry);
  AddBytesAndEvictLocked(bytes);
}

void ProofCache::DropBlobs() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, entry] : blobs_) {
    resident_ -= std::min(resident_, entry.bytes);
  }
  blobs_.clear();
  PublishGaugeLocked();
}

ProofCache::Stats ProofCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Stats{hits_, misses_, evictions_, resident_};
}

}  // namespace ledgerdb
