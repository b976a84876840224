#ifndef LEDGERDB_ACCUM_PROOF_CACHE_H_
#define LEDGERDB_ACCUM_PROOF_CACHE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "accum/shrubs.h"
#include "crypto/hash.h"

namespace ledgerdb {

/// Memoized proof-plane cache (the GlassDB-style "defer and batch
/// verification" read optimization). Two sections:
///
///  * **Epoch section** — sealed-epoch fam material keyed by epoch:
///    the merged-cell link proof (leaf 0 of the epoch tree), per-leaf
///    local membership proofs, and whole batched proofs keyed by their
///    leaf set. Sealed epoch trees are immutable, so a hit never needs
///    revalidation and is byte-identical to a fresh rebuild; live-epoch
///    material must never be inserted (it changes on every append).
///    Entries only become *unreachable* when a purge prunes the epoch —
///    InvalidateEpochsBelow keeps cached availability in lockstep with
///    the tree (a cached proof for a pruned epoch would otherwise
///    resurrect a proof the uncached path refuses to build).
///
///  * **Blob section** — serialized proofs (clue-range reads) keyed by
///    an arbitrary string and *stamped* with the root digest they were
///    built under. A lookup hits only when the caller's current root
///    equals the stamp, so a stale entry can never be served; DropBlobs
///    (called at seal time, when a commitment is published) garbage-
///    collects entries whose stamp can no longer match.
///
/// Capacity is a byte budget with epoch-granular LRU eviction: when an
/// insert pushes residency past the budget, whole least-recently-used
/// epochs (or individual blobs) are dropped until it fits, so the cache
/// degrades gracefully instead of growing with ledger size.
///
/// Thread safety: every method takes an internal mutex. Lookups and
/// inserts happen inside const read paths (GetProof et al.) that run
/// concurrently from many reader threads, and the ledger itself holds no
/// lock, so the cache must synchronize itself.
class ProofCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;  ///< epochs + blobs dropped by the budget
    size_t resident_bytes = 0;
  };

  /// `byte_budget` bounds resident proof bytes (approximate accounting:
  /// digests dominate). An entry larger than the whole budget is simply
  /// not retained.
  explicit ProofCache(size_t byte_budget);

  ProofCache(const ProofCache&) = delete;
  ProofCache& operator=(const ProofCache&) = delete;

  // --- epoch section (sealed fam material only) ------------------------
  bool LookupLink(uint64_t epoch, MembershipProof* out);
  void InsertLink(uint64_t epoch, const MembershipProof& link);

  /// Bulk variant for epoch-link chains: appends cached links for
  /// consecutive epochs starting at `lo`, stopping at the first epoch
  /// without a cached link or at `hi` (exclusive), and returns the first
  /// epoch *not* served. Takes the lock once for the whole run — link
  /// chains span hundreds of epochs, and per-epoch locking is where a
  /// chain-heavy read path spends its time. The epoch where the run
  /// stops is not counted as a miss; the caller's per-epoch fallback
  /// accounts for it.
  uint64_t LookupLinkRun(uint64_t lo, uint64_t hi,
                         std::vector<MembershipProof>* out);

  bool LookupLocal(uint64_t epoch, uint64_t leaf, MembershipProof* out);
  void InsertLocal(uint64_t epoch, uint64_t leaf,
                   const MembershipProof& proof);

  /// `leaves` is the sorted distinct leaf set the batch proof covers.
  bool LookupBatch(uint64_t epoch, const std::vector<uint64_t>& leaves,
                   BatchProof* out);
  void InsertBatch(uint64_t epoch, const std::vector<uint64_t>& leaves,
                   const BatchProof& proof);

  /// Drops every epoch entry below `epoch` (purge pruned the trees:
  /// cached proofs must become unavailable exactly when fresh ones do).
  void InvalidateEpochsBelow(uint64_t epoch);

  // --- blob section (root-stamped proofs) ------------------------------
  bool LookupBlob(const std::string& key, const Digest& stamp, Bytes* out);
  void InsertBlob(const std::string& key, const Digest& stamp, Bytes value);

  /// Seal-time garbage collection: a published commitment means the
  /// roots moved, so every blob stamp is stale — drop them all. (Stale
  /// entries are never *served* regardless; this just frees the bytes.)
  void DropBlobs();

  Stats stats() const;
  size_t byte_budget() const { return byte_budget_; }

 private:
  struct EpochEntry {
    uint64_t last_use = 0;
    size_t bytes = 0;
    bool has_link = false;
    MembershipProof link;
    std::unordered_map<uint64_t, MembershipProof> locals;
    /// key = packed little-endian leaf indices.
    std::unordered_map<std::string, BatchProof> batches;
  };
  struct BlobEntry {
    uint64_t last_use = 0;
    size_t bytes = 0;
    Digest stamp;
    Bytes value;
  };

  static std::string PackLeaves(const std::vector<uint64_t>& leaves);
  static size_t ApproxBytes(const MembershipProof& proof);
  static size_t ApproxBytes(const BatchProof& proof);

  /// mu_ held. Touches the LRU clock for `entry`.
  template <typename Entry>
  void Touch(Entry* entry) {
    entry->last_use = ++tick_;
  }

  /// mu_ held. Adds `delta` bytes of residency, then evicts whole LRU
  /// epochs/blobs until the budget holds again.
  void AddBytesAndEvictLocked(size_t delta);
  void PublishGaugeLocked() const;

  const size_t byte_budget_;
  mutable std::mutex mu_;
  uint64_t tick_ = 0;
  size_t resident_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  std::unordered_map<uint64_t, EpochEntry> epochs_;
  std::unordered_map<std::string, BlobEntry> blobs_;
};

}  // namespace ledgerdb

#endif  // LEDGERDB_ACCUM_PROOF_CACHE_H_
