#ifndef LEDGERDB_ACCUM_FAM_H_
#define LEDGERDB_ACCUM_FAM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "accum/shrubs.h"
#include "common/status.h"
#include "crypto/hash.h"

namespace ledgerdb {

class ProofCache;

/// Proof that a journal is committed by a fam accumulator.
///
/// `local` proves the journal inside its epoch tree (to that epoch's root).
/// `epoch_links[i]` proves that the root of epoch `epoch + i` is the merged
/// (first) cell of epoch `epoch + i + 1`, chaining up to `target_epoch`.
/// When a trusted anchor is supplied, `target_epoch` is the anchor's epoch
/// and the chain is truncated there (the fam-aoa fast path, Figure 4a);
/// otherwise it reaches the live epoch and the proof closes on the current
/// fam root.
struct FamProof {
  uint64_t jsn = 0;
  uint64_t epoch = 0;
  uint64_t target_epoch = 0;
  MembershipProof local;
  std::vector<MembershipProof> epoch_links;

  /// Verifier cost metric (digests touched), for Figure 8(b).
  size_t CostInHashes() const {
    size_t cost = local.CostInHashes();
    for (const auto& link : epoch_links) cost += link.CostInHashes();
    return cost;
  }

  Bytes Serialize() const;
  static bool Deserialize(Slice raw, FamProof* out);
};

/// Batched fam proof: the §IV-C shared-node-set idea applied across the
/// whole fractal chain. Journals are grouped by containing epoch; each
/// group ships ONE Shrubs BatchProof (the minimal N2 − (N2 ∩ N3) node
/// set) instead of per-journal paths, and the proof carries a single
/// merged-cell link chain from the oldest touched epoch up to
/// `target_epoch` — shared by every group, since later epoch roots are
/// recomputed along the walk anyway.
struct FamBatchProof {
  struct EpochGroup {
    uint64_t epoch = 0;
    /// Ascending jsns in this epoch; parallel to `batch.leaf_indices`.
    std::vector<uint64_t> jsns;
    BatchProof batch;
  };

  uint64_t target_epoch = 0;
  /// Strictly ascending by epoch; concatenated jsns are the proof's
  /// (sorted, distinct) journal set.
  std::vector<EpochGroup> groups;
  /// Links for epochs (min_epoch, target_epoch]: `epoch_links[i]` proves
  /// the root of epoch `min_epoch + i` is the merged first cell of epoch
  /// `min_epoch + i + 1`.
  std::vector<MembershipProof> epoch_links;

  /// Verifier cost metric (digests touched), comparable to summing
  /// FamProof::CostInHashes over the set.
  size_t CostInHashes() const {
    size_t cost = 0;
    for (const auto& group : groups) cost += group.batch.CostInHashes();
    for (const auto& link : epoch_links) cost += link.CostInHashes();
    return cost;
  }

  Bytes Serialize() const;
  static bool Deserialize(Slice raw, FamBatchProof* out);
};

/// A trusted anchor in the aoa (accumulator-oriented anchor) model: the
/// client has cryptographically verified everything up to the end of
/// `epoch`, whose root it pinned. Subsequent verifications may stop as soon
/// as they connect to the anchor.
struct TrustedAnchor {
  uint64_t epoch = 0;
  Digest epoch_root;
};

/// Fractal accumulating model (fam, §III-A1). Journal digests accumulate in
/// a Shrubs tree; per Rule 1, when the tree reaches 2^fractal_height leaves
/// its root is sealed and becomes the first ("merged") leaf of a fresh
/// tree. The live tree therefore transitively commits the entire history,
/// while append cost stays bounded by the fractal height and anchored
/// verification touches only the current epoch.
class FamAccumulator {
 public:
  /// `fractal_height` is δ: each epoch holds 2^δ leaves. Must be in [1,30].
  explicit FamAccumulator(int fractal_height);

  int fractal_height() const { return fractal_height_; }
  uint64_t epoch_capacity() const { return epoch_capacity_; }

  /// Appends a journal digest; returns its jsn (dense, journals only — the
  /// merged cells created by epoch sealing do not consume jsns).
  uint64_t Append(const Digest& journal_digest);

  /// Number of journals appended.
  uint64_t size() const { return num_journals_; }

  /// Epochs sealed so far (the live epoch excluded).
  uint64_t NumSealedEpochs() const { return sealed_roots_.size(); }

  /// Index of the live epoch.
  uint64_t CurrentEpoch() const { return sealed_roots_.size(); }

  /// Root of sealed epoch `e`.
  Status SealedEpochRoot(uint64_t e, Digest* out) const;

  /// Ledger commitment: bagged root of the live epoch tree (which commits
  /// all earlier epochs through its merged first cell).
  Digest Root() const;

  /// Reconstructs the commitment Root() returned when exactly `count`
  /// journals had been appended. Used by the Dasein audit to bind TSA
  /// attestations to concrete ledger prefixes.
  Status RootAtJournalCount(uint64_t count, Digest* out) const;

  /// Proof against the current root (full chain from the journal's epoch).
  Status GetProof(uint64_t jsn, FamProof* proof) const;

  /// Anchored proof (fam-aoa): the chain stops at `anchor.epoch`. The
  /// journal must lie at or before the anchor.
  Status GetProofAnchored(uint64_t jsn, const TrustedAnchor& anchor,
                          FamProof* proof) const;

  /// Local proof of `jsn` inside its own epoch tree only (no chain links):
  /// the fam-aoa fast path for verifiers that track epoch roots
  /// (FamVerifier). `epoch` receives the containing epoch index.
  Status GetEpochProof(uint64_t jsn, MembershipProof* proof,
                       uint64_t* epoch) const;

  /// Merged-cell link proof for epoch `e` (leaf 0 of epoch e against epoch
  /// e's tree). Used by FamVerifier::Sync to extend its trusted set.
  Status GetEpochLink(uint64_t e, MembershipProof* link) const;

  /// Batched proof for a set of journals against the current root: one
  /// shared-node BatchProof per touched epoch plus a single link chain
  /// from the oldest touched epoch. `jsns` need not be sorted; duplicates
  /// are coalesced. Fails NotFound if any journal's epoch was pruned.
  Status GetBatchProof(const std::vector<uint64_t>& jsns,
                       FamBatchProof* proof) const;

  /// Verifies a batched proof: `journal_digests[i]` corresponds to
  /// `jsns[i]` (strictly ascending). Binds every journal to its
  /// ExpectedLocation-derived (epoch, leaf) — the prover's labels are
  /// cross-checked, never trusted.
  static bool VerifyBatchProof(int fractal_height,
                               const std::vector<uint64_t>& jsns,
                               const std::vector<Digest>& journal_digests,
                               const FamBatchProof& proof,
                               const Digest& trusted_root);

  /// Attaches a memoized proof cache for sealed-epoch material (links,
  /// local paths, batched node sets). Pass nullptr to detach. The cache
  /// only ever holds sealed (immutable) subtrees, so hits are
  /// byte-identical to fresh rebuilds; the accumulator drops pruned
  /// epochs from it inside PruneSealedEpochsBefore.
  void SetProofCache(ProofCache* cache) { cache_ = cache; }

  /// Verifies a full proof against the published fam root.
  static bool VerifyProof(const Digest& journal_digest, const FamProof& proof,
                          const Digest& trusted_root);

  /// Verifies an anchored proof against the anchor's pinned epoch root.
  static bool VerifyProofAnchored(const Digest& journal_digest,
                                  const FamProof& proof,
                                  const TrustedAnchor& anchor);

  /// Creates an anchor at the last sealed epoch (after verifying the chain
  /// from an existing anchor or from genesis). Returns NotFound if no epoch
  /// has sealed yet.
  Status MakeAnchor(TrustedAnchor* anchor) const;

  /// Total stored digests across live and sealed epoch trees.
  size_t TotalNodes() const;

  /// Epoch index containing journal `jsn`.
  uint64_t EpochOfJournal(uint64_t jsn) const { return Locate(jsn).epoch; }

  /// Deterministic (epoch, local leaf) position of journal `jsn` in a fam
  /// of the given fractal height. Verifiers use this to bind a proof's
  /// claimed epoch and leaf_index to the jsn it allegedly proves, instead
  /// of trusting the prover's labels.
  static void ExpectedLocation(int fractal_height, uint64_t jsn,
                               uint64_t* epoch, uint64_t* local_leaf);

  /// The purge "erasure expected" option (§III-A2): drops the interior
  /// nodes of every sealed epoch before `epoch`, retaining only each
  /// epoch's root and its merged-cell link path (the nodes "latter of the
  /// next node of the purging node's Merkle path"). Chain verification
  /// (FamVerifier::Sync, epoch links) keeps working; per-journal proofs in
  /// pruned epochs become unavailable — their region is covered by the
  /// trusted anchor. Returns the number of digests freed.
  size_t PruneSealedEpochsBefore(uint64_t epoch);

  /// True if epoch `e`'s interior nodes were pruned.
  bool EpochPruned(uint64_t e) const {
    return e < sealed_trees_.size() && sealed_trees_[e] == nullptr;
  }

  /// Checkpoint (de)serialization of the full fractal structure: live
  /// epoch tree, sealed roots, retained sealed trees (pruned epochs stay
  /// pruned) and pruned-epoch link proofs. DeserializeFrom enforces the
  /// structural invariants (epoch sizes, journal count, retained-tree
  /// roots matching the sealed roots, the live tree's merged first cell);
  /// digest contents are trusted pending the caller's commitment-chain
  /// cross-check (RootAtJournalCount against signed block headers).
  void SerializeTo(Bytes* out) const;
  static bool DeserializeFrom(Slice raw, FamAccumulator* out);

 private:
  struct JournalLocation {
    uint64_t epoch;
    uint64_t local_leaf;  // leaf index inside the epoch tree
  };

  JournalLocation Locate(uint64_t jsn) const;

  /// Appends the merged-cell link proofs for epochs (from_epoch, to_epoch]
  /// to `links`.
  Status AppendEpochLinks(uint64_t from_epoch, uint64_t to_epoch,
                          std::vector<MembershipProof>* links) const;

  /// Local membership proof of `leaf` inside sealed (non-pruned) epoch
  /// `epoch`, consulting the proof cache when attached.
  Status SealedLocalProof(uint64_t epoch, uint64_t leaf,
                          MembershipProof* proof) const;

  int fractal_height_;
  uint64_t epoch_capacity_;
  uint64_t num_journals_ = 0;

  ShrubsAccumulator current_;
  std::vector<Digest> sealed_roots_;
  /// Sealed epoch trees retained for historical proof generation; null
  /// once pruned.
  std::vector<std::unique_ptr<ShrubsAccumulator>> sealed_trees_;
  /// Merged-cell link proofs cached for pruned epochs.
  std::vector<MembershipProof> pruned_links_;
  /// Optional memoization of sealed-epoch proof material (not owned).
  ProofCache* cache_ = nullptr;
};

/// The steady-state fam-aoa client (§III-A1, Figure 4a): a verifier that
/// maintains the set of *trusted epoch roots*, advancing its anchor as
/// epochs seal. Advancing costs one δ-length link verification per new
/// epoch (amortized O(1) per journal); after that, verifying any journal —
/// however old — needs only its local in-epoch path against the stored
/// trusted root. This is the analog of a bim light client holding block
/// headers, at epoch (not block) granularity, so header storage is tiny.
class FamVerifier {
 public:
  /// Pulls newly sealed epochs from `fam`, verifying the merged-cell chain
  /// link for each before trusting its root. Also refreshes the live root.
  Status Sync(const FamAccumulator& fam);

  /// Verifies a journal's local epoch proof (from
  /// FamAccumulator::GetEpochProof) against the trusted roots.
  bool Verify(const Digest& journal_digest, const MembershipProof& local,
              uint64_t epoch) const;

  size_t TrustedEpochs() const { return trusted_roots_.size(); }

 private:
  std::vector<Digest> trusted_roots_;
  Digest live_root_;
};

}  // namespace ledgerdb

#endif  // LEDGERDB_ACCUM_FAM_H_
