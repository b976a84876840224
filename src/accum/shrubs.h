#ifndef LEDGERDB_ACCUM_SHRUBS_H_
#define LEDGERDB_ACCUM_SHRUBS_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "crypto/hash.h"

namespace ledgerdb {

/// Membership proof against a Shrubs accumulator of `tree_size` leaves.
///
/// The proof carries (a) the sibling path inside the perfect subtree
/// ("mountain") that contains the leaf and (b) the frontier node set (all
/// mountain peaks, left to right). Verification recomputes the leaf's peak
/// from the siblings, substitutes it at `peak_index`, and bags the peaks
/// into the accumulator root.
struct MembershipProof {
  uint64_t leaf_index = 0;
  uint64_t tree_size = 0;
  /// Sibling digests, bottom-up; `sibling_is_left[i]` says the sibling sits
  /// on the left of the running hash.
  std::vector<Digest> siblings;
  std::vector<bool> sibling_is_left;
  /// Frontier (mountain peaks) of the accumulator at `tree_size`.
  std::vector<Digest> peaks;
  /// Which peak the leaf's mountain corresponds to.
  size_t peak_index = 0;

  /// Total digests a verifier touches — the cost metric used by the fam
  /// benchmarks.
  size_t CostInHashes() const { return siblings.size() + peaks.size(); }

  /// Wire format (client-side verification ships proofs over the network).
  Bytes Serialize() const;
  static bool Deserialize(Slice raw, MembershipProof* out);
};

/// Batched membership proof for a set of leaves (§IV-C): the supplied
/// node set is the minimal N = N2 − (N2 ∩ N3) — sibling positions needed
/// to recompute the covering peaks, minus the ones derivable from the
/// target leaves themselves. Cost is O(m + log) instead of m independent
/// O(log) paths.
struct BatchProof {
  struct ProofNode {
    int level = 0;
    uint64_t index = 0;  ///< horizontal index at `level`
    Digest digest;
  };

  uint64_t tree_size = 0;
  std::vector<uint64_t> leaf_indices;  ///< sorted, distinct
  std::vector<ProofNode> nodes;        ///< the minimal supplied node set
  std::vector<Digest> peaks;           ///< full frontier at `tree_size`

  size_t CostInHashes() const { return nodes.size() + peaks.size(); }

  Bytes Serialize() const;
  static bool Deserialize(Slice raw, BatchProof* out);
};

/// Shrubs accumulator (§III-A1): an append-only Merkle forest with O(1)
/// amortized insertion. Instead of eagerly folding every append into a
/// single root (as Diem's tim does), it maintains the frontier node set —
/// exactly the "node-set proof" of the paper's Figure 3(a) — and only
/// merges sibling subtrees when the right sibling completes.
///
/// All interior nodes ever created are retained (level-indexed), so
/// historical proofs "as of" any earlier size can be generated in
/// O(log n) without recomputation.
class ShrubsAccumulator {
 public:
  ShrubsAccumulator() = default;

  /// Appends a payload digest; the stored leaf is domain-separated as
  /// HashMerkleLeaf(digest). Returns the leaf index.
  uint64_t Append(const Digest& digest);

  uint64_t size() const { return num_leaves_; }
  bool empty() const { return num_leaves_ == 0; }

  /// Current frontier (mountain peaks), left to right. This is the
  /// commitment a Shrubs-style ledger publishes; it changes on every
  /// append but costs O(1) amortized to maintain.
  std::vector<Digest> Frontier() const { return PeaksAtSize(num_leaves_); }

  /// Frontier at an earlier size (`as_of <= size()`).
  std::vector<Digest> PeaksAtSize(uint64_t as_of) const;

  /// Bagged root: peaks folded right-to-left with HashChain. A single-peak
  /// (perfect) tree's root is the peak itself.
  Digest Root() const { return BagPeaks(Frontier()); }
  Digest RootAtSize(uint64_t as_of) const { return BagPeaks(PeaksAtSize(as_of)); }

  /// Membership proof for `leaf_index` against the accumulator at its
  /// current size.
  Status GetProof(uint64_t leaf_index, MembershipProof* proof) const {
    return GetProofAtSize(leaf_index, num_leaves_, proof);
  }

  /// Membership proof against the historical accumulator of `as_of` leaves.
  Status GetProofAtSize(uint64_t leaf_index, uint64_t as_of,
                        MembershipProof* proof) const;

  /// Verifies `proof` for a leaf carrying `payload_digest` against
  /// `expected_root` (a bagged root).
  static bool VerifyProof(const Digest& payload_digest,
                          const MembershipProof& proof,
                          const Digest& expected_root);

  /// Verifies only against the frontier node set (no bagging) — the
  /// "node-set proof" variant.
  static bool VerifyProofAgainstPeaks(const Digest& payload_digest,
                                      const MembershipProof& proof,
                                      const std::vector<Digest>& trusted_peaks);

  /// Folds a peak set into a single commitment digest.
  static Digest BagPeaks(const std::vector<Digest>& peaks);

  /// Batched proof for `leaf_indices` (need not be sorted; duplicates are
  /// coalesced) against the current accumulator.
  Status GetBatchProof(const std::vector<uint64_t>& leaf_indices,
                       BatchProof* proof) const;

  /// The §IV-C set computation made explicit, in the paper's notation:
  /// N1 = destination leaf positions; N2 = P1(N1), every proof-path
  /// position; N3 = P2(N1), positions derivable from N1 alone;
  /// shipped = N2 − (N2 ∩ N3), what the server actually returns.
  /// Positions are (level, index) pairs. GetBatchProof ships exactly
  /// `shipped` (tested invariant).
  struct ProofPlan {
    std::vector<uint64_t> n1;
    std::vector<std::pair<int, uint64_t>> n2;
    std::vector<std::pair<int, uint64_t>> n3;
    std::vector<std::pair<int, uint64_t>> shipped;
  };
  Status PlanBatchProof(const std::vector<uint64_t>& leaf_indices,
                        ProofPlan* plan) const;

  /// Verifies a batched proof: `payload_digests[i]` corresponds to
  /// `proof.leaf_indices[i]`. Checks every recomputed peak against the
  /// proof's frontier and the bagged frontier against `expected_root`.
  static bool VerifyBatchProof(const std::vector<Digest>& payload_digests,
                               const BatchProof& proof,
                               const Digest& expected_root);

  /// Digest of the (domain-separated) leaf node for `leaf_index`; used by
  /// fam to turn an epoch root into the next epoch's merged cell.
  Digest LeafNode(uint64_t leaf_index) const { return levels_[0][leaf_index]; }

  /// Interior node access for the CM-Tree verification algorithm (§IV-C):
  /// node at `level` (0 = leaves) and horizontal `index`.
  Status GetNode(int level, uint64_t index, Digest* out) const;

  /// Number of digests stored across all levels (storage metric).
  size_t TotalNodes() const;

  /// Total number of hash invocations performed by Append so far (cost
  /// metric for the Shrubs-vs-eager ablation).
  uint64_t HashCount() const { return hash_count_; }

  /// Checkpoint (de)serialization: the full retained node set, so a
  /// restored accumulator serves the same historical proofs as the
  /// original. DeserializeFrom validates the structural invariant (level h
  /// holds exactly size() >> h nodes) but trusts digest contents; callers
  /// must cross-check Root() against an authenticated commitment.
  void SerializeTo(Bytes* out) const;
  static bool DeserializeFrom(ByteReader* r, ShrubsAccumulator* out);

 private:
  uint64_t num_leaves_ = 0;
  uint64_t hash_count_ = 0;
  /// levels_[h][i] = node at height h covering leaves [i*2^h, (i+1)*2^h).
  std::vector<std::vector<Digest>> levels_;
};

}  // namespace ledgerdb

#endif  // LEDGERDB_ACCUM_SHRUBS_H_
