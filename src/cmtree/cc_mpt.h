#ifndef LEDGERDB_CMTREE_CC_MPT_H_
#define LEDGERDB_CMTREE_CC_MPT_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "accum/tim.h"
#include "common/status.h"
#include "mpt/mpt.h"
#include "storage/node_store.h"

namespace ledgerdb {

/// Proof produced by the ccMPT baseline: an MPT proof of the clue's
/// counter, plus one ledger-accumulator membership proof per journal. Its
/// verification cost is O(m · log n) in the total ledger size n — the
/// behavior CM-Tree improves on (Figure 9).
struct CcMptProof {
  std::string clue;
  uint64_t counter = 0;
  std::vector<uint64_t> jsns;
  MptProof counter_proof;
  std::vector<MembershipProof> journal_proofs;

  size_t CostInHashes() const {
    size_t cost = counter_proof.CostInHashes();
    for (const auto& p : journal_proofs) cost += p.CostInHashes();
    return cost;
  }
};

/// Clue-counter MPT (ccMPT) — the earlier LedgerDB design ([7], §IV-B1)
/// used as the baseline for CM-Tree. The MPT maps each clue to its entry
/// counter m; the journals themselves live only in the ledger-wide tim
/// accumulator, so clue verification must check the counter and then all m
/// journal existences against the global accumulator.
class CcMpt {
 public:
  /// `ledger_accum` is the ledger-wide accumulator shared with the rest of
  /// the system; not owned.
  explicit CcMpt(TimAccumulator* ledger_accum);

  /// Not copyable: the trie points into the node store the baseline owns.
  CcMpt(const CcMpt&) = delete;
  CcMpt& operator=(const CcMpt&) = delete;

  /// Records that the journal at `jsn` (already appended to the ledger
  /// accumulator) belongs to `clue`. Write-optimized: one counter bump, no
  /// clue-oriented data insertion.
  Status Append(const std::string& clue, uint64_t jsn);

  Digest Root() const { return mpt_root_; }

  uint64_t ClueCount(const std::string& clue) const;

  /// Builds the full clue proof: counter proof + m journal proofs.
  Status GetClueProof(const std::string& clue, CcMptProof* proof) const;

  /// Verifies: (1) counter m under `mpt_root`; (2) the jsn list has exactly
  /// m entries; (3) each journal digest against `ledger_root`.
  static bool VerifyClueProof(const Digest& mpt_root, const Digest& ledger_root,
                              const std::vector<Digest>& digests,
                              const CcMptProof& proof);

 private:
  static Bytes EncodeCounter(uint64_t count);

  NodeStore store_;
  Mpt mpt_;
  Digest mpt_root_;
  TimAccumulator* ledger_accum_;
  /// Side index (non-authenticated; authenticity comes from the proofs).
  std::unordered_map<std::string, std::vector<uint64_t>> clue_jsns_;
};

}  // namespace ledgerdb

#endif  // LEDGERDB_CMTREE_CC_MPT_H_
