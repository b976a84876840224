#include "cmtree/cc_mpt.h"

#include "cmtree/cm_tree.h"

namespace ledgerdb {

CcMpt::CcMpt(TimAccumulator* ledger_accum)
    : mpt_(&store_), mpt_root_(Mpt::EmptyRoot()), ledger_accum_(ledger_accum) {}

Bytes CcMpt::EncodeCounter(uint64_t count) {
  Bytes out;
  PutU64(&out, count);
  return out;
}

Status CcMpt::Append(const std::string& clue, uint64_t jsn) {
  if (jsn >= ledger_accum_->size()) {
    return Status::InvalidArgument("jsn not yet in ledger accumulator");
  }
  auto& jsns = clue_jsns_[clue];
  jsns.push_back(jsn);
  return mpt_.Put(mpt_root_, CmTree::ScatterClueKey(clue),
                  Slice(EncodeCounter(jsns.size())), &mpt_root_);
}

uint64_t CcMpt::ClueCount(const std::string& clue) const {
  auto it = clue_jsns_.find(clue);
  return it == clue_jsns_.end() ? 0 : it->second.size();
}

Status CcMpt::GetClueProof(const std::string& clue, CcMptProof* proof) const {
  auto it = clue_jsns_.find(clue);
  if (it == clue_jsns_.end()) return Status::NotFound("unknown clue");
  proof->clue = clue;
  proof->counter = it->second.size();
  proof->jsns = it->second;
  LEDGERDB_RETURN_IF_ERROR(mpt_.GetProof(
      mpt_root_, CmTree::ScatterClueKey(clue), &proof->counter_proof));
  proof->journal_proofs.clear();
  proof->journal_proofs.reserve(it->second.size());
  for (uint64_t jsn : it->second) {
    MembershipProof jp;
    LEDGERDB_RETURN_IF_ERROR(ledger_accum_->GetProof(jsn, &jp));
    proof->journal_proofs.push_back(std::move(jp));
  }
  return Status::OK();
}

bool CcMpt::VerifyClueProof(const Digest& mpt_root, const Digest& ledger_root,
                            const std::vector<Digest>& digests,
                            const CcMptProof& proof) {
  // (1) Counter integrity via the MPT route.
  if (!Mpt::VerifyProof(mpt_root, CmTree::ScatterClueKey(proof.clue),
                        Slice(EncodeCounter(proof.counter)),
                        proof.counter_proof)) {
    return false;
  }
  // (2) Completeness: exactly m journals claimed.
  if (proof.jsns.size() != proof.counter ||
      proof.journal_proofs.size() != proof.counter ||
      digests.size() != proof.counter) {
    return false;
  }
  // (3) Each journal's existence against the ledger-wide accumulator —
  // the O(m · log n) expansion ccMPT pays.
  for (size_t i = 0; i < digests.size(); ++i) {
    if (proof.journal_proofs[i].leaf_index != proof.jsns[i]) return false;
    if (!TimAccumulator::VerifyProof(digests[i], proof.journal_proofs[i],
                                     ledger_root)) {
      return false;
    }
  }
  return true;
}

}  // namespace ledgerdb
