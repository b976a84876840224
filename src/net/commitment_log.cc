#include "net/commitment_log.h"

namespace ledgerdb {

Status CrossCheckCommitment(const SignedCommitment& c,
                            const LedgerMirror& mirror,
                            EquivocationEvidence* ev) {
  if (c.journal_count > mirror.journal_count()) {
    return Status::OK();  // beyond our verified prefix; nothing to compare
  }
  Digest expected;
  Status st = mirror.RootAtJournalCount(c.journal_count, &expected);
  if (!st.ok()) return Status::OK();  // count unreachable (e.g. pruned)
  if (expected == c.fam_root) return Status::OK();
  if (ev != nullptr) {
    ev->claimed = c;
    ev->expected_fam_root = expected;
    ev->at_count = c.journal_count;
    ev->reason = "signed fam root diverges from independently mirrored root";
  }
  return Status::VerificationFailed(
      "equivocation: signed commitment contradicts mirrored history");
}

}  // namespace ledgerdb
