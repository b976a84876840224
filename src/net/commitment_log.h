#ifndef LEDGERDB_NET_COMMITMENT_LOG_H_
#define LEDGERDB_NET_COMMITMENT_LOG_H_

#include <string>

#include "ledger/ledger_mirror.h"
#include "ledger/receipt.h"

namespace ledgerdb {

/// Evidence of LSP equivocation: a validly signed commitment that
/// contradicts what this client independently verified. Because the
/// commitment carries the LSP signature, the evidence is self-certifying —
/// a third party can check it without trusting either client.
struct EquivocationEvidence {
  SignedCommitment claimed;  ///< the offending signed commitment
  Digest expected_fam_root;  ///< fam root our mirror derives at that count
  uint64_t at_count = 0;     ///< journal count where the views diverge
  std::string reason;
};

/// Checks one signed commitment against an independently built mirror:
/// the mirror's fam root at the commitment's journal count must equal the
/// committed fam root (skipped when the mirror has not reached that count
/// — gossip can only audit the prefix it has seen). On divergence returns
/// VerificationFailed and fills `ev`.
Status CrossCheckCommitment(const SignedCommitment& c,
                            const LedgerMirror& mirror,
                            EquivocationEvidence* ev);

}  // namespace ledgerdb

#endif  // LEDGERDB_NET_COMMITMENT_LOG_H_
