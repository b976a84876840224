#ifndef LEDGERDB_LEDGER_RECEIPT_H_
#define LEDGERDB_LEDGER_RECEIPT_H_

#include <string>

#include "common/clock.h"
#include "crypto/ecdsa.h"
#include "crypto/hash.h"

namespace ledgerdb {

/// LSP commitment receipt (π_s, §III-C): packs the three digests —
/// request-hash (client intent), tx-hash (server journal) and block-hash
/// (commitment point) — plus jsn and timestamp, signed by the LSP. The
/// client keeps it externally; it is the anti-repudiation evidence used in
/// audit step 5.
struct Receipt {
  uint64_t jsn = 0;
  Digest request_hash;
  Digest tx_hash;
  Digest block_hash;
  Timestamp timestamp = 0;
  Signature lsp_sig;

  /// The signed message digest over all receipt fields.
  Digest MessageHash() const;

  /// Checks π_s against the LSP's public key.
  bool Verify(const PublicKey& lsp_key) const;

  Bytes Serialize() const;
  static bool Deserialize(Slice raw, Receipt* out);
};

/// LSP-signed ledger commitment at a journal count: the three roots a
/// client must pin to verify membership, lineage, and state proofs. This
/// is what an audited RefreshTrustedRoots advances to (after verifying the
/// journal delta reproduces the roots) and what CrossCheckCommitments
/// gossips between clients to expose equivocation: two validly signed
/// commitments at the same journal_count with different roots are
/// themselves the evidence of a forked view.
struct SignedCommitment {
  std::string ledger_uri;
  uint64_t journal_count = 0;
  Digest fam_root;
  Digest clue_root;
  Digest state_root;
  Timestamp timestamp = 0;
  Signature lsp_sig;

  /// The signed message digest over all commitment fields.
  Digest MessageHash() const;

  /// Checks the LSP signature.
  bool Verify(const PublicKey& lsp_key) const;

  Bytes Serialize() const;
  static bool Deserialize(Slice raw, SignedCommitment* out);
};

}  // namespace ledgerdb

#endif  // LEDGERDB_LEDGER_RECEIPT_H_
