#ifndef LEDGERDB_TIMESTAMP_T_LEDGER_H_
#define LEDGERDB_TIMESTAMP_T_LEDGER_H_

#include <vector>

#include "accum/shrubs.h"
#include "common/clock.h"
#include "common/status.h"
#include "crypto/ecdsa.h"
#include "timestamp/tsa.h"

namespace ledgerdb {

/// Receipt returned by T-Ledger for an accepted submission (bottom layer of
/// the two-layer time-notary architecture).
struct TLedgerReceipt {
  uint64_t index = 0;        ///< position in the T-Ledger accumulator
  Timestamp client_ts = 0;   ///< the submitting ledger's τ_c
  Timestamp tledger_ts = 0;  ///< T-Ledger's own τ_t at admission
  Signature lsp_signature;   ///< T-Ledger operator's non-repudiation

  Digest MessageHash(const Digest& digest) const;
};

/// Self-contained *when* evidence for one submitted digest: membership in
/// the T-Ledger accumulator at a TSA-finalized size, plus the TSA
/// endorsement of that root. Proves the digest existed no later than
/// `finalization.timestamp`.
struct TimeProof {
  uint64_t index = 0;
  Timestamp tledger_ts = 0;
  uint64_t finalized_size = 0;
  MembershipProof membership;
  TimeAttestation finalization;

  Bytes Serialize() const;
  static bool Deserialize(Slice raw, TimeProof* out);
};

/// Time Ledger (§III-B2): a public notary ledger operated by the LSP that
/// aggregates digests from many ledgers and pegs its own root to the TSA
/// every `finalize_interval` (Δτ). The bottom layer runs the advanced
/// one-way protocol of Protocol 4 — a submission is admitted only while
/// the delay against the submitter's local timestamp is below `tau_delta`
/// — which removes the time-amplification defect; the top layer runs the
/// two-way Protocol 3 against the TSA.
class TLedger {
 public:
  struct Options {
    /// τ_Δ: maximum tolerated delay between the submitter's τ_c and
    /// T-Ledger's τ_t (Protocol 4 admission check).
    Timestamp tau_delta = 500 * kMicrosPerMilli;
    /// Δτ: TSA finalization period ("T-Ledger seeks TSA proof every
    /// second").
    Timestamp finalize_interval = kMicrosPerSecond;
  };

  TLedger(TsaService* tsa, Clock* clock, KeyPair lsp_key, Options options);

  /// Protocol 4: admits `digest` iff τ_t < τ_c + τ_Δ. On success returns a
  /// signed receipt. Rejections return TimestampRejected.
  Status Submit(const Digest& digest, Timestamp tau_c, TLedgerReceipt* receipt);

  /// Heartbeat: runs a TSA finalization if Δτ elapsed and new digests
  /// arrived. Returns true when a finalization happened.
  bool Tick();

  /// Unconditionally finalizes the current accumulator (used at audit
  /// boundaries and in tests).
  void ForceFinalize();

  /// Builds the when-evidence for submission `index`. Fails with NotFound
  /// until a finalization covers the index.
  Status GetTimeProof(uint64_t index, TimeProof* proof) const;

  /// Verifies a time proof: TSA signature over the finalized root, and the
  /// digest's membership under that root.
  static bool VerifyTimeProof(const Digest& digest, const TimeProof& proof,
                              const PublicKey& tsa_key);

  /// Verifies a submission receipt signature.
  bool VerifyReceipt(const Digest& digest, const TLedgerReceipt& receipt) const;

  const PublicKey& lsp_key() const { return lsp_key_.public_key(); }
  uint64_t submission_count() const { return accum_.size(); }
  uint64_t finalization_count() const { return finalizations_.size(); }
  uint64_t rejected_count() const { return rejected_; }

 private:
  struct Finalization {
    uint64_t size;  ///< accumulator size covered
    TimeAttestation attestation;
  };

  TsaService* tsa_;
  Clock* clock_;
  KeyPair lsp_key_;
  Options options_;
  ShrubsAccumulator accum_;
  std::vector<Finalization> finalizations_;
  Timestamp last_finalize_;
  uint64_t finalized_through_ = 0;
  uint64_t rejected_ = 0;
};

}  // namespace ledgerdb

#endif  // LEDGERDB_TIMESTAMP_T_LEDGER_H_
