#ifndef LEDGERDB_AUDIT_DASEIN_AUDITOR_H_
#define LEDGERDB_AUDIT_DASEIN_AUDITOR_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "client/ledger_client.h"
#include "common/clock.h"
#include "common/status.h"

namespace ledgerdb {

/// Scope limits for an audit (§V: "this process can further take a temporal
/// predicate", e.g. audit everything committed before 2018-12-31).
struct AuditOptions {
  Timestamp from = std::numeric_limits<Timestamp>::min();
  Timestamp to = std::numeric_limits<Timestamp>::max();
};

/// Outcome of a Dasein-complete audit, with per-factor counters so callers
/// (and the Figure 7 benchmark) can attribute cost to what / when / who.
struct AuditReport {
  bool passed = false;
  std::string failure_reason;

  uint64_t journals_replayed = 0;       // what
  uint64_t blocks_verified = 0;         // what
  uint64_t boundaries_verified = 0;     // what
  uint64_t time_journals_verified = 0;  // when
  uint64_t signatures_verified = 0;     // who
  uint64_t purge_journals = 0;
  uint64_t occult_journals = 0;
};

/// Dasein-complete auditor (§V) against a distrusted LSP. It reads the
/// ledger only through a LedgerTransport: one audited refresh pins the
/// roots, one sweep fetches each journal once, binds it by its committed
/// tx-hash and checks who, when and the purge/occult claims, and the
/// header chain and the latest receipt are checked against that replay.
/// A failure ends the audit with a failed report; transport errors pass
/// through.
class DaseinAuditor {
 public:
  struct Context {
    const MemberRegistry* members = nullptr;
    /// Accepted time authorities (Prerequisite 3).
    PublicKey tsa_key;
    /// Set when the ledger pegs through a T-Ledger (Protocol 4); the
    /// auditor fetches TSA bindings from it (Prerequisite 4: public,
    /// downloadable, verifiable).
    const TLedger* tledger = nullptr;
  };

  /// `options`: the LSP key, fam fractal height and RPC retry policy.
  DaseinAuditor(LedgerTransport* transport, LedgerClient::Options options,
                Context context)
      : transport_(transport),
        options_(std::move(options)),
        context_(context) {}

  /// Full Dasein-complete audit. `latest_receipt` is the client-held π_s
  /// evidence (step 5); taking it seals its journal. Journals appended
  /// since are bound by the replay alone, so a live LSP can be audited.
  Status Audit(const Receipt& latest_receipt, const AuditOptions& options,
               AuditReport* report) const;

  /// The acceptance rule for the header chain, with no I/O: `headers`
  /// tile a prefix of the journals `pinned` audited, from height 0 (later
  /// headers are ignored); each links to its predecessor, its tx root and
  /// fam root are recomputed from the replay, and one ending at the pinned
  /// count carries the pinned clue and state roots. A `receipt` must match
  /// its committed tx-hash, lie in the prefix and name its header.
  static Status VerifyHeaders(const std::vector<BlockHeader>& headers,
                              const LedgerClient& pinned,
                              const Receipt* receipt, AuditReport* report);

 private:
  struct Sweep;

  /// Pins the roots, sweeps every journal once, then checks the header
  /// chain against the replay and `receipt`. A purge or occult committed
  /// after the pin shows as a claim no swept journal backs, so an
  /// unbacked claim advances the pin once and sweeps the new journals
  /// before the claims are judged. `window` narrows the counted and
  /// time-checked journals, never the binding.
  Status Run(const AuditOptions& window, const Receipt& receipt,
             AuditReport* report) const;
  /// who / when / mutation checks of one chunk of fetched journals.
  Status VerifyChunk(const std::vector<Journal>& journals,
                     const AuditOptions& window, const LedgerMirror& mirror,
                     Sweep* sweep, AuditReport* report) const;

  LedgerTransport* transport_;
  LedgerClient::Options options_;
  Context context_;
};

}  // namespace ledgerdb

#endif  // LEDGERDB_AUDIT_DASEIN_AUDITOR_H_
