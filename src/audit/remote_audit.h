#ifndef LEDGERDB_AUDIT_REMOTE_AUDIT_H_
#define LEDGERDB_AUDIT_REMOTE_AUDIT_H_

#include <cstdint>
#include <string>

#include "common/retry.h"
#include "net/transport.h"

namespace ledgerdb {

/// Outcome of a transport-level audit, with a counter so tests can assert
/// the audit actually covered the ledger it claims to have covered.
struct RemoteAuditReport {
  bool passed = false;
  std::string failure_reason;
  uint64_t journals_verified = 0;  ///< journals fetched + fully checked
};

struct RemoteAuditOptions {
  PublicKey lsp_key;
  int fractal_height = 15;
  int mpt_cache_depth = 6;
  RetryPolicy retry;
};

/// Audits a ledger THROUGH its transport, trusting nothing the server
/// says. It is a LedgerClient that never signs: one audited
/// RefreshTrustedRoots (the signed commitment must fall out of replaying
/// the full journal delta into a fresh mirror), then FetchAndVerifyJournal
/// for every jsn the commitment covers. So the audit accepts exactly what
/// the client accepts, check for check. This is the distrusted-LSP
/// counterpart of the server-side DaseinAuditor: a matrix cell counts as
/// *masked* only if this audit still passes on the post-fault ledger.
/// VerificationFailed sets `failure_reason`; transport errors pass through.
Status RemoteAudit(LedgerTransport* transport,
                   const RemoteAuditOptions& options,
                   RemoteAuditReport* report);

}  // namespace ledgerdb

#endif  // LEDGERDB_AUDIT_REMOTE_AUDIT_H_
