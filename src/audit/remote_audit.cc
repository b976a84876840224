#include "audit/remote_audit.h"

#include "client/ledger_client.h"

namespace ledgerdb {

Status RemoteAudit(LedgerTransport* transport,
                   const RemoteAuditOptions& options,
                   RemoteAuditReport* report) {
  *report = RemoteAuditReport{};
  LedgerClient::Options copts;
  copts.lsp_key = options.lsp_key;
  copts.fractal_height = options.fractal_height;
  copts.mpt_cache_depth = options.mpt_cache_depth;
  copts.retry = options.retry;
  // The auditor only reads, so it needs no signing identity.
  LedgerClient client(transport, KeyPair(), copts);

  Status s = client.RefreshTrustedRoots();
  const uint64_t count = client.mirror().journal_count();
  for (uint64_t jsn = 0; s.ok() && jsn < count; ++jsn) {
    Journal journal;
    s = client.FetchAndVerifyJournal(jsn, &journal);
    if (s.ok()) ++report->journals_verified;
  }
  if (s.IsVerificationFailed()) report->failure_reason = s.message();
  if (!s.ok()) return s;
  report->passed = true;
  return Status::OK();
}

}  // namespace ledgerdb
