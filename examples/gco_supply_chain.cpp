// The paper's motivating scenario (§I): a national Grain-Cotton-Oil (GCO)
// supply chain. Banks, manufacturers, retailers, suppliers and warehouses
// append manuscripts, invoice copies and receipts to an auditable ledger;
// an external judicial auditor then runs a full Dasein-complete audit
// (what-when-who) without trusting the LSP.
//
// Build & run:  ./build/examples/gco_supply_chain

#include <cstdio>
#include <vector>

#include "audit/dasein_auditor.h"
#include "ledger/ledger.h"

using namespace ledgerdb;

int main() {
  SimulatedClock clock(1700000000LL * kMicrosPerSecond);

  // --- Participants -----------------------------------------------------
  CertificateAuthority ca(KeyPair::FromSeedString("gco-ca"));
  MemberRegistry registry(&ca);
  KeyPair lsp = KeyPair::FromSeedString("gco-lsp");
  registry.Register(ca.Certify("lsp", lsp.public_key(), Role::kLsp));

  struct Corp {
    const char* name;
    KeyPair key;
  };
  std::vector<Corp> corps = {
      {"national-bank", KeyPair::FromSeedString("bank")},
      {"oil-manufacturer", KeyPair::FromSeedString("oil")},
      {"cotton-retailer", KeyPair::FromSeedString("cotton")},
      {"grain-warehouse", KeyPair::FromSeedString("grain")},
      {"logistics-supplier", KeyPair::FromSeedString("logistics")},
  };
  for (const Corp& corp : corps) {
    registry.Register(ca.Certify(corp.name, corp.key.public_key(), Role::kUser));
  }

  // --- Ledger + independent TSA (time notary) ---------------------------
  KeyPair tsa_key = KeyPair::FromSeedString("national-time-service");
  TsaService tsa(tsa_key, &clock);
  LedgerOptions options;
  options.fractal_height = 8;
  options.block_capacity = 16;
  Ledger ledger("lg://gco", options, &clock, lsp, &registry);
  ledger.AttachDirectTsa(&tsa);

  // --- Business activity -------------------------------------------------
  const char* record_kinds[] = {"manuscript", "invoice-copy", "receipt"};
  uint64_t nonce = 0;
  for (int day = 0; day < 10; ++day) {
    for (size_t c = 0; c < corps.size(); ++c) {
      ClientTransaction tx;
      tx.ledger_uri = "lg://gco";
      tx.clues = {std::string("shipment-") + std::to_string(day)};
      tx.payload = StringToBytes(std::string(corps[c].name) + ":" +
                                 record_kinds[(day + c) % 3] + ":day" +
                                 std::to_string(day));
      tx.nonce = nonce++;
      tx.client_ts = clock.Now();
      tx.Sign(corps[c].key);
      uint64_t jsn;
      if (!ledger.Append(tx, &jsn).ok()) {
        std::printf("append failed\n");
        return 1;
      }
      clock.Advance(137 * kMicrosPerMilli);
    }
    // Nightly time anchoring: every day's records are TSA-bracketed.
    ledger.AnchorTime(nullptr);
    clock.Advance(3600LL * kMicrosPerSecond);
  }
  std::printf("ledger holds %llu journals across %zu blocks, %zu time journals\n",
              (unsigned long long)ledger.NumJournals(), ledger.blocks().size(),
              ledger.time_journals().size());

  // The bank and the auditor read the ledger only through a transport,
  // exactly as they would read a remote LSP.
  LocalTransport transport(&ledger);
  LedgerClient::Options copts;
  copts.lsp_key = lsp.public_key();
  copts.fractal_height = options.fractal_height;

  // --- Lineage query: trace one shipment across corporations -------------
  // Accepted only against clue roots the bank's client audited itself.
  LedgerClient bank(&transport, corps[0].key, copts);
  std::vector<Journal> shipment;
  bool lineage_ok = bank.RefreshTrustedRoots().ok() &&
                    bank.FetchAndVerifyLineage("shipment-3", &shipment).ok();
  std::printf("shipment-3 lineage (%zu records): %s\n", shipment.size(),
              lineage_ok ? "verified" : "INVALID");

  // --- External judicial audit (Dasein-complete, §V) ---------------------
  Receipt latest;
  ledger.GetReceipt(ledger.NumJournals() - 1, &latest);
  DaseinAuditor::Context context;
  context.members = &registry;
  context.tsa_key = tsa.public_key();
  DaseinAuditor auditor(&transport, copts, context);
  AuditReport report;
  Status s = auditor.Audit(latest, {}, &report);
  std::printf("Dasein-complete audit: %s\n",
              report.passed ? "PASSED" : ("FAILED: " + report.failure_reason).c_str());
  std::printf("  journals replayed:     %llu\n", (unsigned long long)report.journals_replayed);
  std::printf("  blocks verified:       %llu\n", (unsigned long long)report.blocks_verified);
  std::printf("  time journals (when):  %llu\n", (unsigned long long)report.time_journals_verified);
  std::printf("  signatures (who):      %llu\n", (unsigned long long)report.signatures_verified);

  return (lineage_ok && s.ok() && report.passed) ? 0 : 1;
}
