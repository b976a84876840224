// Multi-tenant LSP hosting: one operator key hosts several notarization
// ledgers that share one T-Ledger (two-layer time notary), while an
// external light client tracks fam epoch roots (fam-aoa) and verifies
// documents against the root its LedgerClient pinned by an audited
// refresh, without ever trusting the LSP.
//
// Build & run:  ./build/examples/notarization_service

#include <cstdio>
#include <memory>
#include <vector>

#include "accum/fam.h"
#include "client/ledger_client.h"

using namespace ledgerdb;

int main() {
  SimulatedClock clock(0);
  CertificateAuthority ca(KeyPair::FromSeedString("svc-demo-ca"));
  MemberRegistry registry(&ca);
  KeyPair lsp = KeyPair::FromSeedString("svc-demo-lsp");
  KeyPair notary_user = KeyPair::FromSeedString("svc-demo-user");
  registry.Register(ca.Certify("lsp", lsp.public_key(), Role::kLsp));
  registry.Register(ca.Certify("user", notary_user.public_key(), Role::kUser));
  TsaService tsa(KeyPair::FromSeedString("svc-demo-tsa"), &clock);

  // Three tenants under one LSP key, all anchored through one T-Ledger
  // (§III-B2: one public TSA notary anchoring service for all ledgers).
  TLedger tledger(&tsa, &clock, lsp, TLedger::Options{});
  LedgerOptions options;
  options.fractal_height = 6;  // small epochs for the demo
  std::vector<std::unique_ptr<Ledger>> tenants;
  for (const char* uri : {"lg://tenant-a", "lg://tenant-b", "lg://tenant-c"}) {
    tenants.push_back(
        std::make_unique<Ledger>(uri, options, &clock, lsp, &registry));
    if (!tenants.back()->init_status().ok()) return 1;
    tenants.back()->AttachTLedger(&tledger);
  }
  std::printf("hosting %zu ledgers\n", tenants.size());

  // Tenant A notarizes documents and anchors once per simulated second
  // through the shared T-Ledger; the T-Ledger then runs its own TSA
  // finalization tick. Tenants B and C stay idle and never anchor.
  Ledger* tenant_a = tenants[0].get();
  uint64_t nonce = 0;
  std::vector<uint64_t> jsns;
  for (int second = 0; second < 5; ++second) {
    for (int i = 0; i < 40; ++i) {
      ClientTransaction tx;
      tx.ledger_uri = "lg://tenant-a";
      tx.payload = StringToBytes("doc-" + std::to_string(nonce));
      tx.nonce = nonce++;
      tx.client_ts = clock.Now();
      tx.Sign(notary_user);
      uint64_t jsn = 0;
      tenant_a->Append(tx, &jsn);
      jsns.push_back(jsn);
      clock.Advance(25 * kMicrosPerMilli);
    }
    if (!tenant_a->AnchorTime(nullptr).ok()) return 1;
    tledger.Tick();
  }
  tledger.ForceFinalize();
  std::printf("tenant-a: %llu journals, %zu time journals; TSA endorsements: %llu\n",
              (unsigned long long)tenant_a->NumJournals(),
              tenant_a->time_journals().size(),
              (unsigned long long)tsa.endorsement_count());

  // External light client: pins tenant A's fam root through an audited
  // refresh (the LSP's signed commitment, replayed into the client's own
  // mirror), then syncs epoch roots once and verifies documents with
  // in-epoch paths only (the fam-aoa fast path).
  LocalTransport transport(tenant_a);
  LedgerClient::Options copts;
  copts.lsp_key = lsp.public_key();
  copts.fractal_height = options.fractal_height;
  LedgerClient client(&transport, notary_user, copts);
  if (!client.RefreshTrustedRoots().ok()) {
    std::printf("audited refresh failed!\n");
    return 1;
  }
  // Reconstruct the verifier's view by syncing against a local replica
  // built from the served journals; it must reproduce the pinned root.
  FamAccumulator replica(options.fractal_height);
  for (uint64_t jsn = 0; jsn < client.mirror().journal_count(); ++jsn) {
    Journal j;
    tenant_a->GetJournal(jsn, &j);
    replica.Append(j.TxHash());
  }
  if (!(replica.Root() == client.trusted_fam_root())) {
    std::printf("replica mismatch!\n");
    return 1;
  }
  FamVerifier verifier;
  verifier.Sync(replica);
  std::printf("light client synced %zu trusted epoch roots\n",
              verifier.TrustedEpochs());

  int verified = 0;
  for (uint64_t jsn : jsns) {
    Journal j;
    tenant_a->GetJournal(jsn, &j);
    MembershipProof proof;
    uint64_t epoch = 0;
    replica.GetEpochProof(jsn, &proof, &epoch);
    if (verifier.Verify(j.TxHash(), proof, epoch)) ++verified;
  }
  std::printf("documents verified via fam-aoa: %d/%zu\n", verified, jsns.size());

  // The when evidence: any submitted digest is provable against the TSA.
  const TimeEvidence& ev = tenant_a->time_journals().back().evidence;
  TimeProof tproof;
  tledger.GetTimeProof(ev.tledger_index, &tproof);
  bool when_ok =
      TLedger::VerifyTimeProof(ev.ledger_digest, tproof, tsa.public_key());
  std::printf("latest anchor's TSA time proof: %s (timestamp %.1fs)\n",
              when_ok ? "valid" : "INVALID",
              tproof.finalization.timestamp / 1e6);

  return (verified == static_cast<int>(jsns.size()) && when_ok) ? 0 : 1;
}
