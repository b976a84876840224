// The §IV-A copyright-protection example: an artwork produced in 2005,
// with royalty transfers in 2010 and 2015, tracked under clue DCI001.
// Clue-oriented verification must validate all three records *and their
// count* — a missing record is as fatal as a forged one. The verifier is a
// LedgerClient that reads the ledger only over a transport.
//
// Build & run:  ./build/examples/copyright_lineage

#include <cstdio>
#include <vector>

#include "client/ledger_client.h"
#include "net/byzantine_transport.h"

using namespace ledgerdb;

namespace {

void AppendEvent(Ledger* ledger, const KeyPair& who, uint64_t* nonce,
                 Clock* clock, const std::string& event) {
  ClientTransaction tx;
  tx.ledger_uri = "lg://copyright";
  tx.clues = {"DCI001"};
  tx.payload = StringToBytes(event);
  tx.nonce = (*nonce)++;
  tx.client_ts = clock->Now();
  tx.Sign(who);
  ledger->Append(tx, nullptr);
}

}  // namespace

int main() {
  SimulatedClock clock(1104537600LL * kMicrosPerSecond);  // ~2005
  CertificateAuthority ca(KeyPair::FromSeedString("ncac-ca"));
  MemberRegistry registry(&ca);
  KeyPair lsp = KeyPair::FromSeedString("copyright-lsp");
  KeyPair artist = KeyPair::FromSeedString("artist");
  KeyPair gallery = KeyPair::FromSeedString("gallery");
  registry.Register(ca.Certify("lsp", lsp.public_key(), Role::kLsp));
  registry.Register(ca.Certify("artist", artist.public_key(), Role::kUser));
  registry.Register(ca.Certify("gallery", gallery.public_key(), Role::kUser));

  Ledger ledger("lg://copyright", {}, &clock, lsp, &registry);
  uint64_t nonce = 0;

  // Lifecycle: produced 2005, royalty 2010, transfer 2015 — each appended
  // with AppendTx(lg_id, payload, 'DCI001').
  AppendEvent(&ledger, artist, &nonce, &clock, "artwork produced (2005)");
  clock.Advance(5LL * 365 * 24 * 3600 * kMicrosPerSecond);
  AppendEvent(&ledger, artist, &nonce, &clock, "first royalty transfer (2010)");
  clock.Advance(5LL * 365 * 24 * 3600 * kMicrosPerSecond);
  AppendEvent(&ledger, gallery, &nonce, &clock, "royalty transfer (2015)");

  // Unrelated ledger traffic — CM-Tree keeps DCI001 verification cost
  // independent of it.
  for (int i = 0; i < 1000; ++i) {
    ClientTransaction tx;
    tx.ledger_uri = "lg://copyright";
    tx.clues = {"DCI" + std::to_string(100 + i)};
    tx.payload = StringToBytes("other artwork " + std::to_string(i));
    tx.nonce = nonce++;
    tx.client_ts = clock.Now();
    tx.Sign(gallery);
    ledger.Append(tx, nullptr);
  }

  // The LSP as the verifier meets it: honest at first, but from its second
  // listing of a clue on it hides the newest record.
  LocalTransport local(&ledger);
  ByzantineTransport lsp_view(&local, /*seed=*/1);
  lsp_view.InjectFault(RpcOp::kListTx, 1, FaultKind::kTruncateProof);
  LedgerClient::Options copts;
  copts.lsp_key = lsp.public_key();
  copts.fractal_height = LedgerOptions().fractal_height;
  LedgerClient verifier(&lsp_view, gallery, copts);
  Status pinned = verifier.RefreshTrustedRoots();

  // ListTx + Verify: retrieve and validate all DCI001 records against the
  // audited clue root.
  std::vector<Journal> lineage;
  bool complete =
      pinned.ok() && verifier.FetchAndVerifyLineage("DCI001", &lineage).ok();
  std::printf("DCI001 has %zu lifecycle records\n", lineage.size());
  for (const Journal& j : lineage) {
    std::printf("  jsn %llu: %s\n", (unsigned long long)j.jsn,
                std::string(j.payload.begin(), j.payload.end()).c_str());
  }
  std::printf("full lineage verification: %s\n", complete ? "valid" : "INVALID");

  // Completeness check: a listing with only 2 of 3 records must fail,
  // because the CM-Tree1 leaf binds the entry count.
  std::vector<Journal> partial;
  Status suppressed = verifier.FetchAndVerifyLineage("DCI001", &partial);
  bool rejected = pinned.ok() && suppressed.IsVerificationFailed();
  std::printf("suppressed-record attack rejected: %s (%s)\n",
              rejected ? "yes" : "NO (bug!)", suppressed.ToString().c_str());

  return (complete && rejected) ? 0 : 1;
}
