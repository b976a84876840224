// Quickstart: create a ledger, append a signed journal, obtain the LSP
// receipt, and verify existence (what) + non-repudiation (who) as an
// external client would: through a LedgerClient that reads the ledger only
// over a transport and trusts no root it has not audited.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "client/ledger_client.h"

using namespace ledgerdb;

int main() {
  // 1. Identities: a CA certifies every participant's key (§II-B).
  SystemClock clock;
  CertificateAuthority ca(KeyPair::FromSeedString("demo-ca"));
  MemberRegistry registry(&ca);
  KeyPair lsp = KeyPair::FromSeedString("demo-lsp");
  KeyPair alice = KeyPair::FromSeedString("demo-alice");
  registry.Register(ca.Certify("lsp", lsp.public_key(), Role::kLsp));
  registry.Register(ca.Certify("alice", alice.public_key(), Role::kUser));

  // 2. A ledger with fam-10 accumulation and 64-journal blocks, and Alice's
  //    client, which reaches it only through a transport.
  LedgerOptions options;
  options.fractal_height = 10;
  Ledger ledger("lg://quickstart", options, &clock, lsp, &registry);
  LocalTransport transport(&ledger);
  LedgerClient::Options copts;
  copts.lsp_key = lsp.public_key();
  copts.fractal_height = options.fractal_height;
  LedgerClient client(&transport, alice, copts);

  // 3. Alice signs and appends a document. The client checks the LSP
  //    receipt (π_s): its signature, and that it commits to her request.
  uint64_t jsn = 0;
  Receipt receipt;
  Status s = client.AppendVerified(
      StringToBytes("contract: alice pays bob 42 coins"), {"contract-0001"},
      &jsn, &receipt);
  if (!s.ok()) {
    std::printf("append failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("appended journal jsn=%llu\n", (unsigned long long)jsn);

  // 4. The receipt is Alice's external evidence.
  std::printf("receipt verifies against LSP key: %s\n",
              receipt.Verify(lsp.public_key()) ? "yes" : "NO");

  // 5. Existence verification (what): the client pins the roots with an
  //    audited refresh, then accepts the journal only if its fam proof
  //    binds it to them and its author signature (π_c) verifies.
  Journal journal;
  bool ok = client.RefreshTrustedRoots().ok() &&
            client.FetchAndVerifyJournal(jsn, &journal).ok();
  std::printf("fam existence proof: %s\n", ok ? "valid" : "INVALID");

  // 6. A forged payload must fail ('foobar' vs 'foopar', §III-A): the same
  //    acceptance rule, applied to a journal the LSP rewrote.
  FamProof proof;
  transport.GetProof(jsn, &proof);
  Journal forged = journal;
  forged.payload = StringToBytes("contract: alice pays bob 4200 coins");
  forged.payload_digest = Sha256::Hash(forged.payload);
  bool forged_ok =
      LedgerClient::VerifyJournalAt(forged, jsn, proof, copts.fractal_height,
                                    client.trusted_fam_root())
          .ok();
  std::printf("forged payload rejected: %s\n", forged_ok ? "NO (bug!)" : "yes");

  return ok && !forged_ok ? 0 : 1;
}
