#ifndef LEDGERDB_BENCH_BENCH_PLANT_H_
#define LEDGERDB_BENCH_BENCH_PLANT_H_

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "client/ledger_client.h"
#include "ledger/ledger.h"
#include "net/server.h"

namespace ledgerdb::bench {

/// Per-process unix socket path, so concurrent bench runs never collide.
inline std::string SocketPath(const std::string& tag) {
  return "/tmp/ldb_bench_" + tag + "_" + std::to_string(::getpid()) +
         ".sock";
}

/// The fixture every system bench shares: a simulated clock, a CA and a
/// registry with the LSP, DBA, regulator and `num_users` seeded user keys
/// certified, and the options each ledger is built with (tune them before
/// MakeLedger). All ledgers of one plant share its URI, so the
/// transactions and endorsements it signs are valid on any of them.
struct Plant {
  static constexpr Timestamp kStartTs = 1000 * kMicrosPerSecond;

  explicit Plant(std::string ledger_uri, int num_users = 1)
      : uri(std::move(ledger_uri)) {
    registry.Register(ca.Certify("lsp", lsp.public_key(), Role::kLsp));
    registry.Register(ca.Certify("dba", dba.public_key(), Role::kDba));
    registry.Register(
        ca.Certify("regulator", regulator.public_key(), Role::kRegulator));
    for (int i = 0; i < num_users; ++i) {
      std::string name = "u" + std::to_string(i);
      users.push_back(KeyPair::FromSeedString("bench-" + name));
      registry.Register(ca.Certify(name, users.back().public_key(),
                                   Role::kUser));
    }
    options.fractal_height = 10;
  }

  /// A fresh ledger at `uri`; aborts if it cannot initialise its storage.
  std::unique_ptr<Ledger> MakeLedger(LedgerStorage storage = {}) {
    auto ledger = std::make_unique<Ledger>(uri, options, &clock, lsp,
                                           &registry, storage);
    if (!ledger->init_status().ok()) {
      std::fprintf(stderr, "ledger init: %s\n",
                   ledger->init_status().ToString().c_str());
      std::abort();
    }
    return ledger;
  }

  ClientTransaction SignedTx(int user, uint64_t nonce, const std::string& clue,
                             Bytes payload) const {
    ClientTransaction tx;
    tx.ledger_uri = uri;
    tx.clues = {clue};
    tx.payload = std::move(payload);
    tx.nonce = nonce;
    tx.Sign(users[static_cast<size_t>(user)]);
    return tx;
  }

  /// Client options matching the plant's LSP key and fam geometry.
  LedgerClient::Options ClientOptions() const {
    LedgerClient::Options copts;
    copts.lsp_key = lsp.public_key();
    copts.fractal_height = options.fractal_height;
    return copts;
  }

  /// DBA + regulator: what Ledger::Occult requires.
  std::vector<Endorsement> OccultEndorsements(uint64_t jsn) const {
    Digest req = Ledger::OccultRequestHash(uri, jsn);
    return {{dba.public_key(), dba.Sign(req)},
            {regulator.public_key(), regulator.Sign(req)}};
  }

  /// DBA + every user: the whole signing pool endorses, which satisfies
  /// "every owner in range" regardless of who appended what.
  std::vector<Endorsement> PurgeEndorsements(uint64_t before_jsn) const {
    Digest req = Ledger::PurgeRequestHash(uri, before_jsn);
    std::vector<Endorsement> out = {{dba.public_key(), dba.Sign(req)}};
    for (const KeyPair& u : users) {
      out.push_back({u.public_key(), u.Sign(req)});
    }
    return out;
  }

  /// A LedgerServer over `ledger`, started on SocketPath(tag); aborts if
  /// it cannot listen. Stop() (or destruction) removes the socket file.
  std::unique_ptr<LedgerServer> Serve(
      Ledger* ledger, const std::string& tag,
      LedgerServer::Options server_options = {}) const {
    server_options.unix_path = SocketPath(tag);
    auto server = std::make_unique<LedgerServer>(ledger, server_options);
    if (!server->Start().ok()) {
      std::fprintf(stderr, "cannot serve on %s\n",
                   server_options.unix_path.c_str());
      std::abort();
    }
    return server;
  }

  const std::string uri;
  SimulatedClock clock{kStartTs};
  CertificateAuthority ca{KeyPair::FromSeedString("bench-ca")};
  MemberRegistry registry{&ca};
  KeyPair lsp{KeyPair::FromSeedString("bench-lsp")};
  KeyPair dba{KeyPair::FromSeedString("bench-dba")};
  KeyPair regulator{KeyPair::FromSeedString("bench-regulator")};
  std::vector<KeyPair> users;
  LedgerOptions options;
};

}  // namespace ledgerdb::bench

#endif  // LEDGERDB_BENCH_BENCH_PLANT_H_
