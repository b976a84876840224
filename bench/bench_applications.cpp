// Figure 10 reproduction: application-level comparison between LedgerDB
// and the Hyperledger-Fabric-like baseline on the paper's two workloads —
// data notarization and data lineage.
//
//  (a) notarization Append TPS vs journal volume (256 B payloads). The
//      Fabric column reports min(local measured, modeled consensus cap):
//      the paper's cluster is ordering-bound at ~2-2.4 K TPS.
//  (b) notarization verification latency (4 KB payloads). LedgerDB is a
//      server round trip + proof check (~2.5 ms in the paper); Fabric
//      verifies through a chaincode invocation (~1.2 s).
//  (c) lineage verification TPS vs clue entries. LedgerDB pays one random
//      I/O per entry; Fabric reads the history in nearly one sequential
//      I/O — so the curves converge as entries exceed ~50.
//  (d) lineage verification latency vs entries (both grow; LedgerDB ~300x
//      lower in the paper).
//
// Latency columns report measured-compute + modeled network/storage, with
// the model documented in DESIGN.md. The LedgerDB verification rows accept
// answers only through a LedgerClient over a LocalTransport, against roots
// pinned by one audited refresh before each timed loop; they include π_c
// of every fetched journal.

#include <algorithm>
#include <string>
#include <vector>

#include "accum/fam.h"
#include "baselines/fabric_sim.h"
#include "bench/bench_util.h"
#include "client/ledger_client.h"
#include "common/random.h"

using namespace ledgerdb;
using namespace ledgerdb::bench;

namespace {

/// Modeled deployment constants for the LedgerDB side (intra-region
/// client->service RTT and ESSD random-read time per lineage entry).
constexpr Timestamp kLedgerDbRttUs = 2 * kMicrosPerMilli;
constexpr Timestamp kEssdRandomReadUs = 180;
constexpr int kFractalHeight = 15;

struct LedgerFixture {
  SimulatedClock clock{0};
  CertificateAuthority ca{KeyPair::FromSeedString("app-ca")};
  MemberRegistry registry{&ca};
  KeyPair lsp = KeyPair::FromSeedString("app-lsp");
  KeyPair user = KeyPair::FromSeedString("app-user");
  std::unique_ptr<Ledger> ledger;
  std::unique_ptr<LocalTransport> transport;
  uint64_t nonce = 0;

  LedgerFixture() {
    registry.Register(ca.Certify("lsp", lsp.public_key(), Role::kLsp));
    registry.Register(ca.Certify("user", user.public_key(), Role::kUser));
    LedgerOptions options;
    options.fractal_height = kFractalHeight;
    ledger = std::make_unique<Ledger>("lg://app", options, &clock, lsp,
                                      &registry);
    transport = std::make_unique<LocalTransport>(ledger.get());
  }

  /// A client over the fixture's transport with the roots pinned by an
  /// audited refresh; aborts if the refresh fails.
  std::unique_ptr<LedgerClient> PinnedClient() {
    LedgerClient::Options copts;
    copts.lsp_key = lsp.public_key();
    copts.fractal_height = kFractalHeight;
    auto client = std::make_unique<LedgerClient>(transport.get(), user, copts);
    if (!client->RefreshTrustedRoots().ok()) std::abort();
    return client;
  }

  uint64_t Append(size_t payload_bytes, std::vector<std::string> clues = {}) {
    ClientTransaction tx;
    tx.ledger_uri = "lg://app";
    tx.clues = std::move(clues);
    tx.payload = Bytes(payload_bytes, static_cast<uint8_t>(nonce * 31 + 7));
    tx.nonce = nonce++;
    tx.client_ts = clock.Now();
    tx.Sign(user);
    uint64_t jsn = 0;
    ledger->Append(tx, &jsn);
    return jsn;
  }
};

}  // namespace

int main(int argc, char** argv) {
  JsonReporter json(argc, argv);
  int shift = ScaleShift();

  // -----------------------------------------------------------------
  // The paper's LedgerDB server verifies client signatures in parallel
  // across cores and commits sequentially (deployed: 2x Xeon Platinum
  // nodes); Fabric is bound by its ordering service regardless of compute.
  // On this single-core box we measure the two pipeline phases separately
  // and model the paper's 32-core deployment as
  //   min(32 / t_verify, 1 / t_commit)     for LedgerDB, and
  //   min(32 / t_endorser, consensus cap)  for Fabric.
  Header("Figure 10(a): notarization Append TPS vs journal volume (256B)");
  std::printf("%-10s %14s %14s %14s %14s\n", "volume", "LDB 1-core",
              "LDB deployed", "Fabric 1-core", "Fabric deployed");
  constexpr double kDeployCores = 32.0;
  for (int p = 12 + shift; p <= 16 + shift; p += 2) {
    uint64_t n = 1ULL << p;
    LedgerFixture fx;
    // Pre-sign the workload (client-side work, off the server's path).
    std::vector<ClientTransaction> txs;
    txs.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      ClientTransaction tx;
      tx.ledger_uri = "lg://app";
      tx.payload = Bytes(256, static_cast<uint8_t>(i));
      tx.nonce = fx.nonce++;
      tx.Sign(fx.user);
      txs.push_back(std::move(tx));
    }
    // Phase 1 (parallelizable): pi_c verification.
    double verify_secs = TimeSeconds([&] {
      for (const auto& tx : txs) {
        if (!tx.VerifyClientSignature()) std::abort();
      }
    });
    // Phase 2 (serial): the commit pipeline — payload digest, tx-hash and
    // fam accumulation (no signatures: the batch is already verified).
    FamAccumulator fam(kFractalHeight);
    double commit_secs = TimeSeconds([&] {
      for (const auto& tx : txs) {
        Journal journal;
        journal.type = JournalType::kNormal;
        journal.payload_digest = Sha256::Hash(tx.payload);
        journal.request_hash = tx.RequestHash();
        journal.client_key = tx.client_key;
        journal.client_sig = tx.client_sig;
        fam.Append(journal.TxHash());
      }
    });
    double t_verify = verify_secs / n, t_commit = commit_secs / n;
    double ldb_1core = 1.0 / (t_verify + t_commit);
    double ldb_deploy = std::min(kDeployCores / t_verify, 1.0 / t_commit);

    FabricSim fabric((FabricOptions()));
    uint64_t fn = n / 4;
    double fabric_secs = TimeSeconds([&] {
      for (uint64_t i = 0; i < fn; ++i) {
        fabric.Invoke("doc-" + std::to_string(i), Bytes(256, 1), nullptr,
                      nullptr);
      }
    });
    double fabric_1core = fn / fabric_secs;
    double fabric_deploy = std::min(fabric_1core * kDeployCores,
                                    FabricOptions().consensus_tps_cap);
    std::printf("%-10s %14.0f %14.0f %14.0f %14.0f\n",
                VolumeLabel(n, 256).c_str(), ldb_1core, ldb_deploy,
                fabric_1core, fabric_deploy);
    json.Add("notarize_append/ledgerdb/" + VolumeLabel(n, 256), ldb_1core);
    json.Add("notarize_append/fabric/" + VolumeLabel(n, 256), fabric_1core);
  }

  // -----------------------------------------------------------------
  Header("Figure 10(b): notarization verification latency (4KB payloads)");
  std::printf("%-10s %16s %16s\n", "volume", "LedgerDB(ms)", "Fabric(ms)");
  for (int p = 10 + shift; p <= 14 + shift; p += 2) {
    uint64_t n = 1ULL << p;
    LedgerFixture fx;
    std::vector<uint64_t> jsns;
    for (uint64_t i = 0; i < n; ++i) jsns.push_back(fx.Append(4096));
    FabricSim fabric((FabricOptions()));
    for (uint64_t i = 0; i < n / 4; ++i) {
      fabric.Invoke("doc-" + std::to_string(i), Bytes(4096, 1), nullptr, nullptr);
    }
    fabric.Commit();

    Random rng(5);
    const int iters = 50;
    std::unique_ptr<LedgerClient> client = fx.PinnedClient();
    double ledger_us = AvgLatencyUs(iters, [&] {
      Journal journal;
      if (!client->FetchAndVerifyJournal(jsns[rng.Uniform(jsns.size())],
                                         &journal)
               .ok()) {
        std::abort();
      }
    });
    double fabric_us = AvgLatencyUs(iters, [&] {
      std::string key = "doc-" + std::to_string(rng.Uniform(n / 4));
      bool valid = false;
      SimCost cost;
      if (!fabric.VerifyState(key, Bytes(4096, 1), &valid, &cost).ok() ||
          !valid) {
        std::abort();
      }
    });
    SimCost fabric_model;
    bool valid;
    fabric.VerifyState("doc-0", Bytes(4096, 1), &valid, &fabric_model);
    double ldb_lat_us = ledger_us + kLedgerDbRttUs;
    double fabric_lat_us = fabric_us + fabric_model.modeled;
    std::printf("%-10s %16.2f %16.2f\n", VolumeLabel(n, 4096).c_str(),
                ldb_lat_us / 1000.0, fabric_lat_us / 1000.0);
    json.Add("notarize_verify/ledgerdb/" + VolumeLabel(n, 4096),
             1e6 / ldb_lat_us, ldb_lat_us, ldb_lat_us);
    json.Add("notarize_verify/fabric/" + VolumeLabel(n, 4096),
             1e6 / fabric_lat_us, fabric_lat_us, fabric_lat_us);
  }

  // -----------------------------------------------------------------
  // Lineage: one key with a growing number of entries.
  Header("Figure 10(c,d): lineage verification vs clue entries");
  std::printf("%-8s %14s %14s %16s %16s\n", "entries", "LDB TPS", "Fabric TPS",
              "LDB lat(ms)", "Fabric lat(ms)");
  for (size_t entries : {1UL, 5UL, 10UL, 25UL, 50UL, 100UL}) {
    LedgerFixture fx;
    std::string clue = "asset";
    for (size_t e = 0; e < entries; ++e) fx.Append(1024, {clue});
    FabricSim fabric((FabricOptions()));
    for (size_t e = 0; e < entries; ++e) {
      fabric.Invoke(clue, Bytes(1024, static_cast<uint8_t>(e)), nullptr,
                    nullptr);
    }
    fabric.Commit();

    const int iters = 20;
    std::unique_ptr<LedgerClient> client = fx.PinnedClient();
    double ledger_us = AvgLatencyUs(iters, [&] {
      std::vector<Journal> lineage;
      if (!client->FetchAndVerifyLineage(clue, &lineage).ok() ||
          lineage.size() != entries) {
        std::abort();
      }
    });
    double fabric_us = AvgLatencyUs(iters, [&] {
      bool valid = false;
      size_t versions = 0;
      SimCost cost;
      if (!fabric.VerifyKeyHistory(clue, &valid, &versions, &cost).ok() ||
          !valid) {
        std::abort();
      }
    });
    SimCost fabric_model;
    bool valid;
    size_t versions;
    fabric.VerifyKeyHistory(clue, &valid, &versions, &fabric_model);

    // LedgerDB pays one ESSD random read per entry plus the client RTT;
    // Fabric's history scan is nearly one sequential I/O inside its
    // (modeled) chaincode invocation.
    double ldb_total_us =
        ledger_us + kLedgerDbRttUs +
        static_cast<double>(entries) * kEssdRandomReadUs;
    double fabric_total_us = fabric_us + fabric_model.modeled + 400.0;
    std::printf("%-8zu %14.0f %14.0f %16.2f %16.2f\n", entries,
                1e6 / ldb_total_us, 1e6 / fabric_total_us,
                ldb_total_us / 1000.0, fabric_total_us / 1000.0);
    json.Add("lineage_verify/ledgerdb/" + std::to_string(entries),
             1e6 / ldb_total_us, ldb_total_us, ldb_total_us);
  }

  std::printf(
      "\nExpected paper shape: LedgerDB ~23x Fabric's notarization TPS and\n"
      "~500x lower latency; lineage TPS converges toward Fabric past ~50\n"
      "entries while staying ~300x lower latency on the verification path.\n");
  return 0;
}
