// Transport-seam benchmark: what client-side ubiquitous verification costs
// on top of the raw service plane, and what the Byzantine hardening adds.
//
// Rows:
//   append/raw-transport      — sign + AppendTx over LocalTransport (wire
//                               round-trip + server commit), no client
//                               verification.
//   append/verified           — AppendVerified: adds the receipt fetch, the
//                               LSP signature check and the jsn/request-hash
//                               binding checks.
//   append/verified-faulty    — same, but every 4th AppendTx hits an
//                               injected transient fault (retry + idempotent
//                               resubmission overhead).
//   refresh/unaudited         — blind root pin (the pre-hardening path).
//   refresh/audited           — audited root advance: delta fetch + mirror
//                               replay + 3-root compare (per-journal rate).
//   fetch/verify-journal      — journal + fam proof fetch and verification
//                               against the pinned root.
//   audit/local               — full Dasein-complete audit (DaseinAuditor)
//                               over LocalTransport: one audited refresh,
//                               one fetch per journal, batched π_c, the
//                               header chain and the receipt (journals/s,
//                               plus us_per_journal).
//   audit/socket              — the same audit over a SocketTransport to a
//                               LedgerServer hosting the same ledger.
//
// `--json BENCH_transport.json` emits machine-readable results.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "audit/dasein_auditor.h"
#include "bench/bench_plant.h"
#include "bench/bench_util.h"
#include "client/ledger_client.h"
#include "net/byzantine_transport.h"
#include "net/socket_transport.h"
#include "net/transport.h"

using namespace ledgerdb;
using namespace ledgerdb::bench;

int main(int argc, char** argv) {
  JsonReporter json(argc, argv);
  int shift = ScaleShift();
  const uint64_t iters = shift < 0 ? 64 : (256 << shift);
  Plant plant("lg://bench-transport");
  const KeyPair& alice = plant.users[0];
  auto signed_tx = [&](uint64_t n) {
    return plant.SignedTx(0, n, "acct-" + std::to_string(n % 8),
                          StringToBytes("payload-" + std::to_string(n)));
  };

  {  // append/raw-transport
    auto ledger = plant.MakeLedger();
    LocalTransport transport(ledger.get());
    uint64_t nonce = 0;
    LatencySampler lat;
    double ops = Throughput(iters, [&] {
      ClientTransaction tx = signed_tx(nonce++);
      lat.Time([&] {
        uint64_t jsn = 0;
        if (!transport.AppendTx(tx, &jsn).ok()) std::abort();
      });
    });
    std::printf("append/raw-transport    %9.0f ops/s  p50 %7.1f us\n", ops,
                lat.PercentileUs(50));
    json.Add("append/raw-transport", ops, lat);
  }

  {  // append/verified
    auto ledger = plant.MakeLedger();
    LocalTransport transport(ledger.get());
    LedgerClient client(&transport, alice, plant.ClientOptions());
    uint64_t n = 0;
    LatencySampler lat;
    double ops = Throughput(iters, [&] {
      lat.Time([&] {
        uint64_t jsn = 0;
        if (!client
                 .AppendVerified(StringToBytes("p-" + std::to_string(n)),
                                 {"acct-" + std::to_string(n % 8)}, &jsn)
                 .ok()) {
          std::abort();
        }
        ++n;
      });
    });
    std::printf("append/verified         %9.0f ops/s  p50 %7.1f us\n", ops,
                lat.PercentileUs(50));
    json.Add("append/verified", ops, lat);
  }

  {  // append/verified-faulty: every 4th submission eats a transient fault
    auto ledger = plant.MakeLedger();
    LocalTransport transport(ledger.get());
    ByzantineTransport byz(&transport, /*seed=*/1);
    for (uint64_t i = 0; i < iters + iters / 3; i += 4) {
      byz.InjectFault(RpcOp::kAppendTx, i, FaultKind::kTransientError);
    }
    LedgerClient client(&byz, alice, plant.ClientOptions());
    uint64_t n = 0;
    LatencySampler lat;
    double ops = Throughput(iters, [&] {
      lat.Time([&] {
        uint64_t jsn = 0;
        if (!client
                 .AppendVerified(StringToBytes("f-" + std::to_string(n)),
                                 {"acct-" + std::to_string(n % 8)}, &jsn)
                 .ok()) {
          std::abort();
        }
        ++n;
      });
    });
    std::printf("append/verified-faulty  %9.0f ops/s  p50 %7.1f us\n", ops,
                lat.PercentileUs(50));
    json.Add("append/verified-faulty", ops, lat);
  }

  {  // refresh paths + fetch/verify + the audits share one plant
    auto ledger = plant.MakeLedger();
    LocalTransport transport(ledger.get());
    LedgerClient audited(&transport, alice, plant.ClientOptions());
    LedgerClient blind(&transport, alice, plant.ClientOptions());
    const uint64_t kBatch = 64;
    const uint64_t batches = std::max<uint64_t>(2, iters / kBatch);
    uint64_t nonce = 0;
    LatencySampler audit_lat, blind_lat;
    for (uint64_t b = 0; b < batches; ++b) {
      for (uint64_t i = 0; i < kBatch; ++i) {
        uint64_t jsn = 0;
        ClientTransaction tx = signed_tx(nonce++);
        if (!transport.AppendTx(tx, &jsn).ok()) std::abort();
      }
      blind_lat.Time([&] {
        if (!blind.RefreshTrustedRootsUnaudited().ok()) std::abort();
      });
      audit_lat.Time([&] {
        if (!audited.RefreshTrustedRoots().ok()) std::abort();
      });
    }
    double audited_jps =
        static_cast<double>(kBatch) / (audit_lat.PercentileUs(50) * 1e-6);
    double blind_ops = 1e6 / std::max(1e-3, blind_lat.PercentileUs(50));
    std::printf("refresh/unaudited       %9.0f ops/s  p50 %7.1f us\n",
                blind_ops, blind_lat.PercentileUs(50));
    std::printf("refresh/audited         %9.0f journals/s (delta replay)\n",
                audited_jps);
    json.Add("refresh/unaudited", blind_ops, blind_lat);
    json.Add("refresh/audited-journals", audited_jps, audit_lat);

    uint64_t total = ledger->NumJournals();
    LatencySampler fetch_lat;
    uint64_t j = 1;
    double fetch_ops = Throughput(std::min<uint64_t>(iters, total - 1), [&] {
      fetch_lat.Time([&] {
        Journal journal;
        if (!audited.FetchAndVerifyJournal(1 + (j++ % (total - 1)), &journal)
                 .ok()) {
          std::abort();
        }
      });
    });
    std::printf("fetch/verify-journal    %9.0f ops/s  p50 %7.1f us\n",
                fetch_ops, fetch_lat.PercentileUs(50));
    json.Add("fetch/verify-journal", fetch_ops, fetch_lat);

    // The same audit over the in-process codec loopback and over a real
    // socket: the difference is the price of auditing through a transport.
    Receipt receipt;
    if (!ledger->GetReceipt(ledger->NumJournals() - 1, &receipt).ok()) {
      std::abort();
    }
    auto server = plant.Serve(ledger.get(), "transport");
    SocketTransport socket(server->address(), plant.uri);
    DaseinAuditor::Context context;
    context.members = &plant.registry;
    for (LedgerTransport* via : {static_cast<LedgerTransport*>(&transport),
                                 static_cast<LedgerTransport*>(&socket)}) {
      const std::string name =
          via == &transport ? "audit/local" : "audit/socket";
      AuditReport report;
      double secs = TimeSeconds([&] {
        if (!DaseinAuditor(via, plant.ClientOptions(), context)
                 .Audit(receipt, {}, &report)
                 .ok()) {
          std::abort();
        }
      });
      double jps = static_cast<double>(report.journals_replayed) / secs;
      std::printf("%-23s %9.0f journals/s  %7.1f us/journal\n", name.c_str(),
                  jps, 1e6 / jps);
      json.AddWithExtras(name, jps, 0.0, 0.0, {{"us_per_journal", 1e6 / jps}});
    }
  }

  return 0;
}
