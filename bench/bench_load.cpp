// Open-loop SLO load harness: drives a real LedgerServer over sockets
// with Poisson arrivals at fixed *offered* rates, decoupling the arrival
// process from completions so queueing delay is charged to the request
// (no coordinated omission: latency is measured from the scheduled
// arrival, not from when a client thread got around to sending).
//
// Three op profiles, each swept over three offered-load points:
//   append       — 100% signed AppendTx
//   read_verify  — 60% raw GetJournal, 40% FetchAndVerifyJournal
//                  (client-side proof verification against pinned roots)
//   mixed        — 40% append, 25% read, 20% verify, 10% range-audit
//                  (BatchAuditRange), 4% occult, 1% purge — the admin ops
//                  run through LedgerServer::WithLedger with DBA/regulator
//                  (+ owner) endorsements, serialized behind the same
//                  ledger mutex as wire requests.
// Clue selection is Zipf(0.99) over 64 accounts, so hot-key contention is
// part of the workload, as in YCSB.
//
// Each row reports offered vs admitted throughput, shed rate, and
// p50/p99/p99.9 of the open-loop latency (plus service-time p99 measured
// from the actual send, for comparing against server envelopes).
//
//   <profile>/offered=<rate>  — one offered-load point
//   closed/<profile>/clients=N
//                             — append and read_verify only, N in
//                               {1, 2, 4, 8}: closed loop, each of N
//                               clients sends its next op as soon as the
//                               previous one returns; latency is measured
//                               from the send, throughput is aggregate.
//   overload/offered=<rate>   — 1 slow worker (2 ms injected service
//                               delay), queue depth 2, offered far above
//                               capacity: asserts shed > 0 and that the
//                               admitted service-time p99 stays within the
//                               (queue_depth + 1) * service-delay envelope
//                               (with rtt + scheduling margin). Its
//                               shed_p50_us / shed_p99_us show that sheds
//                               fail fast.
//   soak/mixed                — `--soak [--seconds N]`: the mixed profile
//                               routed through a seeded SocketFaultProxy
//                               that injects resets, stalls, short chunks,
//                               mid-frame closes and oversized frames.
//                               Clean outcomes (ok/shed/deadline/transient)
//                               are tallied; Corruption or
//                               VerificationFailed aborts — faults may
//                               deny service, never alter verified data.
//
// `--json BENCH_load.json` emits schema-2 rows with additive per-row keys
// (offered_per_sec, shed_rate, p999_us, service_p99_us, errors, and
// shed_p50_us / shed_p99_us on rows that shed). The metrics registry is
// reset before every point, so under `--metrics` each row carries the
// snapshot of its own point under a "metrics" key.
// Cross-process tracing is left on (trace_sample_every=64) so the run
// also exercises the trace plane it is meant to observe.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_plant.h"
#include "bench/bench_util.h"
#include "client/ledger_client.h"
#include "common/random.h"
#include "net/server.h"
#include "net/socket_fault.h"
#include "net/socket_transport.h"
#include "obs/trace.h"

using namespace ledgerdb;
using namespace ledgerdb::bench;

namespace {

constexpr uint64_t kMicrosPerSec = 1'000'000;
constexpr int kNumUsers = 8;
constexpr uint64_t kNumClues = 64;

/// One ledger under load behind its own socket server, and the counters
/// its client threads share.
struct Target {
  Plant* plant;
  std::unique_ptr<Ledger> ledger;
  std::unique_ptr<LedgerServer> server;
  std::atomic<uint64_t> nonce{0};
  std::atomic<uint64_t> last_jsn{0};

  /// Serves a fresh ledger on `tag`'s socket and preloads it through the
  /// front door, so reads and audits have data from the first arrival.
  Target(Plant* p, const std::string& tag, uint64_t preload,
         LedgerServer::Options sopts = {})
      : plant(p),
        ledger(p->MakeLedger()),
        server(p->Serve(ledger.get(), tag, std::move(sopts))) {
    SocketTransport seed(server->address(), plant->uri);
    for (uint64_t n = 0; n < preload; ++n) {
      if (!Append(&seed, static_cast<int>(n % kNumUsers),
                  "acct-" + std::to_string(n % kNumClues))
               .ok()) {
        std::abort();
      }
    }
  }

  Status Append(LedgerTransport* transport, int user,
                const std::string& clue) {
    uint64_t n = nonce.fetch_add(1, std::memory_order_relaxed);
    uint64_t jsn = 0;
    Status st = transport->AppendTx(
        plant->SignedTx(user, n, clue,
                        StringToBytes("payload-" + std::to_string(n))),
        &jsn);
    if (st.ok()) {
      uint64_t prev = last_jsn.load(std::memory_order_relaxed);
      while (jsn > prev && !last_jsn.compare_exchange_weak(
                               prev, jsn, std::memory_order_relaxed)) {
      }
    }
    return st;
  }
};

enum class OpKind : int {
  kAppend = 0,
  kRead,
  kVerify,
  kRangeAudit,
  kOccult,
  kPurge,
  kNumKinds,
};

struct Profile {
  const char* name;
  // Cumulative selection weights over OpKind, scaled to 100.
  int cum[static_cast<int>(OpKind::kNumKinds)];
  bool closed_rows;  ///< also swept closed-loop over client counts
};

constexpr Profile kProfiles[] = {
    {"append", {100, 100, 100, 100, 100, 100}, true},
    {"read_verify", {0, 60, 100, 100, 100, 100}, true},
    {"mixed", {40, 65, 85, 95, 99, 100}, false},
};

OpKind PickOp(const Profile& profile, Random* rng) {
  int roll = static_cast<int>(rng->Uniform(100));
  for (int k = 0; k < static_cast<int>(OpKind::kNumKinds); ++k) {
    if (roll < profile.cum[k]) return static_cast<OpKind>(k);
  }
  return OpKind::kAppend;
}

struct PointResult {
  LatencySampler open_loop;   ///< from scheduled arrival (all outcomes)
  LatencySampler admitted;    ///< open-loop latency, ok responses only
  LatencySampler service;     ///< from actual send, ok responses only
  LatencySampler shed_lat;    ///< from actual send, shed responses only
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t deadline = 0;
  uint64_t transient = 0;
  uint64_t rejected = 0;  ///< clean non-transport refusals (admin races)
  uint64_t stale = 0;     ///< audits abandoned because roots kept moving
};

struct PointConfig {
  const Profile* profile;
  double offered_per_sec;  ///< 0: closed loop
  double seconds;
  int threads = 4;
  uint64_t request_deadline_us = 5'000'000;
  uint64_t seed = 1;
};

/// One load point, with the registry reset first so the row's snapshot
/// covers this point alone. Open loop: precompute a Poisson arrival
/// schedule, deal it round-robin to a fixed client-thread pool, and replay
/// it. Closed loop (offered rate 0): each client sends its next op as soon
/// as the previous one returns, for the same duration.
PointResult RunPoint(Target* target, const std::string& address,
                     const PointConfig& cfg) {
  obs::MetricsRegistry::Default().ResetAll();
  const bool closed = cfg.offered_per_sec <= 0;
  // Only a profile with verify or audit ops pins roots up front: the
  // audited refresh replays every journal so far, which an append point
  // would otherwise pay for inside its window.
  const bool verifies =
      cfg.profile->cum[static_cast<int>(OpKind::kRangeAudit)] >
      cfg.profile->cum[static_cast<int>(OpKind::kRead)];
  const uint64_t total_ops =
      closed ? 0
             : std::max<uint64_t>(
                   static_cast<uint64_t>(cfg.offered_per_sec * cfg.seconds),
                   8);
  Random sched_rng(cfg.seed);
  std::vector<uint64_t> arrivals(total_ops);
  double t = 0.0;
  for (uint64_t i = 0; i < total_ops; ++i) {
    t += sched_rng.NextExponential(1e6 / cfg.offered_per_sec);
    arrivals[i] = static_cast<uint64_t>(t);
  }

  std::mutex result_mu;
  PointResult result;
  ZipfSampler zipf(kNumClues);
  std::vector<std::thread> threads;
  const uint64_t start_us = obs::NowUs() + 10'000;  // grace for thread spawn
  const uint64_t stop_us =
      start_us + static_cast<uint64_t>(cfg.seconds * kMicrosPerSec);

  for (int c = 0; c < cfg.threads; ++c) {
    threads.emplace_back([&, c] {
      Random rng(cfg.seed * 1000 + static_cast<uint64_t>(c));
      SocketTransport::Options topts;
      topts.request_deadline_us = cfg.request_deadline_us;
      topts.trace_sample_every = 64;
      const Plant& plant = *target->plant;
      SocketTransport transport(address, plant.uri, topts);
      LedgerClient client(&transport, plant.users[static_cast<size_t>(c) %
                                                  plant.users.size()],
                          plant.ClientOptions());
      bool roots_ok = verifies && client.RefreshTrustedRoots().ok();
      PointResult local;

      // Runs a client-side verification op, distinguishing stale pinned
      // roots from integrity breaches. Writers advance the roots
      // continuously (every mutation appends), so a proof can fail simply
      // because the pin is behind; an auditor re-pins and retries. A
      // failure is only a breach if the ledger was QUIESCENT around the
      // attempt: two consecutive refreshes reporting no advancement,
      // sandwiching a failing op, prove no write raced it. Audits still
      // failing after several advancing rounds are abandoned as stale —
      // an availability cost, counted, never silently dropped.
      auto audited = [&](const std::function<Status()>& op) -> Status {
        Status st = op();
        int quiescent = 0;
        for (int attempt = 0; st.IsVerificationFailed(); ++attempt) {
          bool advanced = false;
          Status refresh = client.RefreshTrustedRoots(&advanced);
          if (!refresh.ok()) return refresh;  // transport, not integrity
          if (!advanced) {
            if (++quiescent >= 2) return st;  // no writes: genuine breach
          } else {
            quiescent = 0;
          }
          if (attempt >= 8) {
            ++local.stale;
            return Status::OK();
          }
          st = op();
        }
        return st;
      };

      for (uint64_t i = static_cast<uint64_t>(c);;
           i += static_cast<uint64_t>(cfg.threads)) {
        // Closed loop is scheduled at the send, so latency runs from it.
        uint64_t scheduled = 0;
        if (closed) {
          scheduled = std::max(obs::NowUs(), start_us);
          if (scheduled >= stop_us) break;
        } else {
          if (i >= total_ops) break;
          scheduled = start_us + arrivals[i];
        }
        uint64_t now = obs::NowUs();
        if (now < scheduled) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(scheduled - now));
        }
        const std::string clue =
            "acct-" + std::to_string(zipf.Next(&rng) % kNumClues);
        OpKind kind = PickOp(*cfg.profile, &rng);
        // Verification needs pinned roots; fall back to a raw read if the
        // initial refresh lost a race with a fault window.
        if (kind == OpKind::kVerify && !roots_ok) kind = OpKind::kRead;

        const uint64_t sent_us = obs::NowUs();
        Status st;
        switch (kind) {
          case OpKind::kAppend:
            st = target->Append(&transport, c % kNumUsers, clue);
            break;
          case OpKind::kRead: {
            uint64_t hi = target->last_jsn.load(std::memory_order_relaxed);
            Journal journal;
            st = transport.GetJournal(1 + rng.Uniform(std::max<uint64_t>(
                                              hi, 1)),
                                      &journal);
            if (st.IsNotFound()) st = Status::OK();  // purged/occulted slot
            break;
          }
          case OpKind::kVerify: {
            uint64_t hi = target->last_jsn.load(std::memory_order_relaxed);
            uint64_t jsn = 1 + rng.Uniform(std::max<uint64_t>(hi, 1));
            Journal journal;
            st = audited(
                [&] { return client.FetchAndVerifyJournal(jsn, &journal); });
            if (st.IsNotFound()) st = Status::OK();
            break;
          }
          case OpKind::kRangeAudit: {
            std::vector<Journal> journals;
            st = audited([&] {
              return client.BatchAuditRange(
                  clue, 0, static_cast<Timestamp>(INT64_MAX), &journals);
            });
            if (st.IsNotFound()) st = Status::OK();
            break;
          }
          case OpKind::kOccult: {
            uint64_t hi = target->last_jsn.load(std::memory_order_relaxed);
            if (hi < 2) {
              st = Status::OK();
              break;
            }
            uint64_t jsn = 1 + rng.Uniform(hi - 1);
            target->server->WithLedger([&](Ledger* ledger) {
              uint64_t occult_jsn = 0;
              st = ledger->Occult(jsn, plant.OccultEndorsements(jsn),
                                  &occult_jsn);
            });
            break;
          }
          case OpKind::kPurge: {
            uint64_t hi = target->last_jsn.load(std::memory_order_relaxed);
            target->server->WithLedger([&](Ledger* ledger) {
              uint64_t before = ledger->PurgedBoundary() + 4;
              if (before >= hi) {
                st = Status::OK();
                return;
              }
              uint64_t purge_jsn = 0;
              st = ledger->Purge(before, plant.PurgeEndorsements(before), {},
                                 &purge_jsn);
            });
            break;
          }
          default:
            st = Status::OK();
        }
        const uint64_t end_us = obs::NowUs();
        const double open_lat =
            static_cast<double>(end_us - std::min(scheduled, end_us));
        local.open_loop.Add(open_lat);
        if (st.ok()) {
          ++local.ok;
          local.admitted.Add(open_lat);
          local.service.Add(static_cast<double>(end_us - sent_us));
        } else if (st.IsUnavailable()) {
          ++local.shed;
          local.shed_lat.Add(static_cast<double>(end_us - sent_us));
        } else if (st.IsDeadlineExceeded()) {
          ++local.deadline;
        } else if (st.IsTransientIO() || st.IsIOError()) {
          ++local.transient;
        } else if (st.IsCorruption() || st.IsVerificationFailed()) {
          std::fflush(stdout);
          std::fprintf(stderr, "FATAL: integrity failure under load: %s\n",
                       st.ToString().c_str());
          std::abort();
        } else {
          // Admin races (already occulted, no journals in purge range, …)
          // and argument rejections: clean refusals, not SLO violations.
          ++local.rejected;
        }
      }

      std::lock_guard<std::mutex> lock(result_mu);
      result.ok += local.ok;
      result.shed += local.shed;
      result.deadline += local.deadline;
      result.transient += local.transient;
      result.rejected += local.rejected;
      result.stale += local.stale;
      result.open_loop.Merge(local.open_loop);
      result.admitted.Merge(local.admitted);
      result.service.Merge(local.service);
      result.shed_lat.Merge(local.shed_lat);
    });
  }
  for (auto& th : threads) th.join();
  return result;
}

void Report(JsonReporter* json, const std::string& name, double offered,
            double elapsed_secs, const PointResult& r) {
  const uint64_t total =
      r.ok + r.shed + r.deadline + r.transient + r.rejected;
  const double admitted_ops =
      elapsed_secs > 0 ? static_cast<double>(r.ok) / elapsed_secs : 0;
  const double shed_rate =
      total > 0 ? static_cast<double>(r.shed) / static_cast<double>(total)
                : 0;
  std::printf(
      "%-28s offered %7.0f/s admitted %7.0f/s shed %5.1f%%  p50 %8.1f  "
      "p99 %9.1f  p99.9 %9.1f us\n",
      name.c_str(), offered, admitted_ops, shed_rate * 100.0,
      r.admitted.PercentileUs(50), r.admitted.PercentileUs(99),
      r.admitted.PercentileUs(99.9));
  std::vector<std::pair<std::string, double>> extras = {
      {"p999_us", r.admitted.PercentileUs(99.9)},
      {"offered_per_sec", offered},
      {"shed_rate", shed_rate},
      {"service_p99_us", r.service.PercentileUs(99)},
      {"deadline_exceeded", static_cast<double>(r.deadline)},
      {"transient_errors", static_cast<double>(r.transient)},
      {"stale_audits", static_cast<double>(r.stale)},
      {"open_loop_p99_us", r.open_loop.PercentileUs(99)}};
  if (r.shed > 0) {  // sheds must fail fast: no queue wait, no service
    extras.push_back({"shed_p50_us", r.shed_lat.PercentileUs(50)});
    extras.push_back({"shed_p99_us", r.shed_lat.PercentileUs(99)});
  }
  json->AddWithExtras(name, admitted_ops, r.admitted.PercentileUs(50),
                      r.admitted.PercentileUs(99), extras);
  json->SnapshotIntoLastRow();
}

/// Runs one point and reports it as row `name`.
PointResult RunAndReport(JsonReporter* json, const std::string& name,
                         Target* target, const std::string& address,
                         const PointConfig& cfg) {
  PointResult r;
  double secs = TimeSeconds([&] { r = RunPoint(target, address, cfg); });
  Report(json, name, cfg.offered_per_sec, secs, r);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  JsonReporter json(argc, argv);
  bool soak = false;
  double soak_seconds = 4.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--soak") == 0) soak = true;
    if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      soak_seconds = std::atof(argv[i + 1]);
    }
  }
  int shift = ScaleShift();
  const double point_secs = shift < 0 ? 0.6 : (shift > 0 ? 4.0 : 1.5);
  const std::vector<double> rates = {250, 500, 1000};
  json.SetMeta("point_secs", point_secs);
  json.SetMetaInt("trace_sample_every", 64);
  Plant plant("lg://bench-load", kNumUsers);

  if (!soak) {
    Header("open-loop SLO sweep (Poisson arrivals, Zipf(0.99) clues), "
           "then closed loop over client counts");
    uint64_t seed = 1;
    for (const Profile& profile : kProfiles) {
      Target target(&plant, profile.name, /*preload=*/128);
      PointConfig cfg;
      cfg.profile = &profile;
      cfg.seconds = point_secs;
      for (double rate : rates) {
        cfg.offered_per_sec = rate;
        cfg.seed = seed++;
        RunAndReport(&json,
                     std::string(profile.name) + "/offered=" +
                         std::to_string(static_cast<int>(rate)),
                     &target, target.server->address(), cfg);
      }
      if (!profile.closed_rows) continue;
      // Closed points keep the last seed, so every open-loop point replays
      // the same arrival schedule whether or not closed rows run.
      for (int clients : {1, 2, 4, 8}) {
        cfg.offered_per_sec = 0;
        cfg.threads = clients;
        RunAndReport(&json,
                     std::string("closed/") + profile.name +
                         "/clients=" + std::to_string(clients),
                     &target, target.server->address(), cfg);
      }
    }

    {  // deterministic overload point: capacity ~ 1/(2 ms) = 500/s max
      Header("overload (1 worker, queue_depth=2, 2 ms service delay)");
      LedgerServer::Options sopts;
      sopts.num_workers = 1;
      sopts.queue_depth = 2;
      sopts.debug_service_delay_us = 2'000;
      sopts.request_timeout_us = 30'000'000;  // expiry must not mask sheds
      Target target(&plant, "overload", /*preload=*/16, sopts);
      const double offered = 2000;  // ~4x capacity
      PointConfig cfg;
      cfg.profile = &kProfiles[1];  // read_verify: constant service time
      cfg.offered_per_sec = offered;
      cfg.seconds = point_secs;
      cfg.threads = 8;
      cfg.seed = 99;
      PointResult r = RunAndReport(
          &json,
          "overload/offered=" + std::to_string(static_cast<int>(offered)),
          &target, target.server->address(), cfg);
      target.server->Stop();

      // The two load-plane contracts this harness exists to check: at 4x
      // capacity the admission controller must shed, and what it admits
      // must stay inside the queue envelope — (queue_depth + 1) stages of
      // the injected 2 ms service delay, with margin for rtt + scheduler
      // jitter on a shared CI box.
      if (r.shed == 0) {
        std::fprintf(stderr, "FATAL: no sheds at 4x overload\n");
        return 1;
      }
      const double envelope_us =
          static_cast<double>(sopts.queue_depth + 1) *
          static_cast<double>(sopts.debug_service_delay_us);
      const double bound_us = 4.0 * envelope_us + 20'000.0;
      if (r.service.PercentileUs(99) > bound_us) {
        std::fprintf(stderr,
                     "FATAL: admitted service p99 %.0f us exceeds envelope "
                     "bound %.0f us\n",
                     r.service.PercentileUs(99), bound_us);
        return 1;
      }
      json.SetMeta("overload_envelope_us", envelope_us);
      json.SetMeta("overload_shed_fraction",
                   static_cast<double>(r.shed) /
                       static_cast<double>(r.ok + r.shed + r.deadline +
                                           r.transient + r.rejected));
    }
    return 0;
  }

  // --soak: the mixed profile through a fault-injecting proxy. Faults may
  // cost availability (transient/deadline/shed) but never integrity.
  Header("soak (mixed profile through SocketFaultProxy)");
  Target target(&plant, "soak-backend", /*preload=*/64);
  const std::string proxy_path = SocketPath("soak-proxy");
  SocketFaultProxy proxy(proxy_path, target.server->address(), /*seed=*/7);
  if (!proxy.Start().ok()) std::abort();
  // Every 3rd connection (reconnects included) hits a rotating fault;
  // indices 0-1 stay clean so the initial root pin usually lands. Each
  // fault kills the connection, the transport reconnects on a fresh
  // index, and the schedule keeps biting for the whole run.
  const SocketFaultKind kinds[] = {
      SocketFaultKind::kReset, SocketFaultKind::kShortChunks,
      SocketFaultKind::kMidFrameClose, SocketFaultKind::kStall,
      SocketFaultKind::kOversizedFrame};
  for (uint64_t idx = 2, k = 0; idx < 400; ++idx, ++k) {
    proxy.ScheduleFault(idx, kinds[k % 5]);
  }
  PointConfig cfg;
  cfg.profile = &kProfiles[2];  // mixed
  cfg.offered_per_sec = 200;
  cfg.seconds = soak_seconds;
  cfg.request_deadline_us = 500'000;  // stalls must resolve quickly
  cfg.seed = 7;
  PointResult r =
      RunAndReport(&json, "soak/mixed", &target, proxy.address(), cfg);
  std::printf(
      "soak outcomes: ok %" PRIu64 "  shed %" PRIu64 "  deadline %" PRIu64
      "  transient %" PRIu64 "  rejected %" PRIu64 "  (proxy conns %" PRIu64
      ")\n",
      r.ok, r.shed, r.deadline, r.transient, r.rejected,
      proxy.connections());
  json.SetMeta("soak_transient_errors", static_cast<double>(r.transient));
  json.SetMeta("soak_deadline_errors", static_cast<double>(r.deadline));
  proxy.Stop();
  target.server->Stop();
  if (r.ok == 0) {
    std::fprintf(stderr, "FATAL: soak completed zero requests\n");
    return 1;
  }
  return 0;
}
