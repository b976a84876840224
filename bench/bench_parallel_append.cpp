// Parallel append pipeline benchmark: aggregate append throughput of the
// serial single-shard path vs the pipelined ShardedLedgerGroup (threaded
// π_c prevalidation + per-shard committer lanes, docs/parallel_append.md).
//
// The append path is dominated by the π_c ECDSA verification, which is
// shard-independent and embarrassingly parallel; commits are cheap and
// retire serially per shard. The acceptance bar for the pipeline is a
// ≥3x aggregate speedup at 4 shards / 8 prevalidation threads over the
// serial single-shard baseline.
//
// `--json BENCH_parallel_append.json` emits machine-readable results.

#include <algorithm>
#include <cinttypes>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_plant.h"
#include "bench/bench_util.h"
#include "ledger/sharded.h"
#include "storage/stream_store.h"

using namespace ledgerdb;
using namespace ledgerdb::bench;

int main(int argc, char** argv) {
  JsonReporter json(argc, argv);
  Plant plant("lg://bpa");
  plant.options.fractal_height = 15;
  const int shift = ScaleShift();
  const uint64_t n = shift >= 0 ? 4096ULL << shift : 4096ULL >> -shift;
  std::vector<ClientTransaction> txs;
  txs.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    txs.push_back(plant.SignedTx(0, i, "clue-" + std::to_string(i % 64),
                                 Bytes(256, static_cast<uint8_t>(i))));
  }

  Header("Parallel append pipeline: aggregate TPS (256B journals)");
  std::printf("%-34s %12s %12s %12s %10s\n", "config", "TPS", "p50(us)",
              "p99(us)", "speedup");

  // Baseline: serial appends into one shard on the caller's thread.
  double serial_tps = 0.0;
  {
    ShardedLedgerGroup group(plant.uri, 1, plant.options, &plant.clock,
                             plant.lsp, &plant.registry);
    LatencySampler lat;
    double secs = TimeSeconds([&] {
      for (const ClientTransaction& tx : txs) {
        lat.Time([&] {
          ShardedLedgerGroup::Location loc;
          if (!group.Append(tx, &loc).ok()) std::abort();
        });
      }
    });
    serial_tps = static_cast<double>(n) / secs;
    std::printf("%-34s %12.0f %12.1f %12.1f %9s\n", "serial 1-shard", serial_tps,
                lat.PercentileUs(50), lat.PercentileUs(99), "1.0x");
    json.Add("serial/1-shard", serial_tps, lat);
  }

  // Pipelined configurations: shards x prevalidation threads. Batch
  // latency is sampled per 256-tx chunk (the pipeline overlaps work, so
  // per-tx latency is not individually observable from the caller).
  struct Config {
    size_t shards;
    size_t threads;
  };
  for (const Config& cfg : {Config{1, 8}, Config{4, 2}, Config{4, 8}}) {
    ShardedLedgerGroup group(plant.uri, cfg.shards, plant.options,
                             &plant.clock, plant.lsp, &plant.registry);
    group.StartParallelAppend(cfg.threads);
    LatencySampler chunk_lat;
    const size_t chunk = 256;
    std::vector<ShardedLedgerGroup::Location> locations;
    double secs = TimeSeconds([&] {
      for (size_t off = 0; off < txs.size(); off += chunk) {
        size_t len = std::min(chunk, txs.size() - off);
        chunk_lat.Time([&] {
          if (!group
                   .AppendBatch(std::span<const ClientTransaction>(
                                    txs.data() + off, len),
                                &locations)
                   .ok()) {
            std::abort();
          }
        });
      }
    });
    group.StopParallelAppend();
    if (group.TotalJournals() != n + cfg.shards) std::abort();
    double tps = static_cast<double>(n) / secs;
    std::string name = "pipelined " + std::to_string(cfg.shards) +
                       "-shard x " + std::to_string(cfg.threads) + "-thread";
    std::printf("%-34s %12.0f %12.1f %12.1f %9.1fx\n", name.c_str(), tps,
                chunk_lat.PercentileUs(50) / chunk,
                chunk_lat.PercentileUs(99) / chunk, tps / serial_tps);
    json.Add("pipelined/" + std::to_string(cfg.shards) + "-shard-" +
                 std::to_string(cfg.threads) + "-thread",
             tps, chunk_lat.PercentileUs(50) / chunk,
             chunk_lat.PercentileUs(99) / chunk);
  }

  // Durable write path: real files + fsync through Env::Default(). The
  // serial baseline pays two fsyncs per append (frame + watermark); the
  // pipelined path coalesces each committer-lane group into one
  // FileStreamStore::AppendBatch — one buffered write and one fsync pair
  // per group — and hands block sealing to the per-shard sealer lanes.
  // This is the gap the group-commit design actually closes: the
  // in-memory rows above are compute-bound, the durable rows are
  // fsync-bound.
  Header("Durable write path (real files + fsync): per-append vs group commit");
  const size_t kGroupCommitMaxSize = 64;
  const uint64_t kGroupCommitMaxDelayUs = 20000;
  json.SetMetaInt("group_commit_max_size", kGroupCommitMaxSize);
  json.SetMetaInt("group_commit_max_delay_us", kGroupCommitMaxDelayUs);
  auto fsyncs_now = [] {
    obs::MetricsSnapshot snap = obs::MetricsRegistry::Default().Snapshot();
    for (const auto& [name, value] : snap.counters) {
      if (name == "ledgerdb_storage_fsyncs_total") return value;
    }
    return uint64_t{0};
  };
  auto open_stores =
      [](const std::string& tag, size_t shards,
         std::vector<std::unique_ptr<FileStreamStore>>* stores,
         std::vector<LedgerStorage>* storage) {
        Env* env = Env::Default();
        for (size_t s = 0; s < shards; ++s) {
          for (const char* kind : {"journals", "blocks"}) {
            std::string path = "/tmp/ledgerdb_bpa_" + tag + "_" +
                               std::to_string(s) + "_" + kind + ".log";
            for (const char* suffix : {"", ".wm", ".quarantine"}) {
              (void)env->DeleteFile(path + suffix);
            }
            std::unique_ptr<FileStreamStore> store;
            if (!FileStreamStore::Open(env, path, &store).ok()) std::abort();
            stores->push_back(std::move(store));
          }
          storage->push_back({(*stores)[2 * s].get(),
                              (*stores)[2 * s + 1].get()});
        }
      };

  const uint64_t n_durable = std::max<uint64_t>(512, n / 2);
  std::printf("%-34s %12s %14s %10s\n", "config", "TPS", "fsyncs/append",
              "speedup");
  double durable_serial_tps = 0.0;
  {
    std::vector<std::unique_ptr<FileStreamStore>> stores;
    std::vector<LedgerStorage> storage;
    open_stores("serial", 1, &stores, &storage);
    ShardedLedgerGroup group(plant.uri, 1, plant.options, &plant.clock,
                             plant.lsp, &plant.registry, std::move(storage));
    uint64_t fsyncs_before = fsyncs_now();
    double secs = TimeSeconds([&] {
      for (uint64_t i = 0; i < n_durable; ++i) {
        ShardedLedgerGroup::Location loc;
        if (!group.Append(txs[i], &loc).ok()) std::abort();
      }
    });
    durable_serial_tps = static_cast<double>(n_durable) / secs;
    double fsyncs_per_append =
        static_cast<double>(fsyncs_now() - fsyncs_before) /
        static_cast<double>(n_durable);
    std::printf("%-34s %12.0f %14.3f %9s\n", "durable serial 1-shard",
                durable_serial_tps, fsyncs_per_append, "1.0x");
    json.Add("durable/serial-1-shard", durable_serial_tps);
    json.SetMeta("serial_fsyncs_per_append", fsyncs_per_append);
  }
  {
    std::vector<std::unique_ptr<FileStreamStore>> stores;
    std::vector<LedgerStorage> storage;
    open_stores("group", 4, &stores, &storage);
    ShardedLedgerGroup group(plant.uri, 4, plant.options, &plant.clock,
                             plant.lsp, &plant.registry, std::move(storage));
    group.SetPipelineOptions({kGroupCommitMaxSize, kGroupCommitMaxDelayUs});
    group.StartParallelAppend(8);
    uint64_t fsyncs_before = fsyncs_now();
    const size_t chunk = 256;
    std::vector<ShardedLedgerGroup::Location> locations;
    double secs = TimeSeconds([&] {
      for (size_t off = 0; off < n_durable; off += chunk) {
        size_t len = std::min<size_t>(chunk, n_durable - off);
        if (!group
                 .AppendBatch(std::span<const ClientTransaction>(
                                  txs.data() + off, len),
                              &locations)
                 .ok()) {
          std::abort();
        }
      }
    });
    group.StopParallelAppend();
    if (group.TotalJournals() != n_durable + 4) std::abort();
    double tps = static_cast<double>(n_durable) / secs;
    double fsyncs_per_append =
        static_cast<double>(fsyncs_now() - fsyncs_before) /
        static_cast<double>(n_durable);
    std::printf("%-34s %12.0f %14.3f %9.1fx\n",
                "durable pipelined 4-shard x 8-thr", tps, fsyncs_per_append,
                tps / durable_serial_tps);
    json.Add("durable/pipelined-4-shard-8-thread", tps);
    json.SetMeta("fsyncs_per_append", fsyncs_per_append);
  }

  // Phase decomposition: both append phases timed on one thread. The
  // pipelined rows above are bounded by the host's core count (`hw`
  // below); these per-transaction costs are not, so a regression in pi_c
  // verification or in the commit path shows on its own row.
  Header("Phase decomposition");
  double t_preval_us = 0.0, t_commit_us = 0.0;
  {
    std::unique_ptr<Ledger> ledger = plant.MakeLedger();
    std::vector<Ledger::PrevalidatedTx> prevalidated(txs.size());
    double preval_secs = TimeSeconds([&] {
      for (size_t i = 0; i < txs.size(); ++i) {
        if (!ledger->Prevalidate(txs[i], &prevalidated[i]).ok()) std::abort();
      }
    });
    // One commit group per transaction: the serial commit cost.
    double commit_secs = TimeSeconds([&] {
      std::vector<uint64_t> jsns;
      std::vector<Status> statuses;
      for (size_t i = 0; i < txs.size(); ++i) {
        std::vector<Ledger::PrevalidatedTx> group(1);
        group[0] = std::move(prevalidated[i]);
        if (!ledger->CommitPrevalidatedGroup(std::move(group), &jsns, &statuses)
                 .ok() ||
            !statuses[0].ok()) {
          std::abort();
        }
      }
    });
    t_preval_us = preval_secs * 1e6 / static_cast<double>(n);
    t_commit_us = commit_secs * 1e6 / static_cast<double>(n);
  }
  unsigned hw = std::thread::hardware_concurrency();
  std::printf("prevalidate (pi_c verify + hashing): %8.1f us/tx\n",
              t_preval_us);
  std::printf("commit (accumulate + index):         %8.1f us/tx\n",
              t_commit_us);
  std::printf("host cores: %u\n\n", hw);
  json.Add("phase/prevalidate", 1e6 / t_preval_us, t_preval_us, t_preval_us);
  json.Add("phase/commit", 1e6 / t_commit_us, t_commit_us, t_commit_us);

  std::printf(
      "Acceptance bars: pipelined 4-shard x 8-thread >= 3x serial 1-shard\n"
      "on hosts with >= 8 cores (on this %u-core host the in-memory rows\n"
      "are compute-bound by pi_c). On the durable path group commit must\n"
      "beat the per-append-fsync baseline >= 2x with < 0.1 fsyncs per\n"
      "append (see the durable rows and the fsyncs_per_append meta). The\n"
      "pipeline parallelizes pi_c ECDSA verification across the worker\n"
      "pool, coalesces each committer-lane group into one buffered\n"
      "write + fsync pair, and retires block seals on per-shard sealer\n"
      "lanes off the commit critical path.\n",
      hw);
  return 0;
}
