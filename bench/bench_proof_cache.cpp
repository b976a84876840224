// Proof-cache benchmark: what memoizing sealed-epoch fam material and
// root-stamped clue blobs buys on repeated / overlapping proof-plane
// reads, against the same ledger with the cache disabled.
//
// Rows (cache-off baseline first, then cache-on over identical queries):
//   prove_clue_range/{off,on}  — ProveClueRangeWire: the bytes a server
//                                emits for a clue-range read (journals +
//                                clue proof + fam batch proof, serialized);
//                                the repeated-read steady state of a range
//                                audit dashboard.
//   get_proof_batch/{off,on}   — batched fam existence proofs for
//                                repeated jsn sets spanning sealed epochs.
//   get_proof/{off,on}         — single-journal FamProof over a recurring
//                                working set (locals + link chain reuse).
//
// meta carries the measured cache hit_rate plus the headline
// range_speedup = prove_clue_range on/off ops ratio. Byte-identity of
// cached vs uncached proofs is asserted inline before timing: a cache
// that changes a single proof byte fails the bench, not just the tests.
//
// `--json BENCH_proof_cache.json [--metrics]` emits schema-2 results.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_plant.h"
#include "bench/bench_util.h"
#include "common/random.h"
#include "ledger/ledger.h"

using namespace ledgerdb;
using namespace ledgerdb::bench;

namespace {

constexpr int kClues = 8;

/// The same signed journals, appended to both ledgers. Server timestamps
/// are spread 1 ms apart so range queries can address windows.
void Load(Plant* plant, Ledger* cached, Ledger* plain, uint64_t journals) {
  for (uint64_t i = 0; i < journals; ++i) {
    ClientTransaction tx = plant->SignedTx(
        0, i, "acct-" + std::to_string(i % kClues),
        StringToBytes("payload-" + std::to_string(i)));
    uint64_t jsn = 0;
    if (!cached->Append(tx, &jsn).ok() || !plain->Append(tx, &jsn).ok()) {
      std::fprintf(stderr, "load append failed\n");
      std::abort();
    }
    plant->clock.Advance(1000);
  }
}

// server_ts of the i-th loaded journal (clock advances after the append).
Timestamp TsOf(uint64_t i) { return Plant::kStartTs + i * 1000; }

double HitRate(const ProofCache::Stats& stats) {
  uint64_t total = stats.hits + stats.misses;
  return total == 0 ? 0.0 : static_cast<double>(stats.hits) /
                                static_cast<double>(total);
}

}  // namespace

int main(int argc, char** argv) {
  JsonReporter json(argc, argv);
  int shift = ScaleShift();
  const uint64_t kJournals = 2048ULL << (shift + 2 > 0 ? shift + 2 : 0);
  const uint64_t kQueryRounds = 64ULL << (shift > 0 ? shift : 0);

  Plant plant("lg://bench-pc");
  // Small epochs: the workload spans many sealed epochs, so proofs carry
  // real link chains and the epoch section of the cache does real work.
  plant.options.fractal_height = 6;
  std::unique_ptr<Ledger> cached = plant.MakeLedger();
  plant.options.enable_proof_cache = false;
  std::unique_ptr<Ledger> plain = plant.MakeLedger();
  Load(&plant, cached.get(), plain.get(), kJournals);
  std::printf("loaded %llu journals, %llu sealed epochs\n",
              static_cast<unsigned long long>(kJournals),
              static_cast<unsigned long long>(cached->NumJournals() /
                                              (1ULL << 6)));

  // Recurring working set: a dashboard re-auditing overlapping time windows
  // of the same clues and the same journal sets. 75% of queries repeat a
  // previous target; window starts are random so windows overlap heavily
  // even when the exact (clue, from, to) triple is fresh.
  struct RangeQuery {
    std::string clue;
    Timestamp from;
    Timestamp to;
  };
  const uint64_t kWindow = kJournals / 16;  // journals per query window
  Random rng(0xCAC8E);
  std::vector<RangeQuery> clue_queries;
  std::vector<std::vector<uint64_t>> batch_queries;
  std::vector<uint64_t> point_queries;
  for (uint64_t q = 0; q < kQueryRounds; ++q) {
    uint64_t start = rng.Uniform(kJournals - kWindow);
    clue_queries.push_back({"acct-" + std::to_string(rng.Uniform(kClues)),
                            TsOf(start), TsOf(start + kWindow)});
    std::vector<uint64_t> jsns;
    uint64_t base = rng.Uniform(kJournals - 1024);
    for (int i = 0; i < 32; ++i) jsns.push_back(base + 32 * i);
    batch_queries.push_back(std::move(jsns));
    point_queries.push_back(rng.Uniform(kJournals));
  }
  auto repeat = [&](uint64_t q) { return (q * 4) / 3 % kQueryRounds; };

  // Byte-identity gate before any timing (the second wire call is a memo
  // hit on the cached ledger, so this covers both fill and serve paths).
  for (uint64_t q = 0; q < kQueryRounds; q += 7) {
    const RangeQuery& rq = clue_queries[q];
    Bytes a, a2, b;
    if (!cached->ProveClueRangeWire(rq.clue, rq.from, rq.to, &a).ok() ||
        !cached->ProveClueRangeWire(rq.clue, rq.from, rq.to, &a2).ok() ||
        !plain->ProveClueRangeWire(rq.clue, rq.from, rq.to, &b).ok() ||
        a != b || a2 != b) {
      std::fprintf(stderr, "cached range proof diverges from cache-off\n");
      return 1;
    }
    FamBatchProof fa, fb;
    if (!cached->GetProofBatch(batch_queries[q], &fa).ok() ||
        !plain->GetProofBatch(batch_queries[q], &fb).ok() ||
        fa.Serialize() != fb.Serialize()) {
      std::fprintf(stderr, "cached batch proof diverges from cache-off\n");
      return 1;
    }
  }

  Header("proof plane: repeated reads, cache off vs on");
  struct Row {
    const char* name;
    Ledger* ledger;
  };
  // Each row makes several passes over the recurring query set: the
  // steady state of a dashboard that re-audits the same ranges, which is
  // the workload the cache exists for. Pass 1 is the cold fill.
  const uint64_t kPasses = 4;
  const double kOps = static_cast<double>(2 * kQueryRounds * kPasses);
  double range_ops[2] = {0, 0};
  int slot = 0;
  for (const Row& row : {Row{"off", plain.get()}, Row{"on", cached.get()}}) {
    LatencySampler range_lat, batch_lat, point_lat;
    double range_secs = TimeSeconds([&] {
      for (uint64_t pass = 0; pass < kPasses; ++pass) {
        for (uint64_t q = 0; q < kQueryRounds; ++q) {
          for (uint64_t target : {q, repeat(q)}) {
            range_lat.Time([&] {
              const RangeQuery& rq = clue_queries[target];
              Bytes wire;
              if (!row.ledger
                       ->ProveClueRangeWire(rq.clue, rq.from, rq.to, &wire)
                       .ok()) {
                std::abort();
              }
            });
          }
        }
      }
    });
    double range_per_sec = kOps / range_secs;
    range_ops[slot++] = range_per_sec;

    double batch_secs = TimeSeconds([&] {
      for (uint64_t pass = 0; pass < kPasses; ++pass) {
        for (uint64_t q = 0; q < kQueryRounds; ++q) {
          for (uint64_t target : {q, repeat(q)}) {
            batch_lat.Time([&] {
              FamBatchProof proof;
              if (!row.ledger->GetProofBatch(batch_queries[target], &proof)
                       .ok()) {
                std::abort();
              }
            });
          }
        }
      }
    });
    double batch_per_sec = kOps / batch_secs;

    double point_secs = TimeSeconds([&] {
      for (uint64_t pass = 0; pass < kPasses; ++pass) {
        for (uint64_t q = 0; q < kQueryRounds; ++q) {
          for (uint64_t target : {q, repeat(q)}) {
            point_lat.Time([&] {
              FamProof proof;
              if (!row.ledger->GetProof(point_queries[target], &proof).ok()) {
                std::abort();
              }
            });
          }
        }
      }
    });
    double point_per_sec = kOps / point_secs;

    std::printf(
        "cache %-3s  prove_clue_range %9.0f ops/s (p50 %7.1f us)  "
        "get_proof_batch %9.0f ops/s  get_proof %9.0f ops/s\n",
        row.name, range_per_sec, range_lat.PercentileUs(50.0), batch_per_sec,
        point_per_sec);
    json.Add(std::string("prove_clue_range/") + row.name, range_per_sec,
             range_lat);
    json.Add(std::string("get_proof_batch/") + row.name, batch_per_sec,
             batch_lat);
    json.Add(std::string("get_proof/") + row.name, point_per_sec, point_lat);
  }

  ProofCache::Stats stats = cached->ProofCacheStats();
  double hit_rate = HitRate(stats);
  double speedup = range_ops[0] > 0 ? range_ops[1] / range_ops[0] : 0.0;
  std::printf(
      "\nhit_rate %.3f (%llu hits / %llu misses, %llu evictions, "
      "%zu resident bytes)  range_speedup %.2fx\n",
      hit_rate, static_cast<unsigned long long>(stats.hits),
      static_cast<unsigned long long>(stats.misses),
      static_cast<unsigned long long>(stats.evictions), stats.resident_bytes,
      speedup);
  json.SetMeta("hit_rate", hit_rate);
  json.SetMeta("range_speedup", speedup);
  json.SetMetaInt("journals", kJournals);
  json.SetMetaInt("cache_hits", stats.hits);
  json.SetMetaInt("cache_misses", stats.misses);
  json.SetMetaInt("cache_evictions", stats.evictions);
  json.SetMetaInt("cache_resident_bytes", stats.resident_bytes);
  return 0;
}
