#ifndef LEDGERDB_BENCH_BENCH_UTIL_H_
#define LEDGERDB_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace ledgerdb::bench {

/// Wall-clock seconds elapsed while running `fn`.
inline double TimeSeconds(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

/// Runs `fn` `iters` times; returns average latency in microseconds.
inline double AvgLatencyUs(uint64_t iters, const std::function<void()>& fn) {
  double secs = TimeSeconds([&] {
    for (uint64_t i = 0; i < iters; ++i) fn();
  });
  return secs * 1e6 / static_cast<double>(iters);
}

/// Operations per second for `iters` runs of `fn`.
inline double Throughput(uint64_t iters, const std::function<void()>& fn) {
  double secs = TimeSeconds([&] {
    for (uint64_t i = 0; i < iters; ++i) fn();
  });
  return static_cast<double>(iters) / secs;
}

/// Benchmark scale: LEDGERDB_BENCH_SCALE=quick|default|full. The paper
/// sweeps ledger volumes up to 32 GB; `default` uses laptop-sized sweeps
/// with identical log-scale shape, `full` pushes one decade further.
inline int ScaleShift() {
  const char* env = std::getenv("LEDGERDB_BENCH_SCALE");
  if (env == nullptr) return 0;
  std::string s(env);
  if (s == "quick") return -2;
  if (s == "full") return 2;
  return 0;
}

/// Pretty separator and headers for figure-style output tables.
inline void Header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Human-readable size label for a journal count at 256 B/journal (the
/// paper's x-axes label ledger *volume*, not count).
inline std::string VolumeLabel(uint64_t journals, uint64_t journal_bytes) {
  double bytes = static_cast<double>(journals) * journal_bytes;
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  int u = 0;
  while (bytes >= 1024.0 && u < 4) {
    bytes /= 1024.0;
    ++u;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f%s", bytes, units[u]);
  return buf;
}

/// Collects per-operation latencies and reports percentiles.
class LatencySampler {
 public:
  void Add(double us) { samples_.push_back(us); }

  /// Times one run of `fn` and records it.
  void Time(const std::function<void()>& fn) { Add(TimeSeconds(fn) * 1e6); }

  /// p in [0, 100]; returns 0 when empty.
  double PercentileUs(double p) const {
    if (samples_.empty()) return 0.0;
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
  }

  size_t count() const { return samples_.size(); }

  /// Folds another sampler's samples into this one (per-thread collection
  /// merging into a shared distribution).
  void Merge(const LatencySampler& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
  }

 private:
  std::vector<double> samples_;
};

/// Machine-readable results sink shared by every bench binary: pass
/// `--json <path>` and at exit a single object is written:
///   {"meta": {"schema": 2, "run_id": ..., "host_cores": N,
///    "elapsed_secs": S, ...}, "results": [{"name", "ops_per_sec",
///    "p50_us", "p99_us"}, ...], "metrics": {...}?}
/// Schema 2 additions over the original (implicit) schema 1: a "schema"
/// version so downstream tooling can reject layouts it does not know, a
/// "run_id" (microseconds since the epoch at reporter construction —
/// monotonic across successive runs on one host) so re-recorded artifacts
/// never silently collide, and "elapsed_secs" (wall clock from construction
/// to flush). Pass `--metrics` as well to embed a full observability
/// registry snapshot under a top-level "metrics" key, or, for a bench that
/// resets the registry per row and calls SnapshotIntoLastRow, one snapshot
/// per row under the row's own "metrics" key. Host facts live in
/// `meta` (host_cores is filled automatically; add more with SetMeta) so
/// environment context never masquerades as a benchmark row. Without
/// `--json` this is a no-op, keeping the human-readable tables as the only
/// output.
class JsonReporter {
 public:
  JsonReporter(int argc, char** argv)
      : start_(std::chrono::steady_clock::now()) {
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]) == "--json" && i + 1 < argc) {
        path_ = argv[i + 1];
      }
      if (std::string(argv[i]) == "--metrics") metrics_ = true;
    }
    SetMetaInt("schema", 2);
    SetMetaInt("run_id",
               static_cast<uint64_t>(
                   std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::system_clock::now().time_since_epoch())
                       .count()));
    SetMeta("host_cores",
            static_cast<double>(std::thread::hardware_concurrency()));
    SetMetaInt("hardware_concurrency", std::thread::hardware_concurrency());
  }

  ~JsonReporter() { Flush(); }

  bool enabled() const { return !path_.empty(); }
  bool metrics_enabled() const { return metrics_; }

  /// Records a host/environment fact; replaces any prior value for `key`.
  void SetMeta(const std::string& key, double value) {
    for (Meta& m : meta_) {
      if (m.key == key) {
        m.value = value;
        m.integer = false;
        return;
      }
    }
    meta_.push_back({key, value, 0, false});
  }

  /// Integer variant: emitted without %g mantissa rounding (run ids exceed
  /// the 53-bit double-exact range well before 2100).
  void SetMetaInt(const std::string& key, uint64_t value) {
    for (Meta& m : meta_) {
      if (m.key == key) {
        m.int_value = value;
        m.integer = true;
        return;
      }
    }
    meta_.push_back({key, 0.0, value, true});
  }

  void Add(const std::string& name, double ops_per_sec, double p50_us = 0.0,
           double p99_us = 0.0) {
    entries_.push_back({name, ops_per_sec, p50_us, p99_us, {}, {}});
  }

  void Add(const std::string& name, double ops_per_sec,
           const LatencySampler& sampler) {
    Add(name, ops_per_sec, sampler.PercentileUs(50.0),
        sampler.PercentileUs(99.0));
  }

  /// Row with additive per-row keys beyond the schema-2 core (e.g.
  /// "p999_us", "shed_rate", "offered_per_sec"). Extras append to the row
  /// object, so schema-2 consumers that only read the core keys are
  /// unaffected.
  void AddWithExtras(
      const std::string& name, double ops_per_sec, double p50_us,
      double p99_us,
      const std::vector<std::pair<std::string, double>>& extras) {
    entries_.push_back({name, ops_per_sec, p50_us, p99_us, extras, {}});
  }

  /// Under `--metrics`, attaches the registry's current snapshot to the
  /// last row. Once a row carries one, Flush writes no whole-run snapshot.
  void SnapshotIntoLastRow() {
    if (!metrics_ || entries_.empty()) return;
    entries_.back().metrics =
        obs::MetricsRegistry::Default().Snapshot().ToJson(/*indent=*/4);
    per_row_metrics_ = true;
  }

  void Flush() {
    if (path_.empty() || entries_.empty()) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return;
    }
    SetMeta("elapsed_secs",
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start_)
                .count());
    std::fprintf(f, "{\n  \"meta\": {");
    for (size_t i = 0; i < meta_.size(); ++i) {
      std::string value = meta_[i].integer
                              ? std::to_string(meta_[i].int_value)
                              : Number("%g", meta_[i].value);
      std::fprintf(f, "%s%s: %s", i == 0 ? "" : ", ",
                   obs::JsonString(meta_[i].key).c_str(), value.c_str());
    }
    std::fprintf(f, "},\n  \"results\": [\n");
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::fprintf(f,
                   "    {\"name\": %s, \"ops_per_sec\": %s, "
                   "\"p50_us\": %s, \"p99_us\": %s",
                   obs::JsonString(e.name).c_str(),
                   Number("%.2f", e.ops_per_sec).c_str(),
                   Number("%.3f", e.p50_us).c_str(),
                   Number("%.3f", e.p99_us).c_str());
      for (const auto& [key, value] : e.extras) {
        std::fprintf(f, ", %s: %s", obs::JsonString(key).c_str(),
                     Number("%.3f", value).c_str());
      }
      if (!e.metrics.empty()) {
        std::fprintf(f, ", \"metrics\": %s", e.metrics.c_str());
      }
      std::fprintf(f, "}%s\n", i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "  ]");
    if (metrics_ && !per_row_metrics_) {
      std::string snapshot =
          obs::MetricsRegistry::Default().Snapshot().ToJson(/*indent=*/2);
      std::fprintf(f, ",\n  \"metrics\": %s", snapshot.c_str());
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("JSON results written to %s\n", path_.c_str());
    entries_.clear();
  }

 private:
  /// `value` printed with `format`, or `null` when it is not finite (JSON
  /// has no inf or nan).
  static std::string Number(const char* format, double value) {
    if (!std::isfinite(value)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, value);
    return buf;
  }

  struct Entry {
    std::string name;
    double ops_per_sec;
    double p50_us;
    double p99_us;
    std::vector<std::pair<std::string, double>> extras;
    std::string metrics;  ///< snapshot JSON, or empty
  };
  struct Meta {
    std::string key;
    double value;
    uint64_t int_value;
    bool integer;
  };

  std::string path_;
  bool metrics_ = false;
  bool per_row_metrics_ = false;
  std::chrono::steady_clock::time_point start_;
  std::vector<Meta> meta_;
  std::vector<Entry> entries_;
};

}  // namespace ledgerdb::bench

#endif  // LEDGERDB_BENCH_BENCH_UTIL_H_
