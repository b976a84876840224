#ifndef LEDGERDB_OBS_METRICS_H_
#define LEDGERDB_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ledgerdb::obs {

// ---------------------------------------------------------------------------
// Runtime + compile-time kill switches
// ---------------------------------------------------------------------------

namespace detail {
/// Global runtime enable flag. The hot-path macros read it with one relaxed
/// load; flipping it off makes every instrumentation site a predicted-
/// not-taken branch (the closest runtime analog of a LEDGERDB_OBS_OFF
/// build, which removes the sites entirely at compile time).
inline std::atomic<bool> g_enabled{true};
}  // namespace detail

inline bool Enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
inline void SetEnabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

/// Monotonic microsecond timestamp shared by timers and the span tracer.
inline uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

inline constexpr size_t kMetricShards = 8;

namespace detail {
/// Stable per-thread shard slot, cheap to derive (no modulo on hot path).
inline size_t ThreadShard() {
  static std::atomic<size_t> next{0};
  thread_local size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) & (kMetricShards - 1);
  return slot;
}
}  // namespace detail

/// Monotonic counter. Increment is a single relaxed atomic add on a
/// cache-line-private shard; Value() folds the shards.
class Counter {
 public:
  void Inc(uint64_t delta = 1) {
    shards_[detail::ThreadShard()].v.fetch_add(delta,
                                               std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t sum = 0;
    for (const Shard& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

  void Reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  Shard shards_[kMetricShards];
};

/// Up/down gauge (queue depths, in-flight work). Add/Sub are sharded
/// relaxed adds; Set is a non-atomic convenience for single-writer gauges.
class Gauge {
 public:
  void Add(int64_t delta) {
    shards_[detail::ThreadShard()].v.fetch_add(delta,
                                               std::memory_order_relaxed);
  }
  void Sub(int64_t delta) { Add(-delta); }

  /// Collapses the gauge to `value`. Only meaningful when no concurrent
  /// Add/Sub is in flight (e.g. a recovery pass setting shard health).
  void Set(int64_t value) {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
    shards_[0].v.store(value, std::memory_order_relaxed);
  }

  int64_t Value() const {
    int64_t sum = 0;
    for (const Shard& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

  void Reset() { Set(0); }

 private:
  struct alignas(64) Shard {
    std::atomic<int64_t> v{0};
  };
  Shard shards_[kMetricShards];
};

/// Log-bucketed histogram of non-negative integer samples (microseconds,
/// bytes, chunk sizes). Buckets are 4 sub-buckets per power of two, so any
/// sample lands in a bucket whose width is at most 25% of its lower bound
/// — quantile estimates interpolate within that. Observe is a handful of
/// relaxed atomic adds; snapshots are mergeable across registries.
class Histogram {
 public:
  /// Bucket 0 holds zeros; values in [1, 8) get exact buckets; beyond,
  /// bucket = octave * 4 + sub where sub refines by quarters.
  static constexpr size_t kBuckets = 256;

  static size_t BucketOf(uint64_t v) {
    if (v < 8) return static_cast<size_t>(v);  // exact small buckets
    int octave = std::bit_width(v) - 1;        // floor(log2(v)), >= 3
    uint64_t sub = (v >> (octave - 2)) & 3;    // quarter within the octave
    size_t b = static_cast<size_t>(octave) * 4 + static_cast<size_t>(sub) - 4;
    return b < kBuckets ? b : kBuckets - 1;
  }

  /// Inclusive upper bound of bucket `b` (the value quantile interpolation
  /// uses as the bucket's right edge).
  static uint64_t BucketUpper(size_t b) {
    if (b < 8) return static_cast<uint64_t>(b);
    size_t octave = (b + 4) / 4;
    uint64_t sub = (b + 4) & 3;
    uint64_t base = uint64_t{1} << octave;
    return base + (sub + 1) * (base >> 2) - 1;
  }

  /// Inclusive lower bound of bucket `b`.
  static uint64_t BucketLower(size_t b) {
    if (b < 8) return static_cast<uint64_t>(b);
    size_t octave = (b + 4) / 4;
    uint64_t sub = (b + 4) & 3;
    uint64_t base = uint64_t{1} << octave;
    return base + sub * (base >> 2);
  }

  void Observe(uint64_t value) {
    buckets_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t Max() const { return max_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  void Reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  /// (bucket index, count) for non-empty buckets only.
  std::vector<std::pair<uint32_t, uint64_t>> buckets;

  /// Quantile estimate in [0, 1], interpolated inside the landing bucket.
  double Quantile(double q) const;
  double p50() const { return Quantile(0.50); }
  double p90() const { return Quantile(0.90); }
  double p99() const { return Quantile(0.99); }
  double p999() const { return Quantile(0.999); }

  void MergeFrom(const HistogramSnapshot& other);
};

/// `s` as a JSON string literal, quotes included: `"` and `\` are
/// backslash-escaped and control bytes become \u00XX. Every JSON exporter
/// writes its keys and string fields through this, so labeled series such
/// as `name{op="AppendTx"}` stay valid JSON.
std::string JsonString(std::string_view s);

/// Point-in-time copy of a registry. Mergeable: snapshots from per-process
/// or per-phase registries fold together (counters add, gauges add,
/// histogram buckets add).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;

  void MergeFrom(const MetricsSnapshot& other);

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {count,
  /// sum, max, p50, p90, p99, p999}}} — stable key order (sorted by name).
  std::string ToJson(int indent = 0) const;

  /// Prometheus text exposition format (counters as `# TYPE ... counter`,
  /// histograms as _count/_sum/p50/p90/p99/p99.9 gauge-style series).
  std::string ToPrometheus() const;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Named metric store. Lookups are mutex-protected (sites cache the
/// returned pointer in a function-local static, so the map is touched once
/// per site per process); the metric objects themselves are lock-free.
/// Metrics live as long as the registry — handed-out pointers never dangle.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide default registry every instrumentation site uses.
  static MetricsRegistry& Default();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// Labeled series: registers `name{key="value"}`. The base name is what
  /// the naming lint validates; label values must be short identifiers.
  Counter* GetCounter(std::string_view name, std::string_view label_key,
                      std::string_view label_value);
  Histogram* GetHistogram(std::string_view name, std::string_view label_key,
                          std::string_view label_value);

  /// A name requested as two different kinds (e.g. counter then histogram)
  /// is a bug; the registry serves a detached dummy so callers never
  /// crash, and remembers the name here for the lint test.
  std::vector<std::string> Conflicts() const;

  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric (bench/test isolation). Pointers
  /// handed out stay valid.
  void ResetAll();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// RAII microsecond timer feeding a histogram.
class ScopedTimerUs {
 public:
  explicit ScopedTimerUs(Histogram* hist)
      : hist_(hist), start_us_(hist != nullptr ? NowUs() : 0) {}
  ~ScopedTimerUs() {
    if (hist_ != nullptr) hist_->Observe(NowUs() - start_us_);
  }
  ScopedTimerUs(const ScopedTimerUs&) = delete;
  ScopedTimerUs& operator=(const ScopedTimerUs&) = delete;

 private:
  Histogram* hist_;
  uint64_t start_us_;
};

}  // namespace ledgerdb::obs

// ---------------------------------------------------------------------------
// Instrumentation macros
// ---------------------------------------------------------------------------
//
// Hot-path contract: after the once-per-site static init, a counter bump
// is one relaxed-load branch plus one relaxed atomic add. Building with
// -DLEDGERDB_OBS_OFF compiles every site away entirely.

#if defined(LEDGERDB_OBS_OFF)

#define LEDGERDB_OBS_COUNT(name) \
  do {                           \
  } while (0)
#define LEDGERDB_OBS_COUNT_N(name, n) \
  do {                                \
  } while (0)
#define LEDGERDB_OBS_COUNT_LABEL(name, key, value) \
  do {                                             \
  } while (0)
#define LEDGERDB_OBS_GAUGE_ADD(name, d) \
  do {                                  \
  } while (0)
#define LEDGERDB_OBS_GAUGE_SET(name, v) \
  do {                                  \
  } while (0)
#define LEDGERDB_OBS_OBSERVE(name, v) \
  do {                                \
  } while (0)
#define LEDGERDB_OBS_OBSERVE_LABEL(name, key, value, v) \
  do {                                                  \
  } while (0)
#define LEDGERDB_OBS_TIMER(var, name) int var##_obs_off_unused [[maybe_unused]] = 0

#else  // !LEDGERDB_OBS_OFF

#define LEDGERDB_OBS_COUNT(name) LEDGERDB_OBS_COUNT_N(name, 1)

#define LEDGERDB_OBS_COUNT_N(name, n)                                    \
  do {                                                                   \
    if (::ledgerdb::obs::Enabled()) {                                    \
      static ::ledgerdb::obs::Counter* _obs_c =                          \
          ::ledgerdb::obs::MetricsRegistry::Default().GetCounter(name);  \
      _obs_c->Inc(n);                                                    \
    }                                                                    \
  } while (0)

// Labeled counters resolve through the registry map on every hit: use only
// on cold paths (fault injection, retries, quarantine events).
#define LEDGERDB_OBS_COUNT_LABEL(name, key, value)                         \
  do {                                                                     \
    if (::ledgerdb::obs::Enabled()) {                                      \
      ::ledgerdb::obs::MetricsRegistry::Default()                          \
          .GetCounter(name, key, value)                                    \
          ->Inc();                                                         \
    }                                                                      \
  } while (0)

#define LEDGERDB_OBS_GAUGE_ADD(name, d)                                  \
  do {                                                                   \
    if (::ledgerdb::obs::Enabled()) {                                    \
      static ::ledgerdb::obs::Gauge* _obs_g =                            \
          ::ledgerdb::obs::MetricsRegistry::Default().GetGauge(name);    \
      _obs_g->Add(d);                                                    \
    }                                                                    \
  } while (0)

#define LEDGERDB_OBS_GAUGE_SET(name, v)                                  \
  do {                                                                   \
    if (::ledgerdb::obs::Enabled()) {                                    \
      static ::ledgerdb::obs::Gauge* _obs_g =                            \
          ::ledgerdb::obs::MetricsRegistry::Default().GetGauge(name);    \
      _obs_g->Set(v);                                                    \
    }                                                                    \
  } while (0)

#define LEDGERDB_OBS_OBSERVE(name, v)                                      \
  do {                                                                     \
    if (::ledgerdb::obs::Enabled()) {                                      \
      static ::ledgerdb::obs::Histogram* _obs_h =                          \
          ::ledgerdb::obs::MetricsRegistry::Default().GetHistogram(name);  \
      _obs_h->Observe(v);                                                  \
    }                                                                      \
  } while (0)

// Labeled histograms resolve through the registry map on every hit: use
// only where a map lookup is noise against the measured work (per-RPC
// service latency behind a socket round trip).
#define LEDGERDB_OBS_OBSERVE_LABEL(name, key, value, v)                     \
  do {                                                                      \
    if (::ledgerdb::obs::Enabled()) {                                       \
      ::ledgerdb::obs::MetricsRegistry::Default()                           \
          .GetHistogram(name, key, value)                                   \
          ->Observe(v);                                                     \
    }                                                                       \
  } while (0)

// RAII scope timer: LEDGERDB_OBS_TIMER(t, names::kLedgerSealUs);
#define LEDGERDB_OBS_TIMER(var, name)                                       \
  static ::ledgerdb::obs::Histogram* var##_hist =                           \
      ::ledgerdb::obs::MetricsRegistry::Default().GetHistogram(name);       \
  ::ledgerdb::obs::ScopedTimerUs var(                                       \
      ::ledgerdb::obs::Enabled() ? var##_hist : nullptr)

#endif  // LEDGERDB_OBS_OFF

#endif  // LEDGERDB_OBS_METRICS_H_
