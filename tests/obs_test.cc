#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ledgerdb::obs {
namespace {

// ---------------------------------------------------------------------------
// Counter / Gauge
// ---------------------------------------------------------------------------

TEST(CounterTest, IncAndValue) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Inc();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(GaugeTest, AddSubSet) {
  Gauge g;
  g.Add(10);
  g.Sub(3);
  EXPECT_EQ(g.Value(), 7);
  g.Set(-5);
  EXPECT_EQ(g.Value(), -5);
  g.Reset();
  EXPECT_EQ(g.Value(), 0);
}

TEST(GaugeTest, ConcurrentAddSubBalancesToZero) {
  Gauge g;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < kPerThread; ++i) {
        g.Add(3);
        g.Sub(3);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(g.Value(), 0);
}

// ---------------------------------------------------------------------------
// Histogram bucket math
// ---------------------------------------------------------------------------

TEST(HistogramBucketTest, SmallValuesGetExactBuckets) {
  // Values below 8 map to their own bucket: lower == upper == value.
  for (uint64_t v = 0; v < 8; ++v) {
    size_t b = Histogram::BucketOf(v);
    EXPECT_EQ(b, v);
    EXPECT_EQ(Histogram::BucketLower(b), v);
    EXPECT_EQ(Histogram::BucketUpper(b), v);
  }
}

TEST(HistogramBucketTest, BoundsBracketTheValue) {
  // Every value must land inside [BucketLower, BucketUpper] of its bucket.
  std::vector<uint64_t> probes;
  for (uint64_t v = 0; v < 4096; ++v) probes.push_back(v);
  for (int shift = 12; shift < 63; ++shift) {
    uint64_t base = uint64_t{1} << shift;
    probes.push_back(base - 1);
    probes.push_back(base);
    probes.push_back(base + 1);
    probes.push_back(base + base / 2);
  }
  probes.push_back(UINT64_MAX);
  for (uint64_t v : probes) {
    size_t b = Histogram::BucketOf(v);
    ASSERT_LT(b, Histogram::kBuckets) << "value " << v;
    if (b + 1 < Histogram::kBuckets) {
      EXPECT_LE(Histogram::BucketLower(b), v) << "value " << v;
      EXPECT_GE(Histogram::BucketUpper(b), v) << "value " << v;
    } else {
      // Overflow bucket: only the lower bound is meaningful.
      EXPECT_LE(Histogram::BucketLower(b), v) << "value " << v;
    }
  }
}

TEST(HistogramBucketTest, BucketOfIsMonotone) {
  size_t prev = 0;
  for (uint64_t v = 0; v < 1 << 16; ++v) {
    size_t b = Histogram::BucketOf(v);
    EXPECT_GE(b, prev) << "value " << v;
    prev = b;
  }
}

TEST(HistogramBucketTest, BucketEdgesAreContiguous) {
  // Upper bound of bucket b plus one must be the lower bound of bucket
  // b+1 — no gaps, no overlaps. Stop at the bucket whose upper bound is
  // already UINT64_MAX (the +1 would wrap).
  for (size_t b = 0; b + 2 < Histogram::kBuckets; ++b) {
    if (Histogram::BucketUpper(b) == UINT64_MAX) break;
    EXPECT_EQ(Histogram::BucketUpper(b) + 1, Histogram::BucketLower(b + 1))
        << "bucket " << b;
  }
}

TEST(HistogramBucketTest, RelativeErrorBounded) {
  // 4 sub-buckets per octave gives <= 25% relative bucket width.
  for (uint64_t v = 8; v < 1 << 20; v = v + v / 7 + 1) {
    size_t b = Histogram::BucketOf(v);
    if (b + 1 >= Histogram::kBuckets) break;
    uint64_t lo = Histogram::BucketLower(b);
    uint64_t hi = Histogram::BucketUpper(b);
    EXPECT_LE(static_cast<double>(hi - lo),
              0.25 * static_cast<double>(lo) + 1.0)
        << "value " << v;
  }
}

// ---------------------------------------------------------------------------
// Histogram observe / quantiles
// ---------------------------------------------------------------------------

HistogramSnapshot Snap(const Histogram& h, const std::string& name = "h") {
  HistogramSnapshot s;
  s.name = name;
  s.count = h.Count();
  s.sum = h.Sum();
  s.max = h.Max();
  for (size_t b = 0; b < Histogram::kBuckets; ++b) {
    uint64_t n = h.BucketCount(b);
    if (n != 0) s.buckets.push_back({static_cast<uint32_t>(b), n});
  }
  return s;
}

TEST(HistogramTest, CountSumMax) {
  Histogram h;
  h.Observe(5);
  h.Observe(100);
  h.Observe(3);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.Sum(), 108u);
  EXPECT_EQ(h.Max(), 100u);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Sum(), 0u);
  EXPECT_EQ(h.Max(), 0u);
}

TEST(HistogramTest, QuantilesExactForSmallValues) {
  // Values < 8 live in exact single-value buckets, so quantiles of a
  // uniform small-value population are exact.
  Histogram h;
  for (uint64_t v = 0; v < 8; ++v) h.Observe(v);
  HistogramSnapshot s = Snap(h);
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 7.0);
  EXPECT_NEAR(s.Quantile(0.5), 3.5, 0.5);
}

TEST(HistogramTest, QuantileNeverExceedsObservedMax) {
  Histogram h;
  h.Observe(550);  // single sample in a wide bucket
  HistogramSnapshot s = Snap(h);
  EXPECT_LE(s.p50(), 550.0);
  EXPECT_LE(s.p99(), 550.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 550.0);
}

TEST(HistogramTest, QuantileEmptyIsZero) {
  Histogram h;
  HistogramSnapshot s = Snap(h);
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 0.0);
}

TEST(HistogramTest, QuantileWithinBucketRelativeError) {
  // 10k uniform samples in [0, 10000): p50 must sit near 5000 within one
  // bucket width (<= 25% relative error).
  Histogram h;
  for (uint64_t v = 0; v < 10000; ++v) h.Observe(v);
  HistogramSnapshot s = Snap(h);
  EXPECT_NEAR(s.Quantile(0.5), 5000.0, 5000.0 * 0.25);
  EXPECT_NEAR(s.Quantile(0.9), 9000.0, 9000.0 * 0.25);
}

TEST(HistogramTest, P999SeparatesTheExtremeTail) {
  // 999 fast ops and one 100x outlier: p99 stays at the body, p99.9
  // reaches into the outlier's bucket — the quantile SLO dashboards use
  // to catch rare stalls that p99 averages away.
  Histogram h;
  for (int i = 0; i < 999; ++i) h.Observe(100);
  h.Observe(10'000);
  HistogramSnapshot s = Snap(h);
  EXPECT_NEAR(s.p99(), 100.0, 100.0 * 0.25);
  EXPECT_GT(s.p999(), 1000.0);
  EXPECT_LE(s.p999(), 10'000.0);  // clamped to the observed max
  EXPECT_DOUBLE_EQ(s.p999(), s.Quantile(0.999));
}

TEST(HistogramTest, ConcurrentObserveCountsExactly) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h.Observe(static_cast<uint64_t>(t) * 1000 + (i & 511));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.Count(), kThreads * kPerThread);
  uint64_t bucket_total = 0;
  for (size_t b = 0; b < Histogram::kBuckets; ++b) {
    bucket_total += h.BucketCount(b);
  }
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
  EXPECT_GE(h.Max(), 7000u);
}

// ---------------------------------------------------------------------------
// Snapshot merge
// ---------------------------------------------------------------------------

TEST(SnapshotTest, HistogramMergePreservesTotals) {
  Histogram a, b;
  for (uint64_t v = 0; v < 100; ++v) a.Observe(v);
  for (uint64_t v = 100; v < 300; ++v) b.Observe(v);
  HistogramSnapshot sa = Snap(a);
  HistogramSnapshot sb = Snap(b);
  sa.MergeFrom(sb);
  EXPECT_EQ(sa.count, 300u);
  EXPECT_EQ(sa.sum, a.Sum() + b.Sum());
  EXPECT_EQ(sa.max, 299u);
  uint64_t bucket_total = 0;
  for (const auto& [index, n] : sa.buckets) bucket_total += n;
  EXPECT_EQ(bucket_total, 300u);
}

TEST(SnapshotTest, RegistryMergeEqualsSums) {
  MetricsRegistry r1, r2;
  r1.GetCounter("ledgerdb_test_a_total")->Inc(5);
  r2.GetCounter("ledgerdb_test_a_total")->Inc(7);
  r2.GetCounter("ledgerdb_test_b_total")->Inc(1);
  r1.GetGauge("ledgerdb_test_depth_count")->Add(3);
  r2.GetGauge("ledgerdb_test_depth_count")->Add(-1);
  r1.GetHistogram("ledgerdb_test_lat_us")->Observe(10);
  r2.GetHistogram("ledgerdb_test_lat_us")->Observe(20);

  MetricsSnapshot merged = r1.Snapshot();
  merged.MergeFrom(r2.Snapshot());

  auto counter = [&](const std::string& name) -> uint64_t {
    for (const auto& [n, v] : merged.counters) {
      if (n == name) return v;
    }
    return 0;
  };
  EXPECT_EQ(counter("ledgerdb_test_a_total"), 12u);
  EXPECT_EQ(counter("ledgerdb_test_b_total"), 1u);
  ASSERT_EQ(merged.gauges.size(), 1u);
  EXPECT_EQ(merged.gauges[0].second, 2);
  ASSERT_EQ(merged.histograms.size(), 1u);
  EXPECT_EQ(merged.histograms[0].count, 2u);
  EXPECT_EQ(merged.histograms[0].sum, 30u);
  EXPECT_EQ(merged.histograms[0].max, 20u);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(RegistryTest, SameNameReturnsSamePointer) {
  MetricsRegistry r;
  Counter* a = r.GetCounter("ledgerdb_test_x_total");
  Counter* b = r.GetCounter("ledgerdb_test_x_total");
  EXPECT_EQ(a, b);
  EXPECT_TRUE(r.Conflicts().empty());
}

TEST(RegistryTest, KindMismatchIsRecordedAndServedDummy) {
  MetricsRegistry r;
  Counter* c = r.GetCounter("ledgerdb_test_x_total");
  c->Inc(3);
  Gauge* g = r.GetGauge("ledgerdb_test_x_total");  // wrong kind
  ASSERT_NE(g, nullptr);
  g->Add(100);  // lands on the dummy, never in snapshots
  std::vector<std::string> conflicts = r.Conflicts();
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_EQ(conflicts[0], "ledgerdb_test_x_total");
  MetricsSnapshot snap = r.Snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].second, 3u);
  EXPECT_TRUE(snap.gauges.empty());
}

TEST(RegistryTest, LabeledCountersAreDistinctSeries) {
  MetricsRegistry r;
  r.GetCounter("ledgerdb_test_faults_total", "kind", "drop")->Inc(2);
  r.GetCounter("ledgerdb_test_faults_total", "kind", "delay")->Inc(5);
  MetricsSnapshot snap = r.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "ledgerdb_test_faults_total{kind=\"delay\"}");
  EXPECT_EQ(snap.counters[0].second, 5u);
  EXPECT_EQ(snap.counters[1].first, "ledgerdb_test_faults_total{kind=\"drop\"}");
  EXPECT_EQ(snap.counters[1].second, 2u);
}

TEST(RegistryTest, ResetAllZeroesEverything) {
  MetricsRegistry r;
  r.GetCounter("ledgerdb_test_a_total")->Inc(9);
  r.GetGauge("ledgerdb_test_d_count")->Add(4);
  r.GetHistogram("ledgerdb_test_l_us")->Observe(55);
  r.ResetAll();
  MetricsSnapshot snap = r.Snapshot();
  EXPECT_EQ(snap.counters[0].second, 0u);
  EXPECT_EQ(snap.gauges[0].second, 0);
  EXPECT_EQ(snap.histograms[0].count, 0u);
}

TEST(RegistryTest, ConcurrentRegistrationAndUse) {
  MetricsRegistry r;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&r] {
      // All threads race on registration of the same three names.
      Counter* c = r.GetCounter("ledgerdb_race_hits_total");
      Histogram* h = r.GetHistogram("ledgerdb_race_lat_us");
      Gauge* g = r.GetGauge("ledgerdb_race_depth_count");
      for (uint64_t i = 0; i < kPerThread; ++i) {
        c->Inc();
        h->Observe(i & 255);
        g->Add(1);
        g->Sub(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  MetricsSnapshot snap = r.Snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].second, kThreads * kPerThread);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, kThreads * kPerThread);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, 0);
  EXPECT_TRUE(r.Conflicts().empty());
}

// ---------------------------------------------------------------------------
// Encoders
// ---------------------------------------------------------------------------

TEST(EncodingTest, JsonContainsAllSections) {
  MetricsRegistry r;
  r.GetCounter("ledgerdb_test_a_total")->Inc(7);
  r.GetGauge("ledgerdb_test_d_count")->Set(2);
  r.GetHistogram("ledgerdb_test_l_us")->Observe(42);
  // Labeled series carry quotes in their names: every key is escaped.
  r.GetCounter("ledgerdb_test_faults_total", "kind", "drop")->Inc(3);
  r.GetGauge("ledgerdb_test_q_count{kind=\"drop\"}")->Set(4);
  r.GetHistogram("ledgerdb_test_m_us", "op", "get")->Observe(5);
  std::string json = r.Snapshot().ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"ledgerdb_test_a_total\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"ledgerdb_test_d_count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"sum\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"ledgerdb_test_faults_total{kind=\\\"drop\\\"}\": 3"),
            std::string::npos);
  EXPECT_NE(json.find("\"ledgerdb_test_q_count{kind=\\\"drop\\\"}\": 4"),
            std::string::npos);
  EXPECT_NE(json.find("\"ledgerdb_test_m_us{op=\\\"get\\\"}\": {\"count\": 1"),
            std::string::npos);
  EXPECT_EQ(json.find("{kind=\"drop\"}"), std::string::npos);
  EXPECT_EQ(JsonString("a\"b\\c\n\x01"), "\"a\\\"b\\\\c\\u000a\\u0001\"");
}

TEST(EncodingTest, PrometheusExposesTypesAndLabels) {
  MetricsRegistry r;
  r.GetCounter("ledgerdb_test_faults_total", "kind", "drop")->Inc(2);
  r.GetGauge("ledgerdb_test_d_count")->Set(5);
  r.GetHistogram("ledgerdb_test_l_us")->Observe(42);
  std::string prom = r.Snapshot().ToPrometheus();
  EXPECT_NE(prom.find("# TYPE ledgerdb_test_faults_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("ledgerdb_test_faults_total{kind=\"drop\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE ledgerdb_test_d_count gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE ledgerdb_test_l_us summary"),
            std::string::npos);
  EXPECT_NE(prom.find("ledgerdb_test_l_us{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("ledgerdb_test_l_us_count 1"), std::string::npos);
}

TEST(EncodingTest, EmptySnapshotIsWellFormed) {
  MetricsRegistry r;
  MetricsSnapshot snap = r.Snapshot();
  EXPECT_TRUE(snap.empty());
  std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"counters\": {}"), std::string::npos);
  EXPECT_EQ(snap.ToPrometheus(), "");
}

// ---------------------------------------------------------------------------
// Span tracer
// ---------------------------------------------------------------------------

TEST(SpanTracerTest, RecordsEverySpanAtSampleOne) {
  SpanTracer tracer;
  tracer.SetSampleEvery(1);
  for (int i = 0; i < 10; ++i) {
    tracer.Record(stages::kCommit.name, 1000 + i, 5);
  }
  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 10u);
  for (const SpanRecord& s : spans) {
    EXPECT_STREQ(s.stage, "commit");
    EXPECT_EQ(s.dur_us, 5u);
  }
  // Oldest first.
  EXPECT_EQ(spans.front().start_us, 1000u);
  EXPECT_EQ(spans.back().start_us, 1009u);
}

TEST(SpanTracerTest, SamplingKeepsOneInN) {
  SpanTracer tracer;
  tracer.SetSampleEvery(4);
  for (int i = 0; i < 100; ++i) {
    tracer.Record(stages::kSeal.name, i, 1);
  }
  size_t n = tracer.Snapshot().size();
  EXPECT_EQ(n, 25u);
}

TEST(SpanTracerTest, ZeroDisablesRing) {
  SpanTracer tracer;
  tracer.SetSampleEvery(0);
  for (int i = 0; i < 100; ++i) {
    tracer.Record(stages::kSeal.name, i, 1);
  }
  EXPECT_TRUE(tracer.Snapshot().empty());
}

TEST(SpanTracerTest, RingWrapsKeepingMostRecent) {
  SpanTracer tracer;
  tracer.SetSampleEvery(1);
  constexpr size_t kTotal = SpanTracer::kRingCapacity + 100;
  for (size_t i = 0; i < kTotal; ++i) {
    tracer.Record(stages::kPrevalidate.name, i, 1);
  }
  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), SpanTracer::kRingCapacity);
  EXPECT_EQ(spans.back().start_us, kTotal - 1);
  EXPECT_EQ(spans.front().start_us, kTotal - SpanTracer::kRingCapacity);
}

TEST(SpanTracerTest, ClearEmptiesRings) {
  SpanTracer tracer;
  tracer.SetSampleEvery(1);
  tracer.Record(stages::kCommit.name, 1, 1);
  tracer.Clear();
  EXPECT_TRUE(tracer.Snapshot().empty());
}

TEST(SpanTracerTest, ConcurrentRecordFromManyThreads) {
  SpanTracer tracer;
  tracer.SetSampleEvery(1);
  // A thread that finishes early donates its ring to the free list, so in
  // the worst case every record lands in ONE recycled ring; keep the total
  // under kRingCapacity so even that case drops nothing.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < kPerThread; ++i) {
        tracer.Record(stages::kSigBatch.name, static_cast<uint64_t>(i), 2);
      }
    });
  }
  for (auto& th : threads) th.join();
  std::vector<SpanRecord> spans = tracer.Snapshot();
  EXPECT_EQ(spans.size(), static_cast<size_t>(kThreads) * kPerThread);
}

TEST(SpanTest, ObsSpanFeedsHistogramAndRing) {
  // Uses the process-default tracer (ObsSpan always routes there), but a
  // locally owned histogram so counts are deterministic.
  Histogram hist;
  SpanTracer::Default().Clear();
  SpanTracer::Default().SetSampleEvery(1);
  ASSERT_TRUE(Enabled());
  { ObsSpan span(stages::kProofBuild, &hist); }
  EXPECT_EQ(hist.Count(), 1u);
  std::vector<SpanRecord> spans = SpanTracer::Default().Snapshot();
  bool found = false;
  for (const SpanRecord& s : spans) {
    if (s.stage == std::string("proof_build")) found = true;
  }
  EXPECT_TRUE(found);
  SpanTracer::Default().Clear();
  SpanTracer::Default().SetSampleEvery(16);
}

TEST(SpanTest, DisabledSpanIsInert) {
  Histogram hist;
  SpanTracer::Default().Clear();
  SetEnabled(false);
  { ObsSpan span(stages::kProofBuild, &hist); }
  SetEnabled(true);
  EXPECT_EQ(hist.Count(), 0u);
  EXPECT_TRUE(SpanTracer::Default().Snapshot().empty());
}

// ---------------------------------------------------------------------------
// Kill switch
// ---------------------------------------------------------------------------

TEST(EnabledTest, RuntimeToggle) {
  ASSERT_TRUE(Enabled());
  SetEnabled(false);
  EXPECT_FALSE(Enabled());
  SetEnabled(true);
  EXPECT_TRUE(Enabled());
}

}  // namespace
}  // namespace ledgerdb::obs
