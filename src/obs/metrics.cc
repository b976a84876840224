#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <mutex>

namespace ledgerdb::obs {

// ---------------------------------------------------------------------------
// HistogramSnapshot
// ---------------------------------------------------------------------------

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th sample (1-based), then walk buckets to find it.
  double rank = q * static_cast<double>(count - 1) + 1.0;
  uint64_t seen = 0;
  for (const auto& [index, n] : buckets) {
    if (static_cast<double>(seen + n) >= rank) {
      double lo = static_cast<double>(Histogram::BucketLower(index));
      double hi = static_cast<double>(Histogram::BucketUpper(index));
      // Interpolate by position inside the bucket; never report beyond the
      // exact observed max (the top bucket's upper bound can exceed it).
      double within = (rank - static_cast<double>(seen)) /
                      static_cast<double>(n);
      return std::min(lo + (hi - lo) * within, static_cast<double>(max));
    }
    seen += n;
  }
  return static_cast<double>(max);
}

void HistogramSnapshot::MergeFrom(const HistogramSnapshot& other) {
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
  std::map<uint32_t, uint64_t> merged(buckets.begin(), buckets.end());
  for (const auto& [index, n] : other.buckets) merged[index] += n;
  buckets.assign(merged.begin(), merged.end());
}

// ---------------------------------------------------------------------------
// MetricsSnapshot
// ---------------------------------------------------------------------------

void MetricsSnapshot::MergeFrom(const MetricsSnapshot& other) {
  auto fold = [](auto* mine, const auto& theirs) {
    for (const auto& [name, value] : theirs) {
      auto it = std::find_if(mine->begin(), mine->end(),
                             [&](const auto& e) { return e.first == name; });
      if (it == mine->end()) {
        mine->push_back({name, value});
      } else {
        it->second += value;
      }
    }
    std::sort(mine->begin(), mine->end());
  };
  fold(&counters, other.counters);
  fold(&gauges, other.gauges);
  for (const HistogramSnapshot& h : other.histograms) {
    auto it = std::find_if(histograms.begin(), histograms.end(),
                           [&](const auto& e) { return e.name == h.name; });
    if (it == histograms.end()) {
      histograms.push_back(h);
    } else {
      it->MergeFrom(h);
    }
  }
  std::sort(histograms.begin(), histograms.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
}

namespace {

void AppendIndent(std::string* out, int indent) {
  out->append(static_cast<size_t>(indent), ' ');
}

std::string Num(double v) {
  char buf[64];
  // Print integral values without a fraction, everything else with
  // microsecond-scale precision.
  if (v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
  }
  return buf;
}

}  // namespace

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (byte < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", byte);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string MetricsSnapshot::ToJson(int indent) const {
  std::string out;
  int pad = indent;
  out += "{\n";
  AppendIndent(&out, pad + 2);
  out += "\"counters\": {";
  for (size_t i = 0; i < counters.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    AppendIndent(&out, pad + 4);
    out += JsonString(counters[i].first) + ": " +
           std::to_string(counters[i].second);
  }
  if (!counters.empty()) {
    out += "\n";
    AppendIndent(&out, pad + 2);
  }
  out += "},\n";
  AppendIndent(&out, pad + 2);
  out += "\"gauges\": {";
  for (size_t i = 0; i < gauges.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    AppendIndent(&out, pad + 4);
    out += JsonString(gauges[i].first) + ": " +
           std::to_string(gauges[i].second);
  }
  if (!gauges.empty()) {
    out += "\n";
    AppendIndent(&out, pad + 2);
  }
  out += "},\n";
  AppendIndent(&out, pad + 2);
  out += "\"histograms\": {";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i];
    out += i == 0 ? "\n" : ",\n";
    AppendIndent(&out, pad + 4);
    out += JsonString(h.name) + ": {\"count\": " + std::to_string(h.count) +
           ", \"sum\": " + std::to_string(h.sum) +
           ", \"max\": " + std::to_string(h.max) +
           ", \"p50\": " + Num(h.p50()) + ", \"p90\": " + Num(h.p90()) +
           ", \"p99\": " + Num(h.p99()) + ", \"p999\": " + Num(h.p999()) +
           "}";
  }
  if (!histograms.empty()) {
    out += "\n";
    AppendIndent(&out, pad + 2);
  }
  out += "}\n";
  AppendIndent(&out, pad);
  out += "}";
  return out;
}

namespace {

/// Splits "name{key=\"value\"}" into base name and label clause.
std::pair<std::string, std::string> SplitLabel(const std::string& series) {
  size_t brace = series.find('{');
  if (brace == std::string::npos) return {series, ""};
  return {series.substr(0, brace), series.substr(brace)};
}

}  // namespace

std::string MetricsSnapshot::ToPrometheus() const {
  std::string out;
  std::string last_base;
  for (const auto& [name, value] : counters) {
    auto [base, label] = SplitLabel(name);
    if (base != last_base) {
      out += "# TYPE " + base + " counter\n";
      last_base = base;
    }
    out += base + label + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : gauges) {
    auto [base, label] = SplitLabel(name);
    out += "# TYPE " + base + " gauge\n";
    out += base + label + " " + std::to_string(value) + "\n";
  }
  for (const HistogramSnapshot& h : histograms) {
    out += "# TYPE " + h.name + " summary\n";
    out += h.name + "{quantile=\"0.5\"} " + Num(h.p50()) + "\n";
    out += h.name + "{quantile=\"0.9\"} " + Num(h.p90()) + "\n";
    out += h.name + "{quantile=\"0.99\"} " + Num(h.p99()) + "\n";
    out += h.name + "{quantile=\"0.999\"} " + Num(h.p999()) + "\n";
    out += h.name + "_max " + std::to_string(h.max) + "\n";
    out += h.name + "_sum " + std::to_string(h.sum) + "\n";
    out += h.name + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

struct MetricsRegistry::Impl {
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };

  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu;
  // std::map: stable iteration order gives deterministic snapshots.
  std::map<std::string, Entry, std::less<>> metrics;
  std::vector<std::string> conflicts;

  // Kind-mismatch fallbacks, detached from snapshots.
  Counter dummy_counter;
  Gauge dummy_gauge;
  Histogram dummy_histogram;

  Entry* Find(std::string_view name, Kind kind) {
    auto it = metrics.find(name);
    if (it != metrics.end()) {
      if (it->second.kind != kind) {
        conflicts.push_back(std::string(name));
        return nullptr;
      }
      return &it->second;
    }
    Entry entry;
    entry.kind = kind;
    switch (kind) {
      case Kind::kCounter:
        entry.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        entry.histogram = std::make_unique<Histogram>();
        break;
    }
    return &metrics.emplace(std::string(name), std::move(entry)).first->second;
  }
};

MetricsRegistry::MetricsRegistry() : impl_(std::make_unique<Impl>()) {}
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::Default() {
  // Leaked singleton: instrumentation sites cache pointers into it, and
  // those must stay valid through static destruction.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  Impl::Entry* e = impl_->Find(name, Impl::Kind::kCounter);
  return e != nullptr ? e->counter.get() : &impl_->dummy_counter;
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view label_key,
                                     std::string_view label_value) {
  std::string series;
  series.reserve(name.size() + label_key.size() + label_value.size() + 5);
  series.append(name);
  series.push_back('{');
  series.append(label_key);
  series.append("=\"");
  series.append(label_value);
  series.append("\"}");
  return GetCounter(series);
}

namespace {

std::string LabeledSeries(std::string_view name, std::string_view label_key,
                          std::string_view label_value) {
  std::string series;
  series.reserve(name.size() + label_key.size() + label_value.size() + 5);
  series.append(name);
  series.push_back('{');
  series.append(label_key);
  series.append("=\"");
  series.append(label_value);
  series.append("\"}");
  return series;
}

}  // namespace

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::string_view label_key,
                                         std::string_view label_value) {
  return GetHistogram(LabeledSeries(name, label_key, label_value));
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  Impl::Entry* e = impl_->Find(name, Impl::Kind::kGauge);
  return e != nullptr ? e->gauge.get() : &impl_->dummy_gauge;
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  Impl::Entry* e = impl_->Find(name, Impl::Kind::kHistogram);
  return e != nullptr ? e->histogram.get() : &impl_->dummy_histogram;
}

std::vector<std::string> MetricsRegistry::Conflicts() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->conflicts;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  MetricsSnapshot snap;
  for (const auto& [name, entry] : impl_->metrics) {
    switch (entry.kind) {
      case Impl::Kind::kCounter:
        snap.counters.push_back({name, entry.counter->Value()});
        break;
      case Impl::Kind::kGauge:
        snap.gauges.push_back({name, entry.gauge->Value()});
        break;
      case Impl::Kind::kHistogram: {
        HistogramSnapshot h;
        h.name = name;
        h.count = entry.histogram->Count();
        h.sum = entry.histogram->Sum();
        h.max = entry.histogram->Max();
        for (size_t b = 0; b < Histogram::kBuckets; ++b) {
          uint64_t n = entry.histogram->BucketCount(b);
          if (n != 0) h.buckets.push_back({static_cast<uint32_t>(b), n});
        }
        snap.histograms.push_back(std::move(h));
        break;
      }
    }
  }
  return snap;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (auto& [name, entry] : impl_->metrics) {
    switch (entry.kind) {
      case Impl::Kind::kCounter:
        entry.counter->Reset();
        break;
      case Impl::Kind::kGauge:
        entry.gauge->Reset();
        break;
      case Impl::Kind::kHistogram:
        entry.histogram->Reset();
        break;
    }
  }
}

}  // namespace ledgerdb::obs
