// Small, dependency-free helpers shared by the benchmark and its self-test:
// the "enough samples beyond the tail" rule, metric-name validation, and a
// strict-JSON object writer. Percentiles come from bench/bench_util.h.

#ifndef LEDGERDB_PERFBENCH_STATS_H_
#define LEDGERDB_PERFBENCH_STATS_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace ledgerdb::perfbench {

/// Samples that lie strictly beyond quantile q of n samples.
inline uint64_t SamplesBeyond(uint64_t n, double q) {
  return static_cast<uint64_t>(
      std::floor(static_cast<double>(n) * (1.0 - q) + 1e-9));
}

/// A tail quantile is reported only when at least ten samples lie beyond
/// it; below that it is one or two outliers, not a percentile.
inline bool TailSupported(uint64_t n, double q) {
  return SamplesBeyond(n, q) >= 10;
}

/// Emitted names use only letters, digits, '_', '.' and '-', start with a
/// letter or digit, and are at most 64 characters.
inline bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

/// Formats a finite number with every significant digit; non-finite
/// values (which strict JSON cannot carry) become 0.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Escapes a string for a JSON string literal.
inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// One reported metric: name, value and unit.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The result line: {"correct", "attempted", "failed", "metrics": {name:
/// {"value", "unit"}}}.
inline std::string ResultJson(bool correct, uint64_t attempted,
                              uint64_t failed,
                              const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}}";
}

}  // namespace ledgerdb::perfbench

#endif  // LEDGERDB_PERFBENCH_STATS_H_
