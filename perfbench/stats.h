// Small numeric and reporting helpers shared by the benchmark program and
// its tests: nearest-rank percentiles, the "highest percentile the sample
// supports" rule, medians, and the ordered metric set printed as JSON.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace h2perf {

/// Nearest-rank percentile: the smallest sample such that at least
/// `q` percent of the samples are <= it, i.e. sorted[ceil(q/100 * n) - 1]
/// (rank clamped to [1, n]).  Sorts `samples` in place.  0 when empty.
double NearestRankPercentile(std::vector<double>& samples, double q);

/// Samples strictly beyond the nearest-rank `q`-th percentile of `n`
/// samples: n - ceil(q/100 * n).
std::size_t SamplesBeyond(std::size_t n, double q);

/// The highest percentile of the ladder 99.99, 99.9, 99, 95, 90, 75, 50
/// that still has at least `min_beyond` samples beyond it; 0 when even
/// the median does not.
double HighestSupportedPercentile(std::size_t n, std::size_t min_beyond = 10);

/// Median of `values` (mean of the middle pair for even sizes); 0 when
/// empty.  Takes a copy: callers keep their order.
double Median(std::vector<double> values);

/// True iff `name` is a legal metric name: [A-Za-z0-9_.-]+, starting with
/// a letter or digit, at most 64 characters.
bool ValidMetricName(std::string_view name);

/// An ordered set of named measurements, each with a unit.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  double Value(const std::string& name) const;
  const std::string& Unit(const std::string& name) const;
  /// Names in insertion order.
  const std::vector<std::string>& names() const { return order_; }

  /// Per-name median over `sets` (every set must carry the same names;
  /// names missing from a set are skipped for that set).
  static MetricSet MedianOf(const std::vector<MetricSet>& sets);

  /// {"name": {"value": v, "unit": "u"}, ...} with full precision.
  std::string ToJson() const;

 private:
  struct Entry {
    double value = 0;
    std::string unit;
  };
  std::vector<std::string> order_;
  std::map<std::string, Entry> entries_;
};

std::string Hex64(std::uint64_t v);

}  // namespace h2perf
