#include "stats.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace h2perf {
namespace {

std::size_t NearestRank(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double NearestRankPercentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  return samples[NearestRank(samples.size(), q) - 1];
}

std::size_t SamplesBeyond(std::size_t n, double q) {
  if (n == 0) return 0;
  return n - NearestRank(n, q);
}

double HighestSupportedPercentile(std::size_t n, std::size_t min_beyond) {
  for (const double q : {99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (SamplesBeyond(n, q) >= min_beyond) return q;
  }
  return 0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name.front()))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  if (!ValidMetricName(name) || unit.empty()) {
    throw std::invalid_argument("bad metric name or unit: " + name);
  }
  auto [it, inserted] = entries_.try_emplace(name);
  if (inserted) order_.push_back(name);
  it->second = Entry{value, unit};
}

bool MetricSet::Has(const std::string& name) const {
  return entries_.count(name) != 0;
}

double MetricSet::Value(const std::string& name) const {
  return entries_.at(name).value;
}

const std::string& MetricSet::Unit(const std::string& name) const {
  return entries_.at(name).unit;
}

MetricSet MetricSet::MedianOf(const std::vector<MetricSet>& sets) {
  MetricSet out;
  if (sets.empty()) return out;
  for (const std::string& name : sets.front().names()) {
    std::vector<double> values;
    for (const MetricSet& set : sets) {
      if (set.Has(name)) values.push_back(set.Value(name));
    }
    out.Set(name, Median(values), sets.front().Unit(name));
  }
  return out;
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const Entry& e = entries_.at(order_[i]);
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + order_[i] + "\": {\"value\": " + buf + ", \"unit\": \"" +
           e.unit + "\"}";
  }
  return out + "}";
}

std::string Hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace h2perf
