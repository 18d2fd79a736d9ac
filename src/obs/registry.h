// Metrics registry: named counters, gauges, and fixed-bucket histograms.
//
// Instruments are created once (ctor-time) and held by reference; updates on
// hot paths are plain integer/double stores, exactly as cheap as the ad-hoc
// member counters they replaced. The registry snapshots every instrument to
// CSV or JSON in registration order, so sweep-point dumps diff cleanly.
// Copying a registry takes a value snapshot: the copy owns its instruments
// and does not follow later updates to the source.
//
// Deliberately not thread-safe: each Cluster owns its own Registry and runs
// on one thread; `runner::ParallelExecutor` parallelism is across clusters.
#pragma once

#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace p3::obs {

class Counter {
 public:
  void inc(std::int64_t delta = 1) { value_ += delta; }
  Counter& operator++() {
    ++value_;
    return *this;
  }
  Counter& operator+=(std::int64_t delta) {
    value_ += delta;
    return *this;
  }
  std::int64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::int64_t value_ = 0;
};

/// Last-value gauge that also remembers its high-water mark.
class Gauge {
 public:
  void set(double v) {
    value_ = v;
    if (v > max_) max_ = v;
  }
  void add(double delta) { set(value_ + delta); }
  double value() const { return value_; }
  double max() const { return max_; }
  void reset() {
    value_ = 0.0;
    max_ = 0.0;
  }

 private:
  double value_ = 0.0;
  double max_ = 0.0;
};

/// Histogram over fixed upper bounds; observations above the last bound land
/// in an implicit overflow bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);
  std::int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / double(count_); }
  const std::vector<double>& bounds() const { return bounds_; }
  /// bucket_count(i) counts observations <= bounds()[i]; the final entry
  /// (index bounds().size()) is the overflow bucket.
  std::int64_t bucket_count(std::size_t i) const { return counts_.at(i); }

  /// Bucket-resolution quantile: the smallest bound whose cumulative count
  /// reaches q * count(). Overflow-bucket quantiles report 2x the last bound
  /// ("decisively above every bound", and finite so JSON stays parseable);
  /// an empty histogram reports 0.
  double quantile(double q) const {
    return quantile_from_counts(bounds_, counts_, q);
  }
  double p50() const { return quantile(0.50); }
  double p90() const { return quantile(0.90); }
  double p99() const { return quantile(0.99); }

  /// Same estimator over an externally accumulated bucket-count vector
  /// (bounds.size() + 1 entries, the last being overflow) — for windowed
  /// deltas like the autoscaler's sliding p99.
  static double quantile_from_counts(const std::vector<double>& bounds,
                                     const std::vector<std::int64_t>& counts,
                                     double q);

 private:
  std::vector<double> bounds_;
  std::vector<std::int64_t> counts_;
  std::int64_t count_ = 0;
  double sum_ = 0.0;
};

class Registry {
 public:
  /// Get-or-create by name. References stay valid for the registry's
  /// lifetime (and refer to this registry, never to a copy of it).
  /// Re-requesting a name with a different instrument type throws.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  /// Lookup without creation; nullptr when absent (or wrong type).
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  /// Lookup of a metric that must exist: T is Counter, Gauge or Histogram.
  /// Throws std::out_of_range on an unknown name or another instrument type,
  /// so a misspelt metric fails loudly instead of reading 0.
  template <typename T>
  const T& at(const std::string& name) const {
    const T* found = nullptr;
    if constexpr (std::is_same_v<T, Counter>) found = find_counter(name);
    if constexpr (std::is_same_v<T, Gauge>) found = find_gauge(name);
    if constexpr (std::is_same_v<T, Histogram>) found = find_histogram(name);
    if (found == nullptr) {
      throw std::out_of_range("metric '" + name +
                              "' is not registered with the requested type");
    }
    return *found;
  }

  std::size_t size() const { return entries_.size(); }

  /// Flat snapshot rows (metric, type, field, value-as-string) in
  /// registration order; the unit of CSV/JSON export and of tests.
  struct Row {
    std::string metric;
    std::string type;   ///< "counter" | "gauge" | "histogram"
    std::string field;  ///< "value", "max", "le_<bound>", "sum", "count", ...
    std::string value;
  };
  std::vector<Row> snapshot() const;

  /// metric,type,field,value CSV of `snapshot()`.
  void write_csv(const std::string& path) const;
  /// Nested JSON: {"metric": {"type": ..., fields...}, ...}.
  void write_json(const std::string& path) const;

 private:
  enum class Type { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    Type type;
    std::size_t index;  ///< into the per-type deque
  };

  Entry& entry(const std::string& name, Type type);
  const Entry* find(const std::string& name, Type type) const;

  std::vector<Entry> entries_;
  std::unordered_map<std::string, std::size_t> by_name_;
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
};

}  // namespace p3::obs
