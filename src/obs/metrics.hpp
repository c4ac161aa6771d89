// MetricsRegistry — named counters, gauges, and log-bucketed histograms,
// assembled on read.
//
// Every number the system reports is counted exactly once, in the plain
// stats struct of the layer that owns it (net::FlowTableStats,
// net::NetworkCounters, openflow::ControlPlaneStats, ctrl::ControllerStats,
// ...). An exporter — core::Pleroma::snapshotMetrics — builds a registry
// from those structs when somebody asks for metrics, and the registry
// renders them as JSON or text. Nothing here sits on a counting path, so
// the types are plain values: no atomics, no locks, no enable switches.
//
// Histogram is the exception that layers do hold directly (per-delivery
// latency, per-op flow-mod volume); record() is a few plain stores.
//
// Handles returned by counter()/gauge()/histogram() are stable for the
// registry's lifetime (map nodes never move).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "obs/json.hpp"

namespace pleroma::obs {

/// Monotonic counter.
class Counter {
 public:
  void inc(std::uint64_t by = 1) noexcept { value_ += by; }
  std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Instantaneous value (queue depths, ratios, snapshots).
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Log-bucketed histogram: geometric buckets with kSubBuckets linear
/// sub-buckets per power of two (~12% relative resolution), plus exact
/// count/sum/min/max. Bucket 0 absorbs values < 1.0 (and all non-positive
/// values); percentile queries answer with the bucket upper bound clamped
/// to the observed [min, max].
class Histogram {
 public:
  static constexpr int kSubBuckets = 8;
  static constexpr int kOctaves = 64;
  static constexpr int kBucketCount = 1 + kOctaves * kSubBuckets;

  void record(double v) noexcept;
  /// Adds every sample of `other` (e.g. one histogram per partition).
  void merge(const Histogram& other) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  /// 0.0 when empty.
  double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return count_ == 0 ? 0.0 : max_; }
  /// Nearest-rank percentile estimate, q in [0, 1]; 0.0 when empty.
  double percentile(double q) const;

  std::uint64_t bucketValue(int index) const {
    return buckets_[static_cast<std::size_t>(index)];
  }

  /// Bucket geometry, exposed for tests: index 0 covers [0, 1); index
  /// 1 + o*kSubBuckets + s covers [2^o * (1 + s/kSubBuckets),
  /// 2^o * (1 + (s+1)/kSubBuckets)).
  static int bucketIndex(double v) noexcept;
  static double bucketLowerBound(int index) noexcept;
  static double bucketUpperBound(int index) noexcept;

 private:
  std::array<std::uint64_t, kBucketCount> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;  // valid only when count_ > 0
  double max_ = 0.0;
};

class MetricsRegistry {
 public:
  /// Gets or creates.
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {count,
  /// sum, mean, min, max, p50, p90, p99}}}; zero-count metrics included.
  JsonValue toJson() const;
  /// One line per metric: counters, then gauges, then histograms, each
  /// sorted by name.
  std::string toText() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace pleroma::obs
