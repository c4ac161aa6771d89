// Streaming mean/variance (Welford) for the benchmark harnesses, which
// aggregate repetitions with it.
#pragma once

#include <algorithm>
#include <cstddef>

namespace pleroma::util {

/// Streaming accumulator: count, mean, variance, min, max (Welford's
/// online algorithm; numerically stable).
class RunningStat {
 public:
  void add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = n_ == 1 ? x : std::min(min_, x);
    max_ = n_ == 1 ? x : std::max(max_, x);
  }

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return mean_; }
  double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace pleroma::util
