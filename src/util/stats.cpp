#include "util/stats.hpp"

namespace pleroma::util {

void RunningStat::merge(const RunningStat& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double total = static_cast<double>(n_ + other.n_);
  const double delta = other.mean_ - mean_;
  const double newMean = mean_ + delta * static_cast<double>(other.n_) / total;
  m2_ += other.m2_ +
         delta * delta * static_cast<double>(n_) * static_cast<double>(other.n_) / total;
  mean_ = newMean;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

}  // namespace pleroma::util
