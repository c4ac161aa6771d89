#include "net/congestion.hpp"

#include <algorithm>

namespace pleroma::net {

CongestionMonitor::CongestionMonitor(Network& network, CongestionConfig config)
    : network_(network), config_(config) {
  const auto links = static_cast<std::size_t>(network_.topology().linkCount());
  ewma_.assign(links, 0.0);
  prevQueueDrops_.assign(links, 0);
}

double CongestionMonitor::sampleOnce() {
  const auto links = static_cast<std::size_t>(network_.topology().linkCount());
  // Parks are network-wide (per-direction buffers are internal state), so
  // attribute this window's parks to the links that also lost packets to
  // their queues this window — weighting them in via the same kDropWeight.
  const std::uint64_t parkedNow =
      network_.counters().packetsParkedOnBackpressure;
  const std::uint64_t parkDelta = parkedNow - prevParked_;
  prevParked_ = parkedNow;
  std::vector<std::uint64_t> dropDelta(links, 0);
  std::uint64_t dropDeltaTotal = 0;
  for (std::size_t l = 0; l < links; ++l) {
    const std::uint64_t drops =
        network_.linkCounters(static_cast<LinkId>(l)).queueDrops;
    dropDelta[l] = drops - prevQueueDrops_[l];
    prevQueueDrops_[l] = drops;
    dropDeltaTotal += dropDelta[l];
  }
  double hottest = 0.0;
  const double alpha = config_.ewmaAlpha;
  for (std::size_t l = 0; l < links; ++l) {
    const auto depth = network_.linkQueueDepth(static_cast<LinkId>(l));
    double raw = kQueueWeight * static_cast<double>(depth) +
                 kDropWeight * static_cast<double>(dropDelta[l]);
    // Spread this window's backpressure parks across the links whose
    // queues overflowed (a park is recorded against the overflowing
    // direction's link via queueDrops only when the park buffer itself
    // overflows, so the drop distribution is the best per-link signal of
    // where the parks concentrated).
    if (dropDelta[l] > 0 && parkDelta > 0) {
      raw += kDropWeight * static_cast<double>(parkDelta) *
             (static_cast<double>(dropDelta[l]) /
              static_cast<double>(dropDeltaTotal));
    }
    const double next = alpha * raw + (1.0 - alpha) * ewma_[l];
    ewma_[l] = next;
    hottest = std::max(hottest, next);
  }
  ++samples_;
  return hottest;
}

void CongestionMonitor::startPeriodic() {
  running_ = true;
  if (!tickArmed_) tick();
}

void CongestionMonitor::tick() {
  tickArmed_ = true;
  network_.simulator().schedule(config_.sampleInterval, [this] {
    tickArmed_ = false;
    if (!running_) return;
    sampleOnce();
    tick();
  });
}

double CongestionMonitor::maxScore() const {
  double hottest = 0.0;
  for (const double s : ewma_) hottest = std::max(hottest, s);
  return hottest;
}

}  // namespace pleroma::net
