#include "workload/workload.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "dz/u128.hpp"

namespace pleroma::workload {

std::uint64_t derivePhaseSeed(std::uint64_t seed, std::size_t phaseIndex) noexcept {
  // splitmix64 finalizer (dz::mix64 — identical constants, so recorded
  // phase seeds are unchanged) over seed + GOLDEN * (index + 1); see the
  // header for why phase 0 must not reuse the raw seed.
  return dz::mix64(
      seed + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(phaseIndex) + 1));
}

WorkloadGenerator::WorkloadGenerator(WorkloadConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      zipf_(static_cast<std::size_t>(std::max(config_.numHotspots, 1)),
            config_.zipfAlpha) {
  assert(config_.numAttributes >= 1);
  if (config_.model == Model::kZipfian) {
    hotspots_.reserve(static_cast<std::size_t>(config_.numHotspots));
    for (int h = 0; h < config_.numHotspots; ++h) {
      dz::Event centre(static_cast<std::size_t>(config_.numAttributes));
      for (auto& v : centre) v = static_cast<dz::AttributeValue>(rng_.uniformInt(0, domainMax()));
      hotspots_.push_back(std::move(centre));
    }
  }
}

bool WorkloadGenerator::isUninformative(int dim) const noexcept {
  return std::find(config_.uninformativeDims.begin(), config_.uninformativeDims.end(),
                   dim) != config_.uninformativeDims.end();
}

dz::AttributeValue WorkloadGenerator::clampToDomain(double v) const noexcept {
  const double clamped = std::clamp(v, 0.0, static_cast<double>(domainMax()));
  return static_cast<dz::AttributeValue>(std::llround(clamped));
}

double WorkloadGenerator::crowdCentreFraction(int dim) const noexcept {
  const auto d = static_cast<std::size_t>(dim);
  return d < config_.crowdCentre.size() ? config_.crowdCentre[d] : 0.5;
}

dz::Rectangle WorkloadGenerator::makeRectangle(double widthFraction) {
  const auto dmax = static_cast<double>(domainMax());
  dz::Rectangle rect;
  rect.ranges.resize(static_cast<std::size_t>(config_.numAttributes));

  std::size_t hotspot = 0;
  if (config_.model == Model::kZipfian) hotspot = zipf_.sample(rng_);

  for (int d = 0; d < config_.numAttributes; ++d) {
    auto& r = rect.ranges[static_cast<std::size_t>(d)];
    if (isUninformative(d)) {
      // Unselective: the subscription accepts the whole domain here.
      r = dz::Range{0, domainMax()};
      continue;
    }
    const double width =
        std::max(1.0, dmax * widthFraction * rng_.uniformReal(0.5, 1.5));
    double centre;
    if (config_.model == Model::kZipfian) {
      const double c =
          static_cast<double>(hotspots_[hotspot][static_cast<std::size_t>(d)]);
      centre = c + rng_.uniformReal(-1.0, 1.0) * config_.hotspotRadius * dmax;
    } else if (config_.model == Model::kFlashCrowd) {
      centre = (crowdCentreFraction(d) +
                rng_.uniformReal(-1.0, 1.0) * config_.crowdRadius) *
               dmax;
    } else {
      centre = rng_.uniformReal(0.0, dmax);
    }
    const auto lo = clampToDomain(centre - width / 2.0);
    const auto hi = clampToDomain(centre + width / 2.0);
    r = dz::Range{std::min(lo, hi), std::max(lo, hi)};
  }
  return rect;
}

dz::Rectangle WorkloadGenerator::makeSubscription() {
  return makeRectangle(config_.subscriptionSelectivity);
}

dz::Rectangle WorkloadGenerator::makeAdvertisement() {
  return makeRectangle(config_.subscriptionSelectivity *
                       config_.advertisementWidthFactor);
}

dz::Event WorkloadGenerator::makeEvent() {
  const auto dmax = static_cast<double>(domainMax());
  dz::Event e(static_cast<std::size_t>(config_.numAttributes));

  std::size_t hotspot = 0;
  if (config_.model == Model::kZipfian) hotspot = zipf_.sample(rng_);

  for (int d = 0; d < config_.numAttributes; ++d) {
    auto& v = e[static_cast<std::size_t>(d)];
    if (isUninformative(d)) {
      // Events barely vary here: cluster tightly around mid-domain so the
      // dimension carries no information for filtering.
      v = clampToDomain(dmax / 2.0 + rng_.uniformReal(-1.0, 1.0) * 0.005 * dmax);
      continue;
    }
    if (config_.model == Model::kZipfian) {
      const double c =
          static_cast<double>(hotspots_[hotspot][static_cast<std::size_t>(d)]);
      v = clampToDomain(c + rng_.uniformReal(-1.0, 1.0) * config_.hotspotRadius * dmax);
    } else if (config_.model == Model::kFlashCrowd) {
      v = clampToDomain((crowdCentreFraction(d) +
                         rng_.uniformReal(-1.0, 1.0) * config_.crowdRadius) *
                        dmax);
    } else {
      v = static_cast<dz::AttributeValue>(rng_.uniformInt(0, domainMax()));
    }
  }
  return e;
}

std::vector<dz::Rectangle> WorkloadGenerator::makeSubscriptions(std::size_t n) {
  std::vector<dz::Rectangle> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(makeSubscription());
  return out;
}

std::vector<ChurnStep> WorkloadGenerator::makeChurnSteps(std::size_t numSubs,
                                                         std::size_t numMoves,
                                                         std::size_t numHostSlots) {
  assert(numSubs >= 1);
  std::vector<ChurnStep> steps;
  steps.reserve(numMoves);
  for (std::size_t i = 0; i < numMoves; ++i) {
    ChurnStep s;
    s.subIndex = rng_.uniformInt(0, numSubs - 1);
    s.hostOffset =
        numHostSlots < 2 ? 0 : rng_.uniformInt(1, numHostSlots - 1);
    steps.push_back(s);
  }
  return steps;
}

std::vector<dz::Event> WorkloadGenerator::makeEvents(std::size_t n) {
  std::vector<dz::Event> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(makeEvent());
  return out;
}

}  // namespace pleroma::workload
