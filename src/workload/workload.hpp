// Workload generation per the paper's experimental setup (Sec 6.1):
// a content-based schema of up to 10 attributes with domain [0, 1023];
// two interest models —
//   * uniform: subscriptions and events drawn independently at random;
//   * interest popularity ("zipfian"): 7 hotspot regions, subscriptions and
//     events generated around hotspots chosen by a zipf distribution.
// For the dimension-selection experiment (Fig 7e) the zipfian model can
// restrict the variance of event values along chosen dimensions and make
// subscriptions unselective there, producing dimensions that are useless
// for in-network filtering.
#pragma once

#include <vector>

#include "dz/event_space.hpp"
#include "util/rng.hpp"

namespace pleroma::workload {

/// Sampling families:
///   * kUniform / kZipfian — the paper's Sec 6.1 interest models;
///   * kFlashCrowd — subscriptions *and* events concentrate inside one
///     rectangular region of the event space (the crowd), producing the
///     subscription-burst-on-one-dz-region workload of the scenario
///     engine's flash-crowd family;
///   * kWideEventSpace — uniform sampling intended for schemas with many
///     attributes where `uninformativeDims` marks the dimensions that
///     carry no filtering information (the Fig 7e mechanism generalised
///     to uninformative-dimension sweeps).
enum class Model { kUniform, kZipfian, kFlashCrowd, kWideEventSpace };

/// One churn/mobility move: subscription `subIndex` re-homes from its
/// current host slot to `(slot + hostOffset) % numHostSlots`. The offset is
/// drawn in [1, numHostSlots-1], so the new host is always different.
struct ChurnStep {
  std::size_t subIndex = 0;
  std::size_t hostOffset = 1;
};

/// Derives the independent seed of workload phase `phaseIndex` from a
/// scenario-level seed. The derivation is the splitmix64 finalizer applied
/// to `seed + GOLDEN * (phaseIndex + 1)` (GOLDEN = 0x9e3779b97f4a7c15):
/// phase 0 already differs from the raw seed, so no phase shares a stream
/// with another phase or with a generator seeded directly with `seed`.
/// Reports that record (seed, phase index) are therefore reproducible
/// without recording every phase's derived seed.
std::uint64_t derivePhaseSeed(std::uint64_t seed, std::size_t phaseIndex) noexcept;

struct WorkloadConfig {
  Model model = Model::kUniform;
  int numAttributes = 2;
  int bitsPerDim = 10;

  /// Average subscription extent along each attribute, as a fraction of the
  /// domain (selectivity knob). The actual width is uniform in
  /// [0.5, 1.5] * selectivity * domain.
  double subscriptionSelectivity = 0.1;
  /// Advertisements are wider than subscriptions by this factor.
  double advertisementWidthFactor = 4.0;

  // --- zipfian model ---
  int numHotspots = 7;
  double zipfAlpha = 1.0;
  /// Extent of a hotspot region as a fraction of the domain.
  double hotspotRadius = 0.08;

  // --- flash-crowd model ---
  /// Centre of the crowd region, one fraction of the domain per attribute.
  /// Empty = mid-domain (0.5 everywhere); a shorter vector is padded with
  /// 0.5.
  std::vector<double> crowdCentre;
  /// Half-extent of the crowd region as a fraction of the domain.
  double crowdRadius = 0.05;

  /// Dimensions along which events barely vary and subscriptions are
  /// unselective (span the whole domain): useless for filtering. Used by
  /// the Fig 7e workloads and the wide-event-space family.
  std::vector<int> uninformativeDims;

  std::uint64_t seed = 42;
};

class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(WorkloadConfig config);

  const WorkloadConfig& config() const noexcept { return config_; }
  dz::AttributeValue domainMax() const noexcept {
    return (dz::AttributeValue{1} << config_.bitsPerDim) - 1;
  }

  /// One subscription rectangle.
  dz::Rectangle makeSubscription();
  /// One advertisement rectangle (wider than subscriptions).
  dz::Rectangle makeAdvertisement();
  /// One event point.
  dz::Event makeEvent();

  std::vector<dz::Rectangle> makeSubscriptions(std::size_t n);
  std::vector<dz::Event> makeEvents(std::size_t n);

  /// A deterministic churn/mobility plan: `numMoves` timed unsub+resub
  /// moves over a population of `numSubs` subscriptions spread across
  /// `numHostSlots` hosts. Each step picks a subscription uniformly and a
  /// non-zero host offset, so the re-homed subscription always lands on a
  /// different host (see ChurnStep). Requires numSubs >= 1; with a single
  /// host slot every offset degenerates to 0.
  std::vector<ChurnStep> makeChurnSteps(std::size_t numSubs,
                                        std::size_t numMoves,
                                        std::size_t numHostSlots);

  /// The hotspot centres (zipfian model; empty for uniform). Exposed so
  /// tests can verify the clustering.
  const std::vector<dz::Event>& hotspots() const noexcept { return hotspots_; }

  util::Rng& rng() noexcept { return rng_; }

 private:
  dz::Rectangle makeRectangle(double widthFraction);
  bool isUninformative(int dim) const noexcept;
  dz::AttributeValue clampToDomain(double v) const noexcept;
  double crowdCentreFraction(int dim) const noexcept;

  WorkloadConfig config_;
  util::Rng rng_;
  util::ZipfSampler zipf_;
  std::vector<dz::Event> hotspots_;
};

}  // namespace pleroma::workload
