// One repetition of one workload: generate the inputs from the seed, deploy
// them through the public pub/sub API, run the open-loop event schedule,
// check the outputs, and report every metric of the catalogue (metrics.hpp)
// that a repetition can measure. pleroma_bench runs each repetition in a
// forked child, so its heap and peak RSS are its own.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pleroma::e2e {

struct RepetitionConfig {
  /// A pleroma-scenario-v1 file; its "seed" is replaced by `seed`.
  std::string workloadFile;
  std::uint64_t seed = 1;
  /// Apply the workload's smoke caps (tiny sizes, same code paths).
  bool smoke = false;
  /// Record spans and report the per-layer timings derived from them.
  bool traced = false;
  /// Where a traced repetition writes trace_<name>.json and
  /// layers_<name>.json; empty writes nothing.
  std::string traceDir;
};

struct RepetitionResult {
  std::vector<std::pair<std::string, double>> metrics;
  /// In-contract (event, host) pairs the delivery oracle checked, and how
  /// many of them broke the delivery guarantee. Losses on a workload with
  /// finite link queues are the congestion model at work: they count in
  /// loss_ratio, not here.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One line per failed correctness check; empty when all passed.
  std::vector<std::string> errors;
};

/// Throws std::runtime_error when the workload file cannot be loaded or
/// describes something this benchmark does not drive.
RepetitionResult runRepetition(const RepetitionConfig& config);

}  // namespace pleroma::e2e
