// The benchmark's metric catalogue and the order statistics its reports
// use. End-to-end metrics carry the regression bound that `compare`
// applies; per-layer metrics carry none.
#pragma once

#include <string>
#include <vector>

namespace pleroma::e2e {

enum class MetricKind { kEndToEnd, kLayer };

struct MetricDef {
  std::string name;
  std::string unit;
  bool lowerIsBetter = true;
  /// Share of the base median by which the metric may worsen before
  /// `compare` calls it worse. 0 for metrics that are deterministic at a
  /// fixed seed: any change in the worse direction counts.
  double bound = 0.0;
  /// Measured wall-clock or memory, which varies run to run. Every other
  /// metric must repeat exactly across repetitions at one seed.
  bool varies = false;
  MetricKind kind = MetricKind::kEndToEnd;
};

/// Every metric a repetition can report, in report order.
const std::vector<MetricDef>& metricCatalogue();

/// Median of `values` (need not be sorted; empty gives 0).
double median(std::vector<double> values);

/// First and third quartile by the "exclusive" method of Python's
/// statistics.quantiles(values, n=4); one value gives {v, v}.
struct Quartiles {
  double q1 = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> values);

}  // namespace pleroma::e2e
