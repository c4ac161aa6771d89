// Executes a validated Scenario: builds the topology, deploys every
// phase's materialized workload (advertisements, subscriptions, churn
// moves, paced events), applies the fault schedule at its virtual-time
// instants, and collects per-phase delivery/control-plane measurements.
//
// This is the one executor of scenario files: scenario_run and the CLI's
// `scenario` command both run them here. Every scenario drives one
// core::Pleroma, whatever its partition count (pleromaOptions maps the
// file onto PleromaOptions, arming the controller-HA layer when the
// scenario needs it); the caller may own that instance and keep driving
// it after the run. Fault application and the closed congestion loop are
// single-partition, around that instance. Everything measured derives
// from virtual time and deterministic counters, so two runs of one
// scenario are byte-identical.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/pleroma.hpp"
#include "obs/report.hpp"
#include "scenario/scenario.hpp"

namespace pleroma::scenario {

/// The deployment a validated scenario describes: schema, partitions,
/// controller knobs, network block, and the standby when the scenario
/// needs failover.
core::PleromaOptions pleromaOptions(const Scenario& s);

struct RunOptions {
  /// Apply the scenario's smoke caps to every phase (CI mode).
  bool smoke = false;
  /// Optional progress sink (one line per phase / fault).
  std::function<void(const std::string&)> log;
};

struct PhaseResult {
  std::string name;
  Family family = Family::kUniform;
  std::size_t advertisements = 0;
  std::size_t subscriptions = 0;
  std::size_t churnMoves = 0;
  std::size_t events = 0;
  std::uint64_t delivered = 0;
  std::uint64_t falsePositives = 0;
  double meanLatencyUs = 0.0;
  /// Flow-mods the control plane issued during this phase (a promoted
  /// controller's channel continues the primary's counters).
  std::uint64_t flowMods = 0;
  /// Total TCAM entries across all switches at phase end.
  std::uint64_t flowEntries = 0;
  /// Virtual time at phase end.
  net::SimTime end = 0;
};

struct AppliedFault {
  FaultSpec spec;
  net::SimTime appliedAt = 0;  ///< virtual instant the fault took effect
};

/// End-of-run congestion accounting (DESIGN.md §15); populated only when
/// the scenario enables link queues or rebalancing.
struct CongestionResult {
  std::uint64_t queueDrops = 0;    ///< DropReason::kLinkQueue
  std::uint64_t bpDrops = 0;       ///< DropReason::kBackpressure
  std::uint64_t bpParks = 0;       ///< cumulative backpressure parks
  std::uint64_t bpRetries = 0;
  std::uint64_t peakLinkQueueDepth = 0;
  std::uint64_t rebalances = 0;    ///< load-aware tree reroots
};

struct RunResult {
  std::vector<PhaseResult> phases;
  std::vector<AppliedFault> faults;
  std::uint64_t delivered = 0;
  std::uint64_t falsePositives = 0;
  std::uint64_t published = 0;
  double meanLatencyUs = 0.0;
  std::uint64_t flowMods = 0;
  /// Inter-controller messages (multi-partition runs; 0 otherwise).
  std::uint64_t controlMessages = 0;
  /// True when a controller kill led to a standby promotion.
  bool promoted = false;
  CongestionResult congestion;
  net::SimTime end = 0;
};

class ScenarioRunner {
 public:
  /// The scenario must already be validate()d; run() asserts on obviously
  /// broken input but does not re-validate.
  explicit ScenarioRunner(Scenario scenario, RunOptions options = {});

  /// Builds the scenario's deployment and runs it there.
  RunResult run();

  /// Runs the scenario on `pleroma`, which must be freshly built from
  /// scenario().buildTopology() and pleromaOptions(scenario()). The run
  /// ends with the simulator drained and none of its own ticks left in
  /// it, so the caller can go on driving `pleroma`.
  RunResult run(core::Pleroma& pleroma);

  /// Fills a pleroma-bench-v1 report: metadata (seed, topology, workload,
  /// scenario name/schema, partitions, smoke) plus the "phases",
  /// "faults" (when any applied), "congestion" (when link queues or
  /// rebalancing are enabled) and "totals" series.
  void report(obs::BenchReporter& out, const RunResult& result) const;

  const Scenario& scenario() const noexcept { return scenario_; }

 private:
  Scenario scenario_;
  RunOptions options_;
};

}  // namespace pleroma::scenario
