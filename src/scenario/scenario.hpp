// Declarative scenario format (schema "pleroma-scenario-v1"): one JSON
// document describes a full experiment — topology, attribute schema,
// partitions, workload phases, a fault schedule, and seeds — so opening a
// new workload means writing data, not another C++ bench binary.
//
//   {
//     "schema": "pleroma-scenario-v1",
//     "name": "flash_crowd",               // becomes BENCH_<name>.json
//     "description": "...",                // optional
//     "seed": 42,
//     "topology": { "kind": "testbed-fat-tree" },   // see TopologySpec
//     "attributes": { "count": 2, "bits": 10 },
//     "partitions": 1,                     // PleromaOptions::partitions
//     "controller": { "max_dz_length": 24, "max_cells_per_request": 8,
//                     "aggregate_subscriptions": true, "tcam_budget": 512 },
//     "failover": { "heartbeat_ms": 10, "miss_threshold": 3 },  // optional
//     "network": { "link_queue_capacity": 8, "backpressure": true },
//     "rebalance": { "interval_us": 1000, "hot_threshold": 2.0,
//                    "congestion_factor": 8.0 },     // optional, see §15
//     "workload": { "selectivity": 0.1, ... },      // phase defaults
//     "phases": [ { "name": "warmup", "family": "uniform",
//                   "advertisements": 4, "subscriptions": 100,
//                   "events": 200, "event_interval_us": 100, ... }, ... ],
//     "faults": [ { "at_ms": 5.0, "action": "link-down", "target": 3 } ],
//     "smoke": { "max_subscriptions": 32, ... }     // --smoke caps
//   }
//
// Parsing uses the strict obs::JsonValue parser; every rejection names the
// offending field path (e.g. "phases[2].family") or, for syntax errors,
// the line of the input. Unknown keys are rejected — a typo fails loudly
// instead of silently running a different experiment.
//
// This header is the format only; scenario::ScenarioRunner (runner.hpp)
// executes it, for scenario_run and the CLI alike.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "obs/json.hpp"
#include "workload/workload.hpp"

namespace pleroma::scenario {

inline constexpr const char* kScenarioSchema = "pleroma-scenario-v1";

enum class TopologyKind {
  kTestbedFatTree,  ///< the Fig 6 Stuttgart testbed (10 switches, 8 hosts)
  kFatTree,         ///< generic two-level fat-tree (core x agg x edge x hosts)
  kKAryFatTree,     ///< canonical k-ary three-level fat-tree
  kRing,
  kLine,
  kRandom,          ///< random connected switch graph, one host per switch
};

struct TopologySpec {
  TopologyKind kind = TopologyKind::kTestbedFatTree;
  int switches = 8;                ///< ring / line / random
  int core = 2;                    ///< fat-tree
  int aggregation = 4;             ///< fat-tree
  int edgePerAgg = 1;              ///< fat-tree
  int hostsPerEdge = 2;            ///< fat-tree
  int k = 4;                       ///< k-ary fat-tree
  int extraLinks = 3;              ///< random
  std::uint64_t topoSeed = 1;      ///< random
  net::SimTime linkLatency = 50 * net::kMicrosecond;
  /// Uniform link bandwidth ("link_bandwidth_mbps"); 0 keeps the default
  /// infinite-bandwidth links. Finite bandwidth is what makes the finite
  /// link queues of the `network` block bind (DESIGN.md §15).
  double linkBandwidthBps = 0.0;
};

/// Data-plane congestion knobs (DESIGN.md §15): finite per-direction link
/// transmit queues, optionally with backpressure (park upstream and retry
/// instead of dropping). Requires a finite topology.link_bandwidth_mbps —
/// with infinite bandwidth nothing ever queues, so validate() rejects the
/// combination as a silent no-op.
struct NetworkSpec {
  std::size_t linkQueueCapacity = 0;  ///< 0 = legacy contention-free links
  bool backpressure = false;
};

/// Closed-loop congestion reaction: a net::CongestionMonitor samples the
/// data plane and a periodic ctrl::LoadMonitor reroots overloaded spanning
/// trees with congestion-weighted link costs (DESIGN.md §15).
struct RebalanceSpec {
  bool enabled = false;
  net::SimTime interval = net::kMillisecond;  ///< "interval_us"
  double hotThreshold = 2.0;                  ///< "hot_threshold"
  double congestionFactor = 8.0;              ///< "congestion_factor"
};

/// Workload families a phase can select. kChurn registers uniform
/// subscriptions and then re-homes them with timed unsub+resub moves
/// (subscriber mobility); the other families map onto workload::Model.
enum class Family { kUniform, kZipfian, kFlashCrowd, kChurn, kWideEventSpace };

struct PhaseSpec {
  std::string name;
  Family family = Family::kUniform;
  std::size_t advertisements = 0;
  std::size_t subscriptions = 0;
  std::size_t events = 0;
  std::size_t churnMoves = 0;  ///< kChurn: timed unsub+resub moves
  net::SimTime eventInterval = 100 * net::kMicrosecond;
  /// Overrides of the scenario-level workload defaults (absent = inherit).
  std::optional<double> selectivity;
  std::optional<int> hotspots;
  std::optional<double> zipfAlpha;
  std::optional<double> hotspotRadius;
  /// kFlashCrowd: crowd region (fractions of the domain).
  std::vector<double> crowdCentre;
  double crowdRadius = 0.05;
  /// Dimensions made useless for filtering in this phase (any family) —
  /// the knob behind uninformative-dimension sweeps.
  std::vector<int> uninformativeDims;
};

enum class FaultAction { kLinkDown, kLinkUp, kSwitchDown, kSwitchUp, kControllerKill };

/// One fault-schedule entry. `target` is a link id for link actions and an
/// index into Topology::switches() for switch actions; it is ignored for
/// controller-kill. Faults apply at the first workload timeline step at or
/// after `at` (virtual time), so a schedule replays identically on every
/// run.
struct FaultSpec {
  net::SimTime at = 0;
  FaultAction action = FaultAction::kLinkDown;
  int target = -1;
};

struct FailoverSpec {
  bool enabled = false;
  net::SimTime heartbeatInterval = 10 * net::kMillisecond;
  int missThreshold = 3;
};

/// Scenario-level workload defaults shared by every phase.
struct WorkloadDefaults {
  double selectivity = 0.1;
  double advertisementWidthFactor = 4.0;
  int hotspots = 7;
  double zipfAlpha = 1.0;
  double hotspotRadius = 0.08;
};

/// Caps applied when a scenario runs in --smoke mode (CI): every phase's
/// counts shrink to min(count, cap) so the whole catalog executes in
/// seconds while still exercising every code path.
struct SmokeSpec {
  std::size_t maxAdvertisements = 8;
  std::size_t maxSubscriptions = 32;
  std::size_t maxEvents = 64;
  std::size_t maxChurnMoves = 16;
};

struct Scenario {
  std::string name;
  std::string description;
  std::uint64_t seed = 42;
  TopologySpec topology;
  int numAttributes = 2;
  int bitsPerDim = 10;
  int partitions = 1;
  std::optional<int> maxDzLength;
  std::optional<std::size_t> maxCellsPerRequest;
  /// Controller "aggregate_subscriptions" knob: per-endpoint
  /// covering/merging aggregation in front of the flow installer.
  std::optional<bool> aggregateSubscriptions;
  /// Controller "tcam_budget" knob: per-switch flow-entry budget; over
  /// budget the installer coarsens that switch's flows (0 = unlimited).
  std::optional<std::size_t> tcamBudget;
  FailoverSpec failover;
  NetworkSpec network;
  RebalanceSpec rebalance;
  WorkloadDefaults workload;
  std::vector<PhaseSpec> phases;
  std::vector<FaultSpec> faults;
  SmokeSpec smoke;

  /// Builds a scenario from a parsed document. On failure returns nullopt
  /// and names the offending field path in *error.
  static std::optional<Scenario> fromJson(const obs::JsonValue& doc,
                                          std::string* error);

  /// Parses JSON text. Syntax errors report the 1-based line of the
  /// problem; structural errors report the field path.
  static std::optional<Scenario> parse(std::string_view text,
                                       std::string* error);

  /// Reads and parses a scenario file; errors are prefixed with the path.
  static std::optional<Scenario> loadFile(const std::string& path,
                                          std::string* error);

  /// Deep validation beyond structure: builds the topology to check fault
  /// targets and partition counts, checks phase cross-constraints (events
  /// need a prior advertisement, churn needs a prior subscription, dims in
  /// range, ...). Errors name the offending field.
  bool validate(std::string* error) const;

  net::Topology buildTopology() const;

  /// "testbed_fat_tree", "ring_20", "random_8_3", ... (bench metadata).
  std::string topologyLabel() const;
  /// The phase families joined with '+', e.g. "uniform+flash-crowd".
  std::string workloadLabel() const;

  /// True when the run needs the controller-HA layer: an explicit failover
  /// block or any controller-kill fault.
  bool needsFailover() const;
};

const char* toString(Family family) noexcept;
const char* toString(FaultAction action) noexcept;

/// The fully materialized work of one phase, in deterministic generation
/// order: advertisements, then subscriptions, then churn moves, then
/// events — exactly the order a hand-coded bench would draw them from one
/// WorkloadGenerator seeded with derivePhaseSeed(seed, phaseIndex). Host
/// slots are indices into Topology::hosts(), assigned round-robin.
struct PhasePlan {
  std::vector<std::pair<std::size_t, dz::Rectangle>> advertisements;
  std::vector<std::pair<std::size_t, dz::Rectangle>> subscriptions;
  std::vector<workload::ChurnStep> churnMoves;
  std::vector<dz::Event> events;
  net::SimTime eventInterval = 100 * net::kMicrosecond;
};

/// The WorkloadConfig phase `phaseIndex` runs with: family mapped to a
/// workload::Model, per-phase overrides applied over the scenario
/// defaults, and the seed derived via workload::derivePhaseSeed.
workload::WorkloadConfig phaseWorkloadConfig(const Scenario& s,
                                             std::size_t phaseIndex);

/// Materializes phase `phaseIndex`. `hostCount` is the topology's host
/// count; `priorSubscriptions` the number of subscriptions deployed by
/// earlier phases (churn moves index the combined population); `smoke`
/// applies the scenario's smoke caps.
PhasePlan buildPhasePlan(const Scenario& s, std::size_t phaseIndex,
                         std::size_t hostCount,
                         std::size_t priorSubscriptions, bool smoke);

}  // namespace pleroma::scenario
