// Sublinear flow-state at million-subscriber scale (Fig 7(b)/(d)-class):
//
// Sweep the subscription count up to 10^6 under the zipfian interest model
// and report, for the naive per-subscription installer and the aggregated
// (covering/merging) one: installed path rule-sets, cumulative flow-mods
// put on the control channel, resident TCAM entries, accounted controller
// flow-state bytes, live aggregate representatives and fully-covered
// subscribes. Expected shape: naive rule-sets and flow state grow linearly
// in subscribers while aggregated saturates — sublinear — with >=5x fewer
// installed (rule-set) entries at the largest point. Resident TCAM entries
// converge to the *same* canonical set in both modes: Algorithm 2's merge
// cases already collapse subsumed flows inside the switch mirror, and
// delivery equivalence pins the forwarding behaviour. What aggregation
// removes is everything upstream of the TCAM — the per-subscriber paths,
// the mod churn to reach the canonical set, and the controller state.
//
// A second series sweeps the per-switch TCAM budget at a fixed population:
// over-budget switches coarsen (dz shortening, supersets never misses), so
// entries drop below the budget while the induced false-positive volume
// (coarsen added_volume) grows — precision degrades instead of failing.
//
// Every reported number is simulated/accounted state, so the whole table
// is byte-identical from run to run; real RSS is metadata-only
// provenance (allocator- and kernel-dependent).
#include "bench_common.hpp"

#include "obs/memory.hpp"

namespace {

using namespace pleroma;

struct ScalePoint {
  std::size_t installedPaths = 0;
  std::uint64_t flowMods = 0;
  std::size_t flowEntries = 0;
  std::size_t stateBytes = 0;
  std::size_t representatives = 0;
  std::uint64_t coveredSubscribes = 0;
};

core::PleromaOptions baseOptions(bool aggregated, std::size_t tcamBudget) {
  core::PleromaOptions opts;
  opts.numAttributes = 2;
  opts.controller.maxDzLength = 12;
  opts.controller.maxCellsPerRequest = 4;
  opts.controller.aggregateSubscriptions = aggregated;
  opts.controller.tcamBudget = tcamBudget;
  return opts;
}

workload::WorkloadGenerator makeGenerator(std::size_t hostCount,
                                          std::uint64_t seed) {
  workload::WorkloadConfig wcfg;
  wcfg.model = workload::Model::kZipfian;
  wcfg.numAttributes = 2;
  wcfg.subscriptionSelectivity = 0.05;
  wcfg.numHotspots = static_cast<int>(hostCount) - 1;
  wcfg.seed = seed;
  return workload::WorkloadGenerator(wcfg);
}

/// Registers `numSubs` zipfian subscriptions round-robin over the end
/// hosts behind one whole-space publisher; no events are published — the
/// subject is control-plane state, not delivery latency.
ScalePoint runOnce(std::size_t numSubs, bool aggregated,
                   std::size_t tcamBudget = 0) {
  core::Pleroma p(net::Topology::testbedFatTree(),
                  baseOptions(aggregated, tcamBudget));
  const auto hosts = p.topology().hosts();
  workload::WorkloadGenerator gen = makeGenerator(hosts.size(), 29);

  p.advertise(hosts[0], p.controller().space().wholeSpace());
  for (std::size_t i = 0; i < numSubs; ++i) {
    p.subscribe(hosts[1 + i % (hosts.size() - 1)], gen.makeSubscription());
  }

  ScalePoint point;
  point.installedPaths = p.controller().registry().size();
  point.flowMods = p.controller().channel().stats().flowModsSent;
  point.flowEntries = p.network().totalFlowEntries();
  point.stateBytes = p.controller().flowStateBytes();
  point.representatives = p.controller().aggregateRepresentatives();
  point.coveredSubscribes = p.controller().coveredSubscribes();
  return point;
}

}  // namespace

int main() {
  using namespace pleroma::bench;
  BenchTable bench("scale_aggregation", "Fig 7(b)/(d)-class scale sweep",
                   "installed flow entries and flow-state vs. subscribers, "
                   "naive vs aggregated");
  bench.meta("seed", 29);
  bench.meta("topology", "testbed_fat_tree");
  bench.meta("workload", "zipfian_subscriptions");

  const std::vector<std::size_t> sweep =
      smokeMode()
          ? std::vector<std::size_t>{500, 2000}
          : std::vector<std::size_t>{1000, 10000, 100000, 1000000};

  bench.beginSeries("entries_vs_subscribers",
                    {{"subscriptions", "count"},
                     {"installed_paths_naive", "count"},
                     {"installed_paths_aggregated", "count"},
                     {"entry_reduction", "x"},
                     {"flow_mods_naive", "count"},
                     {"flow_mods_aggregated", "count"},
                     {"tcam_entries_naive", "count"},
                     {"tcam_entries_aggregated", "count"},
                     {"state_bytes_naive", "bytes"},
                     {"state_bytes_aggregated", "bytes"},
                     {"representatives", "count"},
                     {"covered_subscribes", "count"}});
  double largestReduction = 0.0;
  for (const std::size_t n : sweep) {
    const ScalePoint naive = runOnce(n, /*aggregated=*/false);
    const ScalePoint agg = runOnce(n, /*aggregated=*/true);
    const double reduction =
        agg.installedPaths == 0 ? 0.0
                                : static_cast<double>(naive.installedPaths) /
                                      static_cast<double>(agg.installedPaths);
    largestReduction = reduction;
    bench.row({n, naive.installedPaths, agg.installedPaths,
               cell(reduction, 2), naive.flowMods, agg.flowMods,
               naive.flowEntries, agg.flowEntries, naive.stateBytes,
               agg.stateBytes, agg.representatives, agg.coveredSubscribes});
  }

  // Fig 7(d)-class: degrade precision, not availability. Fixed population
  // under a fine decomposition (long dz, many cells per request — the
  // regime where distinct TCAM entries are plentiful), shrinking per-switch
  // TCAM budget; aggregated mode throughout. Over-budget switches shorten
  // their dz (supersets, never misses) and the added_volume column records
  // the induced false-positive space. 4000 fine subscriptions already want
  // ~83k entries (vs caps of 64/16/4); beyond that the unlimited baseline
  // row grows superlinearly (the Algorithm 2 subsumption scan is linear in
  // per-switch table size, so uncapped fine tables get expensive to build
  // — which is itself the case for budgets), so the full-mode population
  // stays at the point where the sweep finishes in about a minute.
  const std::size_t budgetSubs = scaled<std::size_t>(4000, 1000);
  bench.beginSeries("entries_vs_tcam_budget",
                    {{"tcam_budget", "entries/switch"},
                     {"entries", "count"},
                     {"max_switch_entries", "count"},
                     {"coarsen_events", "count"},
                     {"added_volume", "space_fraction"}});
  for (const std::size_t budget : {std::size_t{0}, std::size_t{64},
                                   std::size_t{16}, std::size_t{4}}) {
    core::PleromaOptions opts = baseOptions(/*aggregated=*/true, budget);
    opts.controller.maxDzLength = 16;
    opts.controller.maxCellsPerRequest = 16;
    core::Pleroma p(net::Topology::testbedFatTree(), opts);
    const auto hosts = p.topology().hosts();
    workload::WorkloadConfig wcfg;
    wcfg.model = workload::Model::kUniform;
    wcfg.numAttributes = 2;
    wcfg.subscriptionSelectivity = 0.01;
    wcfg.seed = 31;
    workload::WorkloadGenerator gen(wcfg);
    p.advertise(hosts[0], p.controller().space().wholeSpace());
    for (std::size_t i = 0; i < budgetSubs; ++i) {
      p.subscribe(hosts[1 + i % (hosts.size() - 1)], gen.makeSubscription());
    }
    std::size_t maxSwitch = 0;
    for (const net::NodeId sw : p.topology().switches()) {
      maxSwitch = std::max(maxSwitch, p.network().flowTable(sw).size());
    }
    const ctrl::FlowInstaller::CoarsenStats& cs =
        p.controller().installer().coarsenStats();
    bench.row({static_cast<unsigned long long>(budget),
               p.network().totalFlowEntries(), maxSwitch, cs.events,
               cell(cs.addedVolume, 6)});
  }

  // Provenance only — never a compared series (see obs/memory.hpp).
  const obs::MemoryUsage mem = obs::processMemory();
  bench.meta("resident_bytes", static_cast<long long>(mem.residentBytes));
  bench.meta("largest_entry_reduction", largestReduction);
  return 0;
}
