// Shared helpers for the figure-reproduction harnesses. Every bench binary
// prints a TSV table (comment lines start with '#') with the same series
// the corresponding sub-figure of the paper reports, and mirrors the table
// into a machine-readable BENCH_<name>.json through obs::BenchReporter
// (see src/obs/report.hpp for the schema). The TSV stays byte-identical to
// the historical output; the JSON is the authoritative artifact.
#pragma once

#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/pleroma.hpp"
#include "interop/multi_domain.hpp"
#include "obs/report.hpp"
#include "workload/workload.hpp"

namespace pleroma::bench {

inline void printHeader(const char* figure, const char* description) {
  std::printf("# %s — %s\n", figure, description);
}

inline void printRow(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::printf("%s%s", i ? "\t" : "", cells[i].c_str());
  }
  std::printf("\n");
}

inline std::string fmt(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

template <std::integral T>
inline std::string fmt(T v) {
  return std::to_string(v);
}

/// A double cell rendered with fixed precision, matching the fmt() text
/// the TSV always printed while keeping the full value in the JSON.
inline obs::Cell cell(double v, int precision = 2) {
  return obs::Cell(obs::JsonValue(v), fmt(v, precision));
}

/// True when PLEROMA_BENCH_SMOKE is set (non-empty, not "0"): benches
/// shrink their sweeps so CI can execute every binary in seconds. Smoke
/// runs exercise the code paths and the report schema; they do not
/// reproduce the figures.
inline bool smokeMode() {
  const char* v = std::getenv("PLEROMA_BENCH_SMOKE");
  return v != nullptr && v[0] != '\0' && std::string_view(v) != "0";
}

/// `full` normally, `smoke` under PLEROMA_BENCH_SMOKE.
template <typename T>
inline T scaled(T full, T smoke) {
  return smokeMode() ? smoke : full;
}

/// Routes one bench's output to both sinks: the historical TSV on stdout
/// and a BENCH_<name>.json written on destruction. Benches set the
/// required metadata (seed/topology/workload) right after construction.
class BenchTable {
 public:
  BenchTable(std::string name, const char* figure, const char* description)
      : reporter_(std::move(name)) {
    printHeader(figure, description);
    reporter_.meta("figure", figure);
    reporter_.meta("description", description);
    reporter_.meta("smoke", smokeMode());
  }

  void meta(const std::string& key, obs::JsonValue v) {
    reporter_.meta(key, std::move(v));
  }

  /// Starts a series and prints its column names as the TSV header row.
  void beginSeries(std::string name, std::vector<obs::Column> columns) {
    std::vector<std::string> header;
    header.reserve(columns.size());
    for (const obs::Column& c : columns) header.push_back(c.name);
    printRow(header);
    reporter_.beginSeries(std::move(name), std::move(columns));
  }

  /// Appends a row to both the TSV and the current JSON series.
  void row(std::vector<obs::Cell> cells) {
    std::vector<std::string> texts;
    texts.reserve(cells.size());
    for (const obs::Cell& c : cells) texts.push_back(c.text);
    printRow(texts);
    reporter_.row(std::move(cells));
  }

  obs::BenchReporter& reporter() noexcept { return reporter_; }

 private:
  obs::BenchReporter reporter_;
};

/// Splits `n` subscriptions among `hosts` round-robin, as the testbed
/// experiments do ("divided among different end hosts", Sec 6.2).
inline void deploySubscriptions(core::Pleroma& p,
                                const std::vector<net::NodeId>& hosts,
                                workload::WorkloadGenerator& gen, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    p.subscribe(hosts[i % hosts.size()], gen.makeSubscription());
  }
}

/// Figs 7g/7h: the 20-switch ring split into `controllers` contiguous
/// partitions, four advertisers on every fifth host, then `numSubs`
/// uniform subscriptions on random hosts.
inline std::unique_ptr<interop::MultiDomain> deployPartitionedRing(
    int controllers, std::size_t numSubs, std::uint64_t seed) {
  net::Topology topo = net::Topology::ring(20);
  std::vector<interop::PartitionId> partitionOf =
      interop::contiguousPartitions(topo, controllers);
  ctrl::ControllerConfig ccfg;
  ccfg.maxDzLength = 10;
  ccfg.maxCellsPerRequest = 4;
  auto domain = std::make_unique<interop::MultiDomain>(
      std::move(topo), std::move(partitionOf), dz::EventSpace(2, 10), ccfg);
  const auto hosts = domain->network().topology().hosts();

  workload::WorkloadConfig wcfg;
  wcfg.model = workload::Model::kUniform;
  wcfg.numAttributes = 2;
  wcfg.subscriptionSelectivity = 0.15;
  wcfg.seed = seed;
  workload::WorkloadGenerator gen(wcfg);
  for (int i = 0; i < 4; ++i) {
    domain->advertise(hosts[static_cast<std::size_t>(i * 5)],
                      gen.makeAdvertisement());
  }
  for (std::size_t i = 0; i < numSubs; ++i) {
    domain->subscribe(hosts[gen.rng().uniformInt(0, hosts.size() - 1)],
                      gen.makeSubscription());
  }
  return domain;
}

// ---- robustness-bench helpers (shared by control_plane_loss,
// failure_repair, and failover_window) --------------------------------------

/// Controller configuration of the robustness benches: short dz and a small
/// decomposition budget keep flow counts readable across fault sweeps.
inline ctrl::ControllerConfig robustnessControllerConfig() {
  ctrl::ControllerConfig cfg;
  cfg.maxDzLength = 10;
  cfg.maxCellsPerRequest = 6;
  return cfg;
}

/// Workload of the robustness benches: 2 attributes, 20%-selective
/// subscriptions.
inline workload::WorkloadConfig robustnessWorkload(std::uint64_t seed) {
  workload::WorkloadConfig wcfg;
  wcfg.numAttributes = 2;
  wcfg.subscriptionSelectivity = 0.2;
  wcfg.seed = seed;
  return wcfg;
}

/// The shared fault schedule of the lossy-control-plane benches: async
/// installs, per-attempt drop at `dropProb` (duplicates at a quarter of it,
/// up to 1 ms extra delivery delay), `maxRetries` retransmissions with 1 ms
/// initial timeout, and a fault-Rng seed derived deterministically from the
/// bench seed.
inline void applyFaultProfile(openflow::ControlChannel& channel,
                              double dropProb, int maxRetries,
                              std::uint64_t seed) {
  channel.enableAsyncInstall();
  openflow::ControlFaultModel faults;
  faults.dropProbability = dropProb;
  faults.duplicateProbability = dropProb / 4;
  faults.maxExtraDelay = net::kMillisecond;
  channel.setFaultModel(faults);
  openflow::RetryPolicy retry;
  retry.maxRetries = maxRetries;
  retry.initialTimeout = net::kMillisecond;
  channel.setRetryPolicy(retry);
  channel.reseedFaults(seed * 6151 + 7);
}

/// Drop-probability sweep of the robustness benches (two points in smoke).
inline std::vector<double> dropRateSweep() {
  return smokeMode() ? std::vector<double>{0.0, 0.10}
                     : std::vector<double>{0.0, 0.05, 0.10, 0.15, 0.20};
}

/// One deployed subscription with the ground truth needed to detect false
/// negatives later: its host and its decomposed DZ.
struct DeployedSub {
  net::NodeId host = net::kInvalidNode;
  dz::DzSet dz;
};

/// Deploys `n` generated subscriptions round-robin over `hosts` against a
/// raw Controller, recording host + DZ per subscription.
inline std::vector<DeployedSub> deployRecordedSubscriptions(
    ctrl::Controller& controller, const std::vector<net::NodeId>& hosts,
    workload::WorkloadGenerator& gen, std::size_t n) {
  std::vector<DeployedSub> subs;
  subs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const net::NodeId h = hosts[i % hosts.size()];
    const ctrl::SubscriptionId id =
        controller.subscribe(h, gen.makeSubscription());
    subs.push_back({h, controller.subscriptionDz(id)});
  }
  return subs;
}

}  // namespace pleroma::bench
