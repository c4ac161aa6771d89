#include "metrics.hpp"

#include <algorithm>

#include "net/network.hpp"

namespace pleroma::e2e {

namespace {

std::vector<MetricDef> buildCatalogue() {
  std::vector<MetricDef> c;
  auto e2e = [&](const char* name, const char* unit, double bound, bool varies) {
    c.push_back({name, unit, true, bound, varies, MetricKind::kEndToEnd});
  };
  // Wall-clock and memory bounds match BENCHMARK.json; README.md gives the
  // measured spreads they rest on. setup_s has the largest.
  e2e("setup_s", "s", 0.25, true);
  e2e("run_s", "s", 0.24, true);
  e2e("peak_rss_mb", "MB", 0.20, true);
  e2e("delivery_p50_us", "us", 0.0, false);
  e2e("delivery_p99_us", "us", 0.0, false);
  e2e("delivery_mean_us", "us", 0.0, false);
  e2e("loss_ratio", "ratio", 0.0, false);
  e2e("fpr", "ratio", 0.0, false);
  e2e("flow_mods", "count", 0.0, false);
  e2e("tcam_peak_entries", "count", 0.0, false);
  e2e("control_messages", "count", 0.0, false);

  // Per-layer metrics. A wall-clock one ("varies") comes only from traced
  // repetitions, whose spans it is computed from.
  auto layer = [&](std::string name, const char* unit, bool lower, bool varies) {
    c.push_back({std::move(name), unit, lower, 0.0, varies, MetricKind::kLayer});
  };
  layer("bench.oracle.expected_pairs", "count", false, false);
  layer("bench.oracle.missed_pairs", "count", true, false);
  layer("core.publish.calls", "count", true, false);
  layer("core.publish.self_s", "s", true, true);
  layer("core.publish.ns_per_call", "ns", true, true);
  layer("dz.stamp.ns_per_call", "ns", true, true);
  for (const char* op : {"advertise", "subscribe", "unsubscribe"}) {
    const std::string p = std::string("controller.") + op;
    layer(p + ".calls", "count", true, false);
    layer(p + ".self_s", "s", true, true);
    layer(p + ".p50_us", "us", true, true);
    layer(p + ".p90_us", "us", true, true);
  }
  layer("controller.self_s", "s", true, true);
  layer("controller.setup_self_s", "s", true, true);
  layer("controller.flow_mods_per_op", "count", true, false);
  layer("controller.trees", "count", true, false);
  layer("controller.flow_state_bytes", "bytes", true, false);
  layer("controller.rebalance.ticks", "count", true, false);
  layer("controller.rebalance.self_s", "s", true, true);
  layer("controller.rebalance.reroots", "count", true, false);
  layer("net.settle.self_s", "s", true, true);
  layer("net.sim.events", "count", true, false);
  layer("net.sim.ns_per_event", "ns", true, true);
  layer("net.flow_table.lookups", "count", true, false);
  layer("net.flow_table.hit_ratio", "ratio", false, false);
  layer("net.flow_table.probes_per_lookup", "count", true, false);
  layer("net.flow_table.lookup_ns", "ns", true, true);
  layer("net.flow_table.est_share", "ratio", true, true);
  layer("net.link.packets_forwarded", "count", true, false);
  layer("net.link.bytes", "bytes", true, false);
  layer("net.link.peak_queue_depth", "count", true, false);
  layer("net.link.bp_parks", "count", true, false);
  layer("net.link.bp_retries", "count", true, false);
  for (std::size_t r = 0; r < net::kDropReasonCount; ++r) {
    layer(std::string("net.drops.") +
              net::dropReasonName(static_cast<net::DropReason>(r)),
          "count", true, false);
  }
  layer("net.host.delivered", "count", false, false);
  layer("net.host.useful_ratio", "ratio", false, false);
  layer("interop.control_messages", "count", true, false);
  layer("bench.driver_self_s", "s", true, true);
  layer("obs.trace_overhead", "ratio", true, true);
  return c;
}

}  // namespace

const std::vector<MetricDef>& metricCatalogue() {
  static const std::vector<MetricDef> catalogue = buildCatalogue();
  return catalogue;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

Quartiles quartiles(std::vector<double> values) {
  if (values.empty()) return {};
  if (values.size() == 1) return {values[0], values[0]};
  std::sort(values.begin(), values.end());
  const long n = static_cast<long>(values.size());
  const long m = n + 1;
  auto at = [&](long i) {
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    return (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  return {at(1), at(3)};
}

}  // namespace pleroma::e2e
