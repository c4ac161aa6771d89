// Subscription activation delay — the paper's requirement 1 (Sec 1):
// "publish/subscribe should in the presence of subscriptions and
// advertisements offer a low latency until subscribers can react to
// published events."
//
// With asynchronous flow installation (1 ms per flow-mod, serialised on
// the control channel), activation delay = controller compute + install
// pipeline depth. The harness measures, per new subscription, the
// simulated time from the subscribe call until a matching probe event is
// first delivered, as a function of the pre-deployed subscription count.
#include "bench_common.hpp"

#include "util/stats.hpp"

namespace {

using namespace pleroma;

double measureActivationMs(std::size_t deployed, std::uint64_t seed) {
  core::PleromaOptions opts;
  opts.numAttributes = 2;
  opts.controller.maxDzLength = 12;
  opts.controller.maxCellsPerRequest = 8;
  core::Pleroma p(net::Topology::testbedFatTree(), opts);
  p.controller().channel().enableAsyncInstall();
  const auto hosts = p.topology().hosts();

  workload::WorkloadConfig wcfg;
  wcfg.numAttributes = 2;
  wcfg.subscriptionSelectivity = 0.1;
  wcfg.seed = seed;
  workload::WorkloadGenerator gen(wcfg);

  p.advertise(hosts[0], p.controller().space().wholeSpace());
  bench::deploySubscriptions(
      p, std::vector<net::NodeId>(hosts.begin() + 1, hosts.end()), gen, deployed);
  p.settle();  // drain the install pipeline

  util::RunningStat activation;
  const int kProbes = bench::scaled(20, 5);
  for (int probe = 0; probe < kProbes; ++probe) {
    // A fresh subscriber with a known matching event.
    const dz::Rectangle rect = gen.makeSubscription();
    dz::Event inside;
    for (const auto& r : rect.ranges) {
      inside.push_back(r.lo + (r.hi - r.lo) / 2);
    }
    const net::NodeId host = hosts[1 + probe % (hosts.size() - 1)];
    const net::SimTime subscribedAt = p.simulator().now();
    const auto sub = p.subscribe(host, rect);

    // Probe events at a steady rate until the subscriber hears one.
    net::SimTime activatedAt = -1;
    p.setDeliveryCallback([&](const core::DeliveryRecord& r) {
      if (r.host == host && activatedAt < 0) activatedAt = p.simulator().now();
    });
    for (int i = 0; i < 200 && activatedAt < 0; ++i) {
      p.publish(hosts[0], inside);
      p.settleUntil(p.simulator().now() + 100 * net::kMicrosecond);
    }
    p.settle();
    if (activatedAt >= 0) {
      activation.add(static_cast<double>(activatedAt - subscribedAt));
    }
    p.setDeliveryCallback(nullptr);
    p.unsubscribe(sub);
    p.settle();
  }
  return activation.mean() / static_cast<double>(net::kMillisecond);
}

}  // namespace

int main() {
  using namespace pleroma::bench;
  BenchTable bench("activation_delay", "Requirement 1",
                   "subscription activation delay (async 1 ms/flow-mod installs) "
                   "vs. deployed subscriptions");
  bench.meta("seed", 13);
  bench.meta("topology", "testbed_fat_tree");
  bench.meta("workload", "uniform_subscriptions_async_install");
  bench.beginSeries("activation_delay", {{"deployed_subs", "count"},
                                         {"activation_ms", "ms"}});
  const std::vector<std::size_t> sweep =
      smokeMode() ? std::vector<std::size_t>{0, 100}
                  : std::vector<std::size_t>{0, 100, 1000, 5000};
  for (const std::size_t n : sweep) {
    bench.row({n, cell(measureActivationMs(n, 13), 2)});
  }
  return 0;
}
