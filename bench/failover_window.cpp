// Failover-window sweep (controller high availability, DESIGN.md §11):
// deploy a workload over a lossy async control channel, arm the
// FailoverManager heartbeat, kill the primary controller, and measure the
// event-loss window — death to repaired-tables-plus-replayed-buffers — as
// a function of heartbeat interval × detection threshold. The heartbeat is
// armed at the instant of death, so detection latency is exactly
// missThreshold × heartbeatInterval and the reported window is the
// detection + promotion-repair pipeline with no phase noise.
//
// A second series compares event loss across death modes: a controller
// death under fail-soft (existing TCAM entries keep forwarding, misses are
// parked and replayed after the repair — loss only beyond the buffer
// budget) versus a *switch* death, where the flow state itself dies and
// events routed through the dead node are unrecoverable until the live
// controller reroutes around it.
//
// Every reported number is deterministic: the promoted channel's fault
// Rng is reseeded at promotion, so CI diffs the JSON of two runs.
#include "bench_common.hpp"

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "controller/failover.hpp"
#include "controller/standby.hpp"

namespace {

using namespace pleroma;

constexpr std::uint64_t kSeed = 101;
constexpr double kDeployDrop = 0.10;  // lossy deployment: divergence at kill
constexpr int kDeployRetries = 3;

/// The full stack one trial runs on. Wrapped so both series share setup.
struct Rig {
  net::Topology topo = net::Topology::testbedFatTree();
  net::Simulator sim;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<ctrl::Controller> primary;
  std::unique_ptr<ctrl::StandbyController> standby;
  std::unique_ptr<ctrl::FailoverManager> failover;
  std::vector<net::NodeId> hosts;
  std::vector<bench::DeployedSub> subs;
  workload::WorkloadGenerator gen{bench::robustnessWorkload(kSeed)};

  Rig(const ctrl::FailoverConfig& cfg, double deployDrop) {
    network = std::make_unique<net::Network>(topo, sim, net::NetworkConfig{});
    primary = std::make_unique<ctrl::Controller>(
        dz::EventSpace(2, 10), *network, ctrl::Scope::wholeTopology(topo),
        bench::robustnessControllerConfig());
    // Standby attaches before any registration (replay needs full history).
    standby = std::make_unique<ctrl::StandbyController>(*primary);
    failover = std::make_unique<ctrl::FailoverManager>(*primary, *standby, cfg);

    bench::applyFaultProfile(primary->channel(), deployDrop, kDeployRetries,
                             kSeed);
    hosts = topo.hosts();
    primary->advertise(hosts[0], primary->space().wholeSpace());
    subs = bench::deployRecordedSubscriptions(*primary, hosts, gen, 24);
    sim.run();  // drain installs, retries, abandonments
  }
};

struct WindowNumbers {
  double detectMs = 0;
  double windowMs = 0;
  std::uint64_t repairMods = 0;
  std::uint64_t entriesSurviving = 0;
  std::uint64_t buffered = 0;
  std::uint64_t replayed = 0;
  std::uint64_t droppedBufferFull = 0;
  /// Probe-observed loss window: ms from death until the first 2 ms probe
  /// round with zero false negatives (-1 = never within the budget).
  double probeWindowMs = -1;
};

WindowNumbers runWindow(net::SimTime heartbeatInterval, int missThreshold) {
  ctrl::FailoverConfig cfg;
  cfg.heartbeatInterval = heartbeatInterval;
  cfg.missThreshold = missThreshold;
  Rig rig(cfg, kDeployDrop);

  std::set<net::NodeId> got;
  rig.network->setDeliverHandler(
      [&](net::NodeId h, const net::Packet&) { got.insert(h); });

  // Arm the heartbeat at the instant of death (see file comment).
  rig.failover->start();
  rig.failover->killPrimary();
  const net::SimTime killedAt = rig.sim.now();

  std::vector<dz::Event> probes;
  for (int i = 0; i < 4; ++i) probes.push_back(rig.gen.makeEvent());

  WindowNumbers n;
  const int kMaxRounds = bench::scaled(256, 32);
  for (int round = 0; round < kMaxRounds; ++round) {
    const net::SimTime roundStart = rig.sim.now();
    bool anyMiss = false;
    for (const dz::Event& e : probes) {
      // Stamping is a pure space computation; the dead primary's copy is
      // as good as the replica's.
      const dz::DzExpression eDz = rig.primary->stampEvent(e);
      got.clear();
      rig.network->sendFromHost(
          rig.hosts[0], rig.primary->makeEventPacket(rig.hosts[0], e, 1));
      rig.sim.runUntil(rig.sim.now() + 2 * net::kMillisecond);
      for (const bench::DeployedSub& s : rig.subs) {
        if (s.host != rig.hosts[0] && s.dz.overlaps(eDz) &&
            !got.contains(s.host)) {
          anyMiss = true;
        }
      }
    }
    if (!anyMiss && rig.failover->promoted()) {
      n.probeWindowMs =
          static_cast<double>(roundStart - killedAt) / net::kMillisecond;
      break;
    }
  }
  rig.sim.run();

  const ctrl::FailoverStats& s = rig.failover->stats();
  n.detectMs = static_cast<double>(s.detectionLatency()) / net::kMillisecond;
  n.windowMs = static_cast<double>(s.failoverWindow()) / net::kMillisecond;
  n.repairMods = s.repairFlowMods;
  n.entriesSurviving = s.entriesSurviving;
  n.buffered = s.eventsBuffered;
  n.replayed = s.eventsReplayed;
  n.droppedBufferFull = s.eventsDroppedBufferFull;
  return n;
}

struct LossNumbers {
  std::uint64_t expected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;
  double windowMs = 0;
};

/// Publishes one probe per simulated ms over `horizon`, starting at the
/// injected death, and counts (event, host) deliveries against the
/// subscription ground truth after everything drained — late (replayed)
/// deliveries count as delivered, not lost.
LossNumbers probeLoss(Rig& rig, const std::vector<dz::Event>& probes,
                      net::SimTime horizon) {
  std::set<std::pair<net::EventId, net::NodeId>> gotPairs;
  rig.network->setDeliverHandler([&](net::NodeId h, const net::Packet& pkt) {
    gotPairs.insert({pkt.eventId(), h});
  });
  for (std::size_t i = 0; i < probes.size(); ++i) {
    rig.network->sendFromHost(
        rig.hosts[0],
        rig.primary->makeEventPacket(rig.hosts[0], probes[i],
                                     static_cast<net::EventId>(i + 1)));
    rig.sim.runUntil(rig.sim.now() + horizon / probes.size());
  }
  rig.sim.run();

  LossNumbers n;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const dz::DzExpression eDz = rig.primary->stampEvent(probes[i]);
    std::set<net::NodeId> expectedHosts;
    for (const bench::DeployedSub& s : rig.subs) {
      if (s.host != rig.hosts[0] && s.dz.overlaps(eDz)) {
        expectedHosts.insert(s.host);
      }
    }
    for (const net::NodeId h : expectedHosts) {
      ++n.expected;
      if (gotPairs.contains({static_cast<net::EventId>(i + 1), h})) {
        ++n.delivered;
      }
    }
  }
  n.lost = n.expected - n.delivered;
  return n;
}

/// A switch with no attached host (core/aggregation layer): its death
/// kills transit flow state without detaching any endpoint.
net::NodeId pickCoreSwitch(const net::Topology& topo) {
  std::set<net::NodeId> hostAdjacent;
  for (net::LinkId l = 0; l < topo.linkCount(); ++l) {
    const net::Link& link = topo.link(l);
    if (!topo.isSwitch(link.a.node)) hostAdjacent.insert(link.b.node);
    if (!topo.isSwitch(link.b.node)) hostAdjacent.insert(link.a.node);
  }
  for (const net::NodeId sw : topo.switches()) {
    if (!hostAdjacent.contains(sw)) return sw;
  }
  return topo.switches()[0];
}

LossNumbers runControllerDeath(double deployDrop) {
  ctrl::FailoverConfig cfg;  // defaults: 10 ms heartbeat × 3 misses
  Rig rig(cfg, deployDrop);
  std::vector<dz::Event> probes;
  for (int i = 0; i < 16; ++i) probes.push_back(rig.gen.makeEvent());

  rig.failover->start();
  rig.failover->killPrimary();
  const net::SimTime killedAt = rig.sim.now();
  LossNumbers n = probeLoss(rig, probes, 64 * net::kMillisecond);
  n.windowMs = static_cast<double>(rig.failover->stats().repairedAt - killedAt) /
               net::kMillisecond;
  return n;
}

LossNumbers runSwitchDeath(double deployDrop) {
  ctrl::FailoverConfig cfg;
  Rig rig(cfg, deployDrop);
  std::vector<dz::Event> probes;
  for (int i = 0; i < 16; ++i) probes.push_back(rig.gen.makeEvent());

  // The controller survives; the switch dies. Detection is modelled with
  // the same latency budget the failover defaults give a controller death
  // (3 × 10 ms), after which the live controller reroutes around the node.
  const net::NodeId victim = pickCoreSwitch(rig.topo);
  const net::SimTime detection =
      cfg.heartbeatInterval * static_cast<net::SimTime>(cfg.missThreshold);
  rig.network->setNodeUp(victim, false);
  const net::SimTime killedAt = rig.sim.now();
  rig.sim.schedule(detection, [&] { rig.primary->onSwitchDown(victim); });

  (void)killedAt;
  LossNumbers n = probeLoss(rig, probes, 64 * net::kMillisecond);
  n.windowMs = static_cast<double>(detection) / net::kMillisecond;
  return n;
}

}  // namespace

int main() {
  using namespace pleroma::bench;

  BenchTable bench("failover_window", "Controller failover window",
                   "controller death under the HA layer: event-loss window vs "
                   "heartbeat interval x detection threshold (10% lossy "
                   "deployment, 24 subscriptions, testbed fat-tree), plus "
                   "event loss across death modes (controller death with "
                   "fail-soft vs core-switch death)");
  bench.meta("seed", static_cast<std::int64_t>(kSeed));
  bench.meta("topology", "testbed_fat_tree");
  bench.meta("workload", "uniform_24_subscriptions_lossy_channel");

  bench.beginSeries("window_sweep", {{"hb_ms", "ms"},
                                     {"miss_threshold", "count"},
                                     {"detect_ms", "ms"},
                                     {"window_ms", "ms"},
                                     {"repair_mods", "mods"},
                                     {"entries_surviving", "flows"},
                                     {"buffered", "events"},
                                     {"replayed", "events"},
                                     {"dropped_buffer_full", "events"},
                                     {"probe_window_ms", "ms"}});
  const std::vector<net::SimTime> intervals =
      smokeMode() ? std::vector<net::SimTime>{2 * net::kMillisecond,
                                              10 * net::kMillisecond}
                  : std::vector<net::SimTime>{net::kMillisecond,
                                              2 * net::kMillisecond,
                                              5 * net::kMillisecond,
                                              10 * net::kMillisecond};
  const std::vector<int> thresholds = smokeMode() ? std::vector<int>{3}
                                                  : std::vector<int>{2, 3};
  for (const int th : thresholds) {
    for (const net::SimTime hb : intervals) {
      const WindowNumbers n = runWindow(hb, th);
      bench.row({cell(static_cast<double>(hb) / net::kMillisecond, 0), th,
                 cell(n.detectMs, 1), cell(n.windowMs, 1), n.repairMods,
                 n.entriesSurviving, n.buffered, n.replayed,
                 n.droppedBufferFull, cell(n.probeWindowMs, 1)});
    }
  }

  bench.beginSeries("death_mode_loss", {{"scenario", ""},
                                        {"events_expected", "deliveries"},
                                        {"events_delivered", "deliveries"},
                                        {"events_lost", "deliveries"},
                                        {"window_ms", "ms"}});
  struct Mode {
    const char* name;
    LossNumbers n;
  };
  std::vector<Mode> modes;
  modes.push_back({"controller_death_clean_deploy", runControllerDeath(0.0)});
  modes.push_back(
      {"controller_death_lossy_deploy", runControllerDeath(kDeployDrop)});
  modes.push_back({"switch_death", runSwitchDeath(0.0)});
  for (const Mode& m : modes) {
    bench.row({m.name, m.n.expected, m.n.delivered, m.n.lost,
               cell(m.n.windowMs, 1)});
  }
  return 0;
}
