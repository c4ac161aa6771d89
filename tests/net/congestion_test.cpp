// Finite link transmit queues, backpressure, and the congestion monitor
// (DESIGN.md §15): serialization ordering on a busy link, capacity
// overflow accounting (DropReason::kLinkQueue), the per-link capacity
// override, park/retry/resume under backpressure, bounded park buffers
// (DropReason::kBackpressure), the conservation identity at quiescence,
// and the EWMA sampling loop.
#include "net/congestion.hpp"
#include "net/network.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace pleroma::net {
namespace {

dz::DzExpression dz(std::string_view s) { return *dz::DzExpression::fromString(s); }

FlowEntry entry(std::string_view dzStr, std::vector<FlowAction> actions) {
  FlowEntry e;
  const auto d = dz(dzStr);
  e.match = dz::dzToPrefix(d);
  e.priority = d.length();
  e.actions = std::move(actions);
  return e;
}

Packet eventPacket(std::string_view dzStr, NodeId fromHost) {
  Packet p;
  EventPayload& payload = p.mutablePayload();
  payload.eventDz = dz(dzStr);
  payload.publisherHost = fromHost;
  p.dst = dz::dzToAddress(payload.eventDz);
  p.src = hostAddress(fromHost);
  return p;
}

/// 64-byte default packets at 1 Mbps: 512us of serialization per packet.
constexpr double kBandwidthBps = 1.0e6;
constexpr SimTime kSerialization = 512 * kMicrosecond;

// h1 - R1 - R2 - h2 with finite bandwidth. Flows route dz=1* to h2. The
// interior R1->R2 link gets its queue capacity from each test (per-link
// override), so bursts from h1 reach R1 unqueued and contend only there.
struct CongestionQueueTest : ::testing::Test {
  CongestionQueueTest()
      : topo(Topology::line(2, 100 * kMicrosecond, kBandwidthBps)) {
    r1 = topo.switches()[0];
    r2 = topo.switches()[1];
    h1 = topo.hosts()[0];
    h2 = topo.hosts()[1];
    interior = topo.linkAt(r1, 1);
  }

  Network& makeNet(NetworkConfig cfg) {
    net = std::make_unique<Network>(topo, sim, cfg);
    net->flowTable(r1).insert(entry(
        "1", {{topo.link(interior).endOf(r1).port, std::nullopt}}));
    net->flowTable(r2).insert(
        entry("1", {{topo.hostAttachment(h2).switchPort, hostAddress(h2)}}));
    net->setDeliverHandler([this](NodeId, const Packet&) {
      deliveredAt.push_back(sim.now());
    });
    return *net;
  }

  void burst(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      net->sendFromHost(h1, eventPacket("101", h1));
    }
  }

  Topology topo;
  Simulator sim;
  std::unique_ptr<Network> net;
  NodeId r1, r2, h1, h2;
  LinkId interior;
  std::vector<SimTime> deliveredAt;
};

TEST_F(CongestionQueueTest, QueuedPacketsSerializeBackToBack) {
  Network& n = makeNet({});
  n.setLinkQueueCapacity(interior, 4);
  burst(3);
  sim.run();

  ASSERT_EQ(deliveredAt.size(), 3u);
  // The three copies contend only on R1->R2: each delivery is one more
  // serialization time behind the previous one.
  EXPECT_EQ(deliveredAt[1] - deliveredAt[0], kSerialization);
  EXPECT_EQ(deliveredAt[2] - deliveredAt[1], kSerialization);
  EXPECT_EQ(n.counters().totalDropped(), 0u);
  EXPECT_EQ(n.peakLinkQueueDepth(interior), 3u);
  EXPECT_EQ(n.linkQueueDepth(interior), 0u);  // drained at quiescence
}

TEST_F(CongestionQueueTest, OverflowDropsAreCountedPerReason) {
  Network& n = makeNet({});
  n.setLinkQueueCapacity(interior, 2);
  burst(6);
  sim.run();

  EXPECT_EQ(deliveredAt.size(), 2u);
  EXPECT_EQ(n.counters().dropped(DropReason::kLinkQueue), 4u);
  EXPECT_EQ(n.counters().totalDropped(), 4u);
  EXPECT_EQ(n.linkCounters(interior).queueDrops, 4u);
  EXPECT_EQ(n.peakLinkQueueDepth(interior), 2u);
  EXPECT_EQ(n.stats().peakLinkQueueDepth, 2u);
}

TEST_F(CongestionQueueTest, ZeroCapacityKeepsContentionFreeLinks) {
  makeNet({});  // capacity 0 everywhere: the legacy model
  burst(6);
  sim.run();

  ASSERT_EQ(deliveredAt.size(), 6u);
  // Every copy propagates independently: identical delivery instants.
  for (const SimTime t : deliveredAt) EXPECT_EQ(t, deliveredAt[0]);
  EXPECT_EQ(net->counters().totalDropped(), 0u);
  EXPECT_EQ(net->peakLinkQueueDepth(interior), 0u);
}

TEST_F(CongestionQueueTest, ConfigCapacityAppliesToEveryLink) {
  NetworkConfig cfg;
  cfg.linkQueueCapacity = 1;
  makeNet(cfg);
  burst(4);  // contends already on the h1->R1 access link
  sim.run();

  EXPECT_EQ(deliveredAt.size(), 1u);
  EXPECT_EQ(net->counters().dropped(DropReason::kLinkQueue), 3u);
  // Override back to the legacy model on the access link only: bursts
  // then contend (and drop) at R1->R2 instead.
  deliveredAt.clear();
  const Topology::Attachment att = topo.hostAttachment(h1);
  const LinkId access = topo.linkAt(att.switchNode, att.switchPort);
  net->setLinkQueueCapacity(access, 0);
  burst(4);
  sim.run();
  EXPECT_EQ(deliveredAt.size(), 1u);
  EXPECT_EQ(net->linkCounters(interior).queueDrops, 3u);
}

TEST_F(CongestionQueueTest, StatsGaugeSeesStandingQueue) {
  Network& n = makeNet({});
  n.setLinkQueueCapacity(interior, 4);
  burst(4);
  // The copies cross the contention-free access link together (one
  // serialization + latency) and land in the R1->R2 queue as a block;
  // probe mid-way through the head copy's transmission.
  sim.runUntil(sim.now() + kSerialization + 100 * kMicrosecond +
               kSerialization / 2);
  EXPECT_GE(n.stats().linkQueued, 3u);
  EXPECT_EQ(n.linkQueueDepth(interior), n.stats().linkQueued);
  sim.run();
  EXPECT_EQ(n.stats().linkQueued, 0u);
}

struct BackpressureTest : CongestionQueueTest {};

TEST_F(BackpressureTest, ParksRetriesAndDeliversEverything) {
  NetworkConfig cfg;
  cfg.backpressure = true;
  Network& n = makeNet(cfg);
  n.setLinkQueueCapacity(interior, 1);
  burst(4);
  sim.run();

  ASSERT_EQ(deliveredAt.size(), 4u);
  EXPECT_EQ(n.counters().totalDropped(), 0u);
  EXPECT_GE(n.counters().packetsParkedOnBackpressure, 3u);
  EXPECT_EQ(n.counters().packetsResumedFromBackpressure,
            n.counters().packetsParkedOnBackpressure);
  EXPECT_GE(n.counters().backpressureRetries, 1u);
  EXPECT_EQ(n.backpressureParkedPackets(), 0u);
  // Parked copies resume in FIFO order: deliveries stay monotone.
  for (std::size_t i = 1; i < deliveredAt.size(); ++i) {
    EXPECT_GT(deliveredAt[i], deliveredAt[i - 1]);
  }
}

TEST_F(BackpressureTest, BoundedParkBufferDropsBeyondCapacity) {
  NetworkConfig cfg;
  cfg.backpressure = true;
  cfg.backpressureBufferCapacity = 2;
  Network& n = makeNet(cfg);
  n.setLinkQueueCapacity(interior, 1);
  burst(8);
  sim.run();

  EXPECT_EQ(deliveredAt.size(), 3u);  // 1 on the wire + 2 parked
  EXPECT_EQ(n.counters().dropped(DropReason::kBackpressure), 5u);
  EXPECT_EQ(n.counters().dropped(DropReason::kLinkQueue), 0u);
  EXPECT_EQ(n.linkCounters(interior).queueDrops, 5u);
}

TEST_F(BackpressureTest, CountersConserveAtQuiescence) {
  NetworkConfig cfg;
  cfg.backpressure = true;
  cfg.backpressureBufferCapacity = 2;
  Network& n = makeNet(cfg);
  n.setLinkQueueCapacity(interior, 1);
  burst(8);
  sim.run();

  const NetworkCounters& c = n.counters();
  EXPECT_EQ(c.packetsSentFromHosts + c.packetsInjectedByController +
                c.packetsForwarded,
            c.packetsDeliveredToHosts + c.packetsPuntedToController +
                c.packetsConsumedAtSwitch + c.totalDropped() +
                n.missBufferedPackets() + n.backpressureParkedPackets());
}

struct CongestionMonitorTest : CongestionQueueTest {};

TEST_F(CongestionMonitorTest, EwmaRisesOnStandingQueueAndDecaysWhenIdle) {
  Network& n = makeNet({});
  n.setLinkQueueCapacity(interior, 8);
  CongestionConfig cc;
  cc.ewmaAlpha = 0.5;
  CongestionMonitor monitor(n, cc);

  burst(6);
  sim.runUntil(sim.now() + kSerialization + 100 * kMicrosecond +
               kSerialization / 2);
  const double hot = monitor.sampleOnce();
  EXPECT_GT(hot, 0.0);
  EXPECT_GT(monitor.score(interior), 0.0);
  EXPECT_DOUBLE_EQ(monitor.maxScore(), monitor.score(interior));

  sim.run();  // drain
  double score = monitor.score(interior);
  for (int i = 0; i < 6; ++i) {
    monitor.sampleOnce();
    EXPECT_LT(monitor.score(interior), score);
    score = monitor.score(interior);
  }
  EXPECT_LT(score, 0.1);
}

TEST_F(CongestionMonitorTest, DropsWeighHeavierThanDepth) {
  Network& n = makeNet({});
  n.setLinkQueueCapacity(interior, 1);
  CongestionMonitor monitor(n);
  burst(6);  // 5 overflow drops
  sim.run();
  const double hot = monitor.sampleOnce();
  // kDropWeight (10) * 5 drops dominates any depth contribution.
  EXPECT_GE(hot, CongestionMonitor::kDropWeight * 5 * monitor.config().ewmaAlpha);
}

TEST_F(CongestionMonitorTest, PeriodicSamplingIsPausableAndCounted) {
  Network& n = makeNet({});
  CongestionConfig cc;
  cc.sampleInterval = 100 * kMicrosecond;
  CongestionMonitor monitor(n, cc);
  monitor.startPeriodic();
  sim.runUntil(sim.now() + kMillisecond + kMicrosecond);
  EXPECT_EQ(monitor.samplesTaken(), 10u);
  monitor.stop();
  sim.run();  // the armed tick fires once as a no-op and the queue drains
  EXPECT_EQ(monitor.samplesTaken(), 10u);
}

}  // namespace
}  // namespace pleroma::net
