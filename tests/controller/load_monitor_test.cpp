// Tests for the overload-detection/reaction extension (Sec 8 future work):
// re-rooting trees and the LoadMonitor sampling + rebalancing loop.
#include "controller/load_monitor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "net/congestion.hpp"
#include "net/packet.hpp"

namespace pleroma::ctrl {
namespace {

dz::Rectangle rect(dz::AttributeValue aLo, dz::AttributeValue aHi) {
  return dz::Rectangle{{dz::Range{aLo, aHi}, dz::Range{0, 1023}}};
}

struct MonitorFixture : ::testing::Test {
  MonitorFixture()
      : topo(net::Topology::ring(8)),
        network(topo, sim, {}),
        controller(dz::EventSpace(2, 10), network, Scope::wholeTopology(topo), {}) {
    hosts = topo.hosts();
    network.setDeliverHandler([this](net::NodeId h, const net::Packet&) {
      delivered.insert(h);
    });
  }

  std::set<net::NodeId> publish(net::NodeId host, const dz::Event& e) {
    delivered.clear();
    network.sendFromHost(host, controller.makeEventPacket(host, e, 1));
    sim.run();
    return delivered;
  }

  net::Topology topo;
  net::Simulator sim;
  net::Network network;
  Controller controller;
  std::vector<net::NodeId> hosts;
  std::set<net::NodeId> delivered;
};

TEST_F(MonitorFixture, RerootPreservesDelivery) {
  controller.advertise(hosts[0], rect(0, 1023));
  controller.subscribe(hosts[3], rect(0, 511));
  controller.subscribe(hosts[6], rect(0, 511));
  ASSERT_EQ(publish(hosts[0], {100, 100}),
            (std::set<net::NodeId>{hosts[3], hosts[6]}));

  const int treeId = controller.trees()[0]->id();
  const net::NodeId oldRoot = controller.trees()[0]->root();
  // Re-root at the diametrically opposite switch.
  net::NodeId newRoot = net::kInvalidNode;
  for (const net::NodeId sw : topo.switches()) {
    if (sw != oldRoot) newRoot = sw;
  }
  ASSERT_TRUE(controller.rerootTree(treeId, newRoot));
  EXPECT_EQ(controller.trees()[0]->root(), newRoot);
  EXPECT_NE(controller.trees()[0]->id(), treeId);  // rebuilt as a new tree

  // Same DZ, same publishers, delivery unchanged.
  EXPECT_EQ(publish(hosts[0], {100, 100}),
            (std::set<net::NodeId>{hosts[3], hosts[6]}));
  EXPECT_TRUE(publish(hosts[0], {900, 100}).empty());
}

TEST_F(MonitorFixture, RerootOntoTheSameTreeLeavesItInPlace) {
  controller.advertise(hosts[0], rect(0, 1023));
  controller.subscribe(hosts[3], rect(0, 511));
  controller.subscribe(hosts[6], rect(0, 511));
  const int treeId = controller.trees()[0]->id();
  const std::uint64_t modsBefore = controller.controlStats().flowModsSent;
  const std::uint64_t rebuildsBefore = controller.stats().treeRebuilds;
  const std::uint64_t rerootsBefore = controller.stats().treeReroots;

  // Its own root and plain link latency give the tree already in place.
  ASSERT_TRUE(controller.rerootTree(treeId, controller.trees()[0]->root()));
  EXPECT_EQ(controller.trees()[0]->id(), treeId);
  EXPECT_EQ(controller.stats().treeRebuilds, rebuildsBefore);
  EXPECT_EQ(controller.stats().treeReroots, rerootsBefore + 1);
  EXPECT_EQ(controller.controlStats().flowModsSent, modsBefore);
  EXPECT_EQ(publish(hosts[0], {100, 100}),
            (std::set<net::NodeId>{hosts[3], hosts[6]}));
}

TEST_F(MonitorFixture, RerootRejectsUnknownTreeOrRoot) {
  controller.advertise(hosts[0], rect(0, 1023));
  EXPECT_FALSE(controller.rerootTree(9999, topo.switches()[0]));
  EXPECT_FALSE(controller.rerootTree(controller.trees()[0]->id(), hosts[0]));

  // A down switch has no active link: a tree rooted there reaches nothing.
  const net::NodeId dead = topo.switches()[4];
  network.setNodeUp(dead, false);
  controller.onSwitchDown(dead);
  const int treeId = controller.trees()[0]->id();
  EXPECT_FALSE(controller.rerootTree(treeId, dead));
  EXPECT_EQ(controller.trees()[0]->id(), treeId);
}

TEST_F(MonitorFixture, RebalanceNeverRootsATreeAtADownSwitch) {
  controller.advertise(hosts[0], rect(0, 1023));
  controller.subscribe(hosts[2], rect(0, 1023));
  controller.subscribe(hosts[3], rect(0, 1023));
  const std::set<net::NodeId> subscribers{hosts[2], hosts[3]};
  ASSERT_EQ(publish(hosts[0], {10, 10}), subscribers);

  // The switch the monitor would pick as the new root: the one whose links
  // carried the least traffic so far (first in scope order on a tie). No
  // subscriber hangs off it, and its neighbours stay connected without it.
  net::NodeId coldest = net::kInvalidNode;
  std::uint64_t coldestLoad = ~std::uint64_t{0};
  for (const net::NodeId sw : topo.switches()) {
    std::uint64_t load = 0;
    for (const auto& [port, link] : topo.portsOf(sw)) {
      load += network.linkCounters(link).packets;
    }
    if (load < coldestLoad) {
      coldestLoad = load;
      coldest = sw;
    }
  }
  ASSERT_NE(coldest, net::kInvalidNode);
  ASSERT_EQ(coldestLoad, 0u);
  network.setNodeUp(coldest, false);
  controller.onSwitchDown(coldest);
  ASSERT_EQ(publish(hosts[0], {10, 10}), subscribers);

  LoadMonitorConfig cfg;
  cfg.hotLinkThreshold = 0.0;  // any traffic is an overload
  cfg.rebalanceCooldown = 0;
  LoadMonitor monitor(controller, cfg);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 5; ++i) publish(hosts[0], {10, 10});
    ASSERT_TRUE(monitor.sample().overloaded);
    EXPECT_TRUE(monitor.rebalanceOnce()) << "round " << round;
    for (const SpanningTree* tree : controller.trees()) {
      EXPECT_NE(tree->root(), coldest) << "round " << round;
    }
    EXPECT_EQ(publish(hosts[0], {100, 100}), subscribers) << "round " << round;
  }
  EXPECT_EQ(monitor.rebalances(), 4u);
}

TEST_F(MonitorFixture, SampleMeasuresWindowDeltas) {
  controller.advertise(hosts[0], rect(0, 1023));
  controller.subscribe(hosts[4], rect(0, 1023));

  LoadMonitor monitor(controller);
  // Nothing has flowed yet.
  EXPECT_TRUE(monitor.sample().links.empty());

  for (int i = 0; i < 10; ++i) publish(hosts[0], {10, 10});
  const LoadReport report = monitor.sample();
  EXPECT_FALSE(report.links.empty());
  std::uint64_t total = 0;
  for (const auto& l : report.links) total += l.packetsInWindow;
  EXPECT_GE(total, 10u);
  // Second sample with no traffic: empty window again.
  EXPECT_TRUE(monitor.sample().links.empty());
}

TEST_F(MonitorFixture, HotLinkFlagsOverload) {
  controller.advertise(hosts[0], rect(0, 1023));
  controller.subscribe(hosts[1], rect(0, 1023));  // adjacent: 1-hop hot arc

  LoadMonitorConfig cfg;
  cfg.hotLinkThreshold = 0.5;  // any traffic counts as hot
  LoadMonitor monitor(controller, cfg);
  for (int i = 0; i < 5; ++i) publish(hosts[0], {10, 10});
  const LoadReport report = monitor.sample();
  EXPECT_TRUE(report.overloaded);
  EXPECT_FALSE(report.links.empty());
}

TEST_F(MonitorFixture, RebalanceRerootsBusiestTree) {
  controller.advertise(hosts[0], rect(0, 1023));
  controller.subscribe(hosts[3], rect(0, 1023));
  controller.subscribe(hosts[5], rect(0, 1023));

  LoadMonitorConfig cfg;
  cfg.hotLinkThreshold = 0.0;  // always consider the top link hot
  LoadMonitor monitor(controller, cfg);
  for (int i = 0; i < 20; ++i) publish(hosts[0], {10, 10});
  const LoadReport report = monitor.sample();
  ASSERT_TRUE(report.overloaded);

  const int oldTreeId = controller.trees()[0]->id();
  EXPECT_TRUE(monitor.rebalanceOnce());
  EXPECT_NE(controller.trees()[0]->id(), oldTreeId);

  // Delivery is intact after rebalancing.
  EXPECT_EQ(publish(hosts[0], {100, 100}),
            (std::set<net::NodeId>{hosts[3], hosts[5]}));
}

// Congestion-attached loop (DESIGN.md §15): finite 1 Mbps links (512us
// per 64-byte packet) on an 8-ring, with one interior link given a tiny
// queue so a single burst overloads exactly that link. Every other link
// keeps the legacy contention-free model, so raw packet rates stay
// balanced and only the CongestionMonitor's EWMA can flag the hotspot.
struct CongestedMonitorFixture : ::testing::Test {
  CongestedMonitorFixture()
      : topo(net::Topology::ring(8, 100 * net::kMicrosecond, 1.0e6)),
        network(topo, sim, {}),
        controller(dz::EventSpace(2, 10), network, Scope::wholeTopology(topo),
                   {}),
        congestion(network) {
    hosts = topo.hosts();
    network.setDeliverHandler([this](net::NodeId h, const net::Packet&) {
      delivered.insert(h);
    });
    controller.advertise(hosts[0], rect(0, 1023));
    controller.subscribe(hosts[3], rect(0, 1023));
    // The embedded path runs the short arc s0-s1-s2-s3; cap its last hop.
    const auto sw = topo.switches();
    hot = linkBetween(sw[2], sw[3]);
    network.setLinkQueueCapacity(hot, 2);
  }

  net::LinkId linkBetween(net::NodeId a, net::NodeId b) const {
    for (net::LinkId l = 0; l < topo.linkCount(); ++l) {
      const net::Link& link = topo.link(l);
      if ((link.a.node == a && link.b.node == b) ||
          (link.a.node == b && link.b.node == a)) {
        return l;
      }
    }
    return net::kInvalidLink;
  }

  /// Ten copies cross the contention-free arc as a block and hit the hot
  /// link together: 2 queue, 8 drop with DropReason::kLinkQueue.
  void congestHotLink() {
    for (int i = 0; i < 10; ++i) {
      network.sendFromHost(hosts[0],
                           controller.makeEventPacket(hosts[0], {10, 10}, i + 1));
    }
    sim.run();
    ASSERT_EQ(network.counters().dropped(net::DropReason::kLinkQueue), 8u);
  }

  std::set<net::NodeId> publish(net::NodeId host, const dz::Event& e) {
    delivered.clear();
    network.sendFromHost(host, controller.makeEventPacket(host, e, 1));
    sim.run();
    return delivered;
  }

  LoadMonitorConfig congestionOnlyConfig() const {
    LoadMonitorConfig cfg;
    cfg.hotLinkThreshold = 1.0e9;  // the packet-rate detector can never fire
    cfg.congestionScoreThreshold = 5.0;
    return cfg;
  }

  net::Topology topo;
  net::Simulator sim;
  net::Network network;
  Controller controller;
  net::CongestionMonitor congestion;
  std::vector<net::NodeId> hosts;
  net::LinkId hot = net::kInvalidLink;
  std::set<net::NodeId> delivered;
};

TEST_F(CongestedMonitorFixture, CongestionFlagsOverloadDespiteBalancedRates) {
  LoadMonitor withCongestion(controller, congestionOnlyConfig());
  withCongestion.attachCongestion(&congestion);
  LoadMonitor ratesOnly(controller, congestionOnlyConfig());

  congestHotLink();
  congestion.sampleOnce();

  // Raw rates are balanced (one burst everywhere), so the rate-only view
  // sees nothing; the congestion-attached view pins the scored link.
  EXPECT_FALSE(ratesOnly.sample().overloaded);
  const LoadReport report = withCongestion.sample();
  EXPECT_TRUE(report.overloaded);
  ASSERT_FALSE(report.links.empty());
  EXPECT_EQ(report.links.front().link, hot);
}

TEST_F(CongestedMonitorFixture, CongestionRerootSteersTreeOffHotLink) {
  LoadMonitor monitor(controller, congestionOnlyConfig());
  monitor.attachCongestion(&congestion);

  congestHotLink();
  congestion.sampleOnce();
  ASSERT_TRUE(monitor.sample().overloaded);

  const int oldTreeId = controller.trees()[0]->id();
  EXPECT_TRUE(monitor.rebalanceOnce());
  EXPECT_EQ(monitor.rebalances(), 1u);
  EXPECT_NE(controller.trees()[0]->id(), oldTreeId);

  // The congestion-weighted rebuild (latency x ~9 on the hot link) must
  // route around it: on a ring the tree omits exactly one link, and with
  // the inflation that is the hot one.
  const auto edges = controller.trees()[0]->edges();
  EXPECT_EQ(std::find(edges.begin(), edges.end(), hot), edges.end());
  EXPECT_EQ(publish(hosts[0], {100, 100}), (std::set<net::NodeId>{hosts[3]}));
}

TEST_F(CongestedMonitorFixture, CooldownPreventsRerootPingPong) {
  LoadMonitorConfig cfg = congestionOnlyConfig();
  cfg.rebalanceCooldown = 2;
  LoadMonitor monitor(controller, cfg);
  monitor.attachCongestion(&congestion);

  congestHotLink();
  congestion.sampleOnce();
  ASSERT_TRUE(monitor.sample().overloaded);
  ASSERT_TRUE(monitor.rebalanceOnce());

  // The vacated link's EWMA stays above threshold for several windows;
  // the cooldown declines to react to that stale score.
  EXPECT_FALSE(monitor.rebalanceOnce());
  EXPECT_TRUE(monitor.sample().overloaded);
  EXPECT_FALSE(monitor.rebalanceOnce());
  monitor.sample();

  // Cooldown expired, the link still scores hot — but no tree crosses it
  // any more, so the loop has converged instead of ping-ponging.
  EXPECT_FALSE(monitor.rebalanceOnce());
  EXPECT_EQ(monitor.rebalances(), 1u);
}

TEST_F(MonitorFixture, RebalanceNoOpWithoutOverload) {
  controller.advertise(hosts[0], rect(0, 1023));
  LoadMonitor monitor(controller);
  monitor.sample();  // empty window, not overloaded
  EXPECT_FALSE(monitor.rebalanceOnce());
}

}  // namespace
}  // namespace pleroma::ctrl
