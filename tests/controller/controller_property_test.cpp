// Property-based test of the controller's central correctness guarantee
// (Sec 2-3): after ANY sequence of (un)advertise / (un)subscribe
// operations, an event e published by p is delivered to host h
//   * ALWAYS when some subscription at h and p's advertisement both overlap
//     dz(e)   (no false negatives), and
//   * ONLY when some subscription at h overlaps dz(e)   (false positives
//     come solely from dz truncation, never from stale flows), and
//   * at most once (tree-disjointness + ingress suppression prevent
//     duplicate delivery).
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <vector>

#include "controller/controller.hpp"
#include "dz/ip_encoding.hpp"
#include "workload/workload.hpp"

namespace pleroma::ctrl {
namespace {

struct LiveSub {
  SubscriptionId id;
  net::NodeId host;
  dz::DzSet dz;
};
struct LivePub {
  PublisherId id;
  net::NodeId host;
  dz::DzSet dz;
};

/// Switch `sw`'s table forwards like the registry's required flows: the
/// same hit or miss and the same actions at every probe, at the match
/// address of every entry of either table (the boundaries of the
/// forwarding function) and at `probes`.
void expectForwardsLikeRegistry(const Controller& controller,
                                const net::Network& network, net::NodeId sw,
                                std::vector<dz::Ipv6Address> probes, int step) {
  net::FlowTable expected;
  for (const auto& e : controller.registry().requiredFlows(sw)) {
    ASSERT_TRUE(expected.insert(e));
  }
  const net::FlowTable& table = network.flowTable(sw);
  for (const auto& entry : table.entries()) probes.push_back(entry.match.address);
  for (const auto& entry : expected.entries()) {
    probes.push_back(entry.match.address);
  }
  const auto byPort = [](const net::FlowEntry& e) {
    std::vector<net::FlowAction> actions(e.actions.begin(), e.actions.end());
    std::sort(actions.begin(), actions.end(),
              [](const auto& a, const auto& b) { return a.port < b.port; });
    return actions;
  };
  for (const auto probe : probes) {
    const net::FlowEntry* actual = table.lookup(probe);
    const net::FlowEntry* required = expected.lookup(probe);
    ASSERT_EQ(actual == nullptr, required == nullptr)
        << "switch " << sw << " step " << step;
    if (actual == nullptr) continue;
    ASSERT_TRUE(byPort(*actual) == byPort(*required))
        << "switch " << sw << " step " << step;
  }
}

/// Whether the switches of `scope` outside `deadSwitches` are connected
/// over its internal links outside `deadLinks`.
bool connected(const net::Topology& topo, const Scope& scope,
               const std::set<net::LinkId>& deadLinks,
               const std::set<net::NodeId>& deadSwitches) {
  std::vector<net::NodeId> up;
  for (const net::NodeId s : scope.switches) {
    if (!deadSwitches.contains(s)) up.push_back(s);
  }
  if (up.empty()) return false;
  std::set<net::NodeId> seen{up.front()};
  std::vector<net::NodeId> stack{up.front()};
  while (!stack.empty()) {
    const net::NodeId at = stack.back();
    stack.pop_back();
    for (const net::LinkId l : scope.internalLinks) {
      const net::Link& ln = topo.link(l);
      if (deadLinks.contains(l)) continue;
      if (ln.a.node != at && ln.b.node != at) continue;
      const net::NodeId next = ln.a.node == at ? ln.b.node : ln.a.node;
      if (!deadSwitches.contains(next) && seen.insert(next).second) {
        stack.push_back(next);
      }
    }
  }
  return seen.size() == up.size();
}

class ControllerPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ControllerPropertyTest, DeliveryInvariantUnderRandomOps) {
  const std::uint64_t seed = GetParam();
  net::Topology topo = net::Topology::testbedFatTree();
  net::Simulator sim;
  net::Network network(topo, sim, {});
  ControllerConfig cfg;
  cfg.maxDzLength = 8;
  cfg.maxCellsPerRequest = 6;
  cfg.maxTrees = 4;  // force merges to happen during the run
  Controller controller(dz::EventSpace(2, 10), network,
                        Scope::wholeTopology(topo), cfg);

  std::vector<std::pair<net::NodeId, net::EventId>> deliveries;
  network.setDeliverHandler([&](net::NodeId host, const net::Packet& pkt) {
    deliveries.emplace_back(host, pkt.eventId());
  });

  workload::WorkloadConfig wcfg;
  wcfg.numAttributes = 2;
  wcfg.subscriptionSelectivity = 0.25;
  wcfg.seed = seed;
  workload::WorkloadGenerator gen(wcfg);
  util::Rng& rng = gen.rng();

  const auto hosts = topo.hosts();
  std::vector<LiveSub> subs;
  std::vector<LivePub> pubs;

  auto randomHost = [&] {
    return hosts[rng.uniformInt(0, hosts.size() - 1)];
  };

  auto checkPublish = [&](const LivePub& pub) {
    const dz::Event e = gen.makeEvent();
    const dz::DzExpression eDz = controller.stampEvent(e);
    deliveries.clear();
    network.sendFromHost(pub.host, controller.makeEventPacket(pub.host, e, 7));
    sim.run();

    std::set<net::NodeId> got;
    for (const auto& [h, id] : deliveries) {
      EXPECT_TRUE(got.insert(h).second) << "duplicate delivery to host " << h;
    }

    const bool pubCovers = pub.dz.overlaps(eDz);
    for (const LiveSub& s : subs) {
      const bool subCovers = s.dz.overlaps(eDz);
      if (subCovers && pubCovers && s.host != pub.host) {
        EXPECT_TRUE(got.contains(s.host))
            << "false negative: host " << s.host << " sub " << s.dz.toString()
            << " pub " << pub.dz.toString() << " event dz " << eDz.toString();
      }
    }
    for (const net::NodeId h : got) {
      bool anySubCovers = false;
      for (const LiveSub& s : subs) {
        if (s.host == h && s.dz.overlaps(eDz)) {
          anySubCovers = true;
          break;
        }
      }
      EXPECT_TRUE(anySubCovers)
          << "spurious delivery to host " << h << " event dz " << eDz.toString();
    }
  };

  for (int step = 0; step < 120; ++step) {
    const auto dice = rng.uniformInt(0, 99);
    if (dice < 30 || pubs.empty()) {
      const net::NodeId h = randomHost();
      const PublisherId id = controller.advertise(h, gen.makeAdvertisement());
      pubs.push_back(LivePub{id, h, controller.advertisementDz(id)});
    } else if (dice < 65) {
      const net::NodeId h = randomHost();
      const SubscriptionId id = controller.subscribe(h, gen.makeSubscription());
      subs.push_back(LiveSub{id, h, controller.subscriptionDz(id)});
    } else if (dice < 80 && !subs.empty()) {
      const std::size_t victim = rng.uniformInt(0, subs.size() - 1);
      controller.unsubscribe(subs[victim].id);
      subs.erase(subs.begin() + static_cast<std::ptrdiff_t>(victim));
    } else if (!pubs.empty()) {
      const std::size_t victim = rng.uniformInt(0, pubs.size() - 1);
      controller.unadvertise(pubs[victim].id);
      pubs.erase(pubs.begin() + static_cast<std::ptrdiff_t>(victim));
    }

    // Structural invariant: tree DZ sets pairwise disjoint.
    const auto trees = controller.trees();
    for (std::size_t i = 0; i < trees.size(); ++i) {
      for (std::size_t j = i + 1; j < trees.size(); ++j) {
        ASSERT_FALSE(trees[i]->dzSet().overlaps(trees[j]->dzSet()))
            << "step " << step;
      }
    }
    ASSERT_LE(controller.treeCount(), cfg.maxTrees);

    // Behavioural invariant: a few random publications.
    if (!pubs.empty() && step % 3 == 0) {
      for (int k = 0; k < 3; ++k) {
        checkPublish(pubs[rng.uniformInt(0, pubs.size() - 1)]);
      }
    }
  }
}

TEST_P(ControllerPropertyTest, FlowCountBoundedByRegistry) {
  // The number of flows on any switch never exceeds the number of distinct
  // (dz, switch) contributions — no flow-table leaks across churn.
  const std::uint64_t seed = GetParam();
  net::Topology topo = net::Topology::testbedFatTree();
  net::Simulator sim;
  net::Network network(topo, sim, {});
  ControllerConfig cfg;
  cfg.maxDzLength = 8;
  Controller controller(dz::EventSpace(2, 10), network,
                        Scope::wholeTopology(topo), cfg);

  workload::WorkloadConfig wcfg;
  wcfg.numAttributes = 2;
  wcfg.seed = seed + 1000;
  workload::WorkloadGenerator gen(wcfg);
  util::Rng& rng = gen.rng();
  const auto hosts = topo.hosts();

  std::vector<SubscriptionId> subs;
  std::vector<PublisherId> pubs;
  for (int step = 0; step < 60; ++step) {
    const auto dice = rng.uniformInt(0, 9);
    if (dice < 3) {
      pubs.push_back(controller.advertise(hosts[rng.uniformInt(0, hosts.size() - 1)],
                                          gen.makeAdvertisement()));
    } else if (dice < 7) {
      subs.push_back(controller.subscribe(hosts[rng.uniformInt(0, hosts.size() - 1)],
                                          gen.makeSubscription()));
    } else if (dice < 9 && !subs.empty()) {
      controller.unsubscribe(subs.back());
      subs.pop_back();
    } else if (!pubs.empty()) {
      controller.unadvertise(pubs.back());
      pubs.pop_back();
    }
  }
  // Drain everything: all switch tables must become empty (no leaks).
  for (const SubscriptionId s : subs) controller.unsubscribe(s);
  for (const PublisherId p : pubs) controller.unadvertise(p);
  for (const net::NodeId sw : topo.switches()) {
    EXPECT_TRUE(network.flowTable(sw).empty()) << "leaked flows on " << sw;
  }
  EXPECT_EQ(controller.registry().size(), 0u);
  EXPECT_EQ(controller.treeCount(), 0u);
}

TEST_P(ControllerPropertyTest, TablesSemanticallyMatchRequiredFlows) {
  // After arbitrary churn, every switch's installed table must route each
  // relevant destination address to exactly the ports (and rewrites) the
  // path registry's canonical required-flow computation routes it to — i.e.
  // the incremental Algorithm-1 installation and the reconcile-based
  // removal converge to the same forwarding function.
  const std::uint64_t seed = GetParam();
  net::Topology topo = net::Topology::testbedFatTree();
  net::Simulator sim;
  net::Network network(topo, sim, {});
  ControllerConfig cfg;
  cfg.maxDzLength = 8;
  cfg.maxCellsPerRequest = 6;
  Controller controller(dz::EventSpace(2, 10), network,
                        Scope::wholeTopology(topo), cfg);

  workload::WorkloadConfig wcfg;
  wcfg.numAttributes = 2;
  wcfg.subscriptionSelectivity = 0.3;
  wcfg.seed = seed + 5;
  workload::WorkloadGenerator gen(wcfg);
  util::Rng& rng = gen.rng();
  const auto hosts = topo.hosts();

  std::vector<SubscriptionId> subs;
  std::vector<PublisherId> pubs;
  for (int step = 0; step < 80; ++step) {
    const auto dice = rng.uniformInt(0, 9);
    const net::NodeId h = hosts[rng.uniformInt(0, hosts.size() - 1)];
    if (dice < 3 || pubs.empty()) {
      pubs.push_back(controller.advertise(h, gen.makeAdvertisement()));
    } else if (dice < 7) {
      subs.push_back(controller.subscribe(h, gen.makeSubscription()));
    } else if (dice < 9 && !subs.empty()) {
      const std::size_t v = rng.uniformInt(0, subs.size() - 1);
      controller.unsubscribe(subs[v]);
      subs.erase(subs.begin() + static_cast<std::ptrdiff_t>(v));
    } else if (!pubs.empty()) {
      const std::size_t v = rng.uniformInt(0, pubs.size() - 1);
      controller.unadvertise(pubs[v]);
      pubs.erase(pubs.begin() + static_cast<std::ptrdiff_t>(v));
    }

    if (step % 10 != 9) continue;
    for (const net::NodeId sw : topo.switches()) {
      std::vector<dz::Ipv6Address> probes;
      for (int r = 0; r < 20; ++r) {
        dz::U128 bits;
        for (int b = 0; b < 8; ++b) bits.setBitFromMsb(b, rng.chance(0.5));
        probes.push_back(dz::dzToAddress(dz::DzExpression(bits, 8)));
      }
      ASSERT_NO_FATAL_FAILURE(
          expectForwardsLikeRegistry(controller, network, sw, probes, step));
    }
  }
}

TEST_P(ControllerPropertyTest, DeliveryInvariantOnRandomTopology) {
  // Same invariant as above, but on an irregular random topology (random
  // spanning tree + chords) instead of the symmetric testbed fat-tree.
  const std::uint64_t seed = GetParam();
  net::Topology topo = net::Topology::randomConnected(9, 4, seed);
  net::Simulator sim;
  net::Network network(topo, sim, {});
  ControllerConfig cfg;
  cfg.maxDzLength = 8;
  cfg.maxCellsPerRequest = 6;
  cfg.maxTrees = 5;
  Controller controller(dz::EventSpace(2, 10), network,
                        Scope::wholeTopology(topo), cfg);

  std::set<net::NodeId> got;
  network.setDeliverHandler(
      [&](net::NodeId host, const net::Packet&) { got.insert(host); });

  workload::WorkloadConfig wcfg;
  wcfg.numAttributes = 2;
  wcfg.subscriptionSelectivity = 0.3;
  wcfg.seed = seed * 31 + 1;
  workload::WorkloadGenerator gen(wcfg);
  util::Rng& rng = gen.rng();
  const auto hosts = topo.hosts();

  std::vector<LiveSub> subs;
  std::vector<LivePub> pubs;
  for (int step = 0; step < 60; ++step) {
    const auto dice = rng.uniformInt(0, 9);
    const net::NodeId h = hosts[rng.uniformInt(0, hosts.size() - 1)];
    if (dice < 3 || pubs.empty()) {
      const PublisherId id = controller.advertise(h, gen.makeAdvertisement());
      pubs.push_back(LivePub{id, h, controller.advertisementDz(id)});
    } else if (dice < 7) {
      const SubscriptionId id = controller.subscribe(h, gen.makeSubscription());
      subs.push_back(LiveSub{id, h, controller.subscriptionDz(id)});
    } else if (dice < 9 && !subs.empty()) {
      controller.unsubscribe(subs.back().id);
      subs.pop_back();
    } else if (!pubs.empty()) {
      controller.unadvertise(pubs.back().id);
      pubs.pop_back();
    }

    if (!pubs.empty() && step % 4 == 0) {
      const LivePub& pub = pubs[rng.uniformInt(0, pubs.size() - 1)];
      const dz::Event e = gen.makeEvent();
      const dz::DzExpression eDz = controller.stampEvent(e);
      got.clear();
      network.sendFromHost(pub.host, controller.makeEventPacket(pub.host, e, 1));
      sim.run();
      const bool pubCovers = pub.dz.overlaps(eDz);
      for (const LiveSub& s : subs) {
        if (s.dz.overlaps(eDz) && pubCovers && s.host != pub.host) {
          EXPECT_TRUE(got.contains(s.host))
              << "false negative on random topo, step " << step;
        }
      }
      for (const net::NodeId gh : got) {
        bool anySub = false;
        for (const LiveSub& s : subs) {
          if (s.host == gh && s.dz.overlaps(eDz)) anySub = true;
        }
        EXPECT_TRUE(anySub) << "spurious delivery on random topo, step " << step;
      }
    }
  }
}

TEST_P(ControllerPropertyTest, TablesAndDeliveryHoldThroughRebuilds) {
  // Registration churn mixed with every kind of tree rebuild: reroots to a
  // live switch (with and without congestion-shaped link costs), link and
  // switch failure and repair, and merges under a small tree limit. After
  // every operation each switch's table forwards exactly like the
  // registry's required flows, and publications from live switches keep
  // the delivery invariant. A failure or repair that would leave the live
  // switches disconnected is not injected: a tree spans one component.
  const std::uint64_t seed = GetParam();
  net::Topology topo = net::Topology::testbedFatTree();
  net::Simulator sim;
  net::Network network(topo, sim, {});
  ControllerConfig cfg;
  cfg.maxDzLength = 8;
  cfg.maxCellsPerRequest = 6;
  cfg.maxTrees = 2;  // merges happen
  const Scope scope = Scope::wholeTopology(topo);
  Controller controller(dz::EventSpace(2, 10), network, scope, cfg);

  std::map<net::NodeId, int> deliveries;
  network.setDeliverHandler(
      [&](net::NodeId host, const net::Packet&) { ++deliveries[host]; });

  workload::WorkloadConfig wcfg;
  wcfg.numAttributes = 2;
  wcfg.subscriptionSelectivity = 0.3;
  wcfg.advertisementWidthFactor = 1.5;  // narrow enough for several trees
  wcfg.seed = seed + 77;
  workload::WorkloadGenerator gen(wcfg);
  util::Rng& rng = gen.rng();
  const auto hosts = topo.hosts();

  std::vector<LiveSub> subs;
  std::vector<LivePub> pubs;
  std::set<net::LinkId> downLinks;
  std::set<net::NodeId> downSwitches;

  auto pick = [&](const auto& items) {
    auto it = items.begin();
    std::advance(it, rng.uniformInt(0, items.size() - 1));
    return *it;
  };
  auto live = [&](net::NodeId host) {
    return !downSwitches.contains(topo.hostAttachment(host).switchNode);
  };
  auto congestionCosts = [&] {
    std::vector<net::SimTime> costs;
    for (net::LinkId l = 0; l < topo.linkCount(); ++l) {
      const double score = rng.uniformInt(0, 100) / 100.0;
      costs.push_back(static_cast<net::SimTime>(
          static_cast<double>(topo.link(l).latency) * (1.0 + 8.0 * score)));
    }
    return costs;
  };

  auto checkPublish = [&](const LivePub& pub, int step) {
    const dz::Event e = gen.makeEvent();
    const dz::DzExpression eDz = controller.stampEvent(e);
    deliveries.clear();
    network.sendFromHost(pub.host, controller.makeEventPacket(pub.host, e, 1));
    sim.run();
    for (const auto& [h, n] : deliveries) {
      EXPECT_EQ(n, 1) << "duplicate delivery to host " << h << " step " << step;
    }
    if (!pub.dz.overlaps(eDz)) return;
    for (const LiveSub& s : subs) {
      if (s.host == pub.host || !live(s.host) || !s.dz.overlaps(eDz)) continue;
      EXPECT_TRUE(deliveries.contains(s.host))
          << "false negative: host " << s.host << " sub " << s.dz.toString()
          << " pub " << pub.dz.toString() << " event dz " << eDz.toString()
          << " step " << step;
    }
  };

  for (int step = 0; step < 150; ++step) {
    const auto dice = rng.uniformInt(0, 99);
    const net::NodeId h = pick(hosts);
    if (dice < 16 || pubs.empty()) {
      const PublisherId id = controller.advertise(h, gen.makeAdvertisement());
      pubs.push_back(LivePub{id, h, controller.advertisementDz(id)});
    } else if (dice < 38) {
      const SubscriptionId id = controller.subscribe(h, gen.makeSubscription());
      subs.push_back(LiveSub{id, h, controller.subscriptionDz(id)});
    } else if (dice < 46 && !subs.empty()) {
      const std::size_t v = rng.uniformInt(0, subs.size() - 1);
      controller.unsubscribe(subs[v].id);
      subs.erase(subs.begin() + static_cast<std::ptrdiff_t>(v));
    } else if (dice < 52) {
      const std::size_t v = rng.uniformInt(0, pubs.size() - 1);
      controller.unadvertise(pubs[v].id);
      pubs.erase(pubs.begin() + static_cast<std::ptrdiff_t>(v));
    } else if (dice < 70 && controller.treeCount() > 0) {
      std::vector<net::NodeId> liveSwitches;
      for (const net::NodeId sw : scope.switches) {
        if (!downSwitches.contains(sw)) liveSwitches.push_back(sw);
      }
      const int treeId = pick(controller.trees())->id();
      const net::NodeId root = pick(liveSwitches);
      if (rng.chance(0.5)) {
        const std::vector<net::SimTime> costs = congestionCosts();
        ASSERT_TRUE(controller.rerootTree(treeId, root, &costs));
      } else {
        ASSERT_TRUE(controller.rerootTree(treeId, root));
      }
    } else if (dice < 78) {
      const net::LinkId l = pick(scope.internalLinks);
      std::set<net::LinkId> after = downLinks;
      if (!after.insert(l).second || !connected(topo, scope, after, downSwitches)) {
        continue;
      }
      downLinks = std::move(after);
      network.setLinkUp(l, false);
      controller.onLinkDown(l);
    } else if (dice < 84 && !downLinks.empty()) {
      const net::LinkId l = pick(downLinks);
      downLinks.erase(l);
      network.setLinkUp(l, true);
      controller.onLinkUp(l);
    } else if (dice < 92) {
      const net::NodeId sw = pick(scope.switches);
      std::set<net::NodeId> after = downSwitches;
      if (!after.insert(sw).second || !connected(topo, scope, downLinks, after)) {
        continue;
      }
      downSwitches = std::move(after);
      network.setNodeUp(sw, false);
      controller.onSwitchDown(sw);
    } else if (!downSwitches.empty()) {
      const net::NodeId sw = pick(downSwitches);
      std::set<net::NodeId> after = downSwitches;
      after.erase(sw);
      if (!connected(topo, scope, downLinks, after)) continue;
      downSwitches = std::move(after);
      network.setNodeUp(sw, true);
      controller.onSwitchUp(sw);
    }

    ASSERT_LE(controller.treeCount(), cfg.maxTrees) << "step " << step;
    for (const net::NodeId sw : topo.switches()) {
      ASSERT_NO_FATAL_FAILURE(
          expectForwardsLikeRegistry(controller, network, sw, {}, step));
    }
    std::vector<LivePub> livePubs;
    for (const LivePub& p : pubs) {
      if (live(p.host)) livePubs.push_back(p);
    }
    if (livePubs.empty()) continue;
    for (int k = 0; k < 2; ++k) checkPublish(pick(livePubs), step);
  }
  EXPECT_GT(controller.stats().treeMerges, 0u);
  EXPECT_GT(controller.stats().treeReroots, 0u);
}

/// The full recompute of what `sw` must hold, as the installer holds it:
/// the registry's required flows, on a coarsened switch truncated to its
/// length with the actions of entries that meet merged.
std::map<dz::DzExpression, net::FlowEntry> fullRecompute(const Controller& controller,
                                                         net::NodeId sw) {
  const int cap = controller.installer().coarsenLength(sw);
  std::map<dz::DzExpression, net::FlowEntry> out;
  for (const net::FlowEntry& e : controller.registry().requiredFlows(sw)) {
    const dz::DzExpression exact = *dz::prefixToDz(e.match);
    const dz::DzExpression d = cap < 0 ? exact : exact.truncated(cap);
    const auto [it, fresh] = out.try_emplace(d);
    if (fresh) {
      it->second.match = dz::dzToPrefix(d);
      it->second.priority = d.length();
    }
    for (const net::FlowAction& a : e.actions) {
      it->second.addOutPort(a.port, a.setDestination);
    }
  }
  return out;
}

TEST_P(ControllerPropertyTest, MirrorsEqualFullRecomputeAfterEveryOperation) {
  // Removals and rebuilds reconcile only the dz subtrees whose
  // contributions crossed zero. That is exact only while every mirror
  // stays canonical, so after every operation of a random mix — every
  // registration kind, reroots, link and switch failure and repair, tree
  // merges, with and without aggregation and a TCAM budget — each switch's
  // mirror must equal the full recompute entry for entry, and its table
  // must equal the mirror.
  const std::uint64_t seed = GetParam();
  for (const bool aggregate : {false, true}) {
    for (const std::size_t budget : {std::size_t{0}, std::size_t{12}}) {
      SCOPED_TRACE(::testing::Message() << "aggregate " << aggregate << " budget "
                                        << budget);
      net::Topology topo = net::Topology::testbedFatTree();
      net::Simulator sim;
      net::Network network(topo, sim, {});
      ControllerConfig cfg;
      cfg.maxDzLength = 8;
      cfg.maxCellsPerRequest = 6;
      cfg.maxTrees = 2;  // merges happen
      cfg.aggregateSubscriptions = aggregate;
      cfg.tcamBudget = budget;
      const Scope scope = Scope::wholeTopology(topo);
      Controller controller(dz::EventSpace(2, 10), network, scope, cfg);

      workload::WorkloadConfig wcfg;
      wcfg.numAttributes = 2;
      wcfg.subscriptionSelectivity = 0.3;
      wcfg.advertisementWidthFactor = 1.0;
      wcfg.seed = seed * 7 + (aggregate ? 1 : 0) + budget;
      workload::WorkloadGenerator gen(wcfg);
      util::Rng& rng = gen.rng();
      const auto hosts = topo.hosts();

      std::vector<SubscriptionId> subs;
      std::vector<PublisherId> pubs;
      std::set<net::LinkId> downLinks;
      std::set<net::NodeId> downSwitches;
      auto pick = [&](const auto& items) {
        auto it = items.begin();
        std::advance(it, rng.uniformInt(0, items.size() - 1));
        return *it;
      };

      for (int step = 0; step < 160; ++step) {
        const auto dice = rng.uniformInt(0, 99);
        const net::NodeId h = pick(hosts);
        if (dice < 18 || pubs.empty()) {
          pubs.push_back(controller.advertise(h, gen.makeAdvertisement()));
        } else if (dice < 42) {
          subs.push_back(controller.subscribe(h, gen.makeSubscription()));
        } else if (dice < 56 && !subs.empty()) {
          const std::size_t v = rng.uniformInt(0, subs.size() - 1);
          ASSERT_TRUE(controller.unsubscribe(subs[v]));
          subs.erase(subs.begin() + static_cast<std::ptrdiff_t>(v));
        } else if (dice < 62) {
          const std::size_t v = rng.uniformInt(0, pubs.size() - 1);
          ASSERT_TRUE(controller.unadvertise(pubs[v]));
          pubs.erase(pubs.begin() + static_cast<std::ptrdiff_t>(v));
        } else if (dice < 76 && controller.treeCount() > 0) {
          std::vector<net::NodeId> liveSwitches;
          for (const net::NodeId sw : scope.switches) {
            if (!downSwitches.contains(sw)) liveSwitches.push_back(sw);
          }
          ASSERT_TRUE(controller.rerootTree(pick(controller.trees())->id(),
                                            pick(liveSwitches)));
        } else if (dice < 82) {
          const net::LinkId l = pick(scope.internalLinks);
          std::set<net::LinkId> after = downLinks;
          if (!after.insert(l).second || !connected(topo, scope, after, downSwitches)) {
            continue;
          }
          downLinks = std::move(after);
          network.setLinkUp(l, false);
          controller.onLinkDown(l);
        } else if (dice < 87 && !downLinks.empty()) {
          const net::LinkId l = pick(downLinks);
          downLinks.erase(l);
          network.setLinkUp(l, true);
          controller.onLinkUp(l);
        } else if (dice < 94) {
          const net::NodeId sw = pick(scope.switches);
          std::set<net::NodeId> after = downSwitches;
          if (!after.insert(sw).second || !connected(topo, scope, downLinks, after)) {
            continue;
          }
          downSwitches = std::move(after);
          network.setNodeUp(sw, false);
          controller.onSwitchDown(sw);
        } else if (!downSwitches.empty()) {
          const net::NodeId sw = pick(downSwitches);
          std::set<net::NodeId> after = downSwitches;
          after.erase(sw);
          if (!connected(topo, scope, downLinks, after)) continue;
          downSwitches = std::move(after);
          network.setNodeUp(sw, true);
          controller.onSwitchUp(sw);
        }

        for (const net::NodeId sw : topo.switches()) {
          const auto& mirror = controller.installer().mirror(sw);
          ASSERT_TRUE(mirror == fullRecompute(controller, sw))
              << "switch " << sw << " step " << step;
          const net::FlowTable& table = network.flowTable(sw);
          ASSERT_EQ(table.size(), mirror.size()) << "switch " << sw << " step " << step;
          for (const auto& [d, entry] : mirror) {
            const net::FlowEntry* installed = table.find(entry.match);
            ASSERT_NE(installed, nullptr) << "switch " << sw << " step " << step;
            ASSERT_TRUE(*installed == entry) << "switch " << sw << " step " << step;
          }
        }
      }
      EXPECT_GT(controller.stats().treeMerges, 0u);
      EXPECT_GT(controller.stats().treeReroots, 0u);
      if (budget != 0) {
        EXPECT_GT(controller.installer().coarsenStats().events, 0u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ControllerPropertyTest,
                         ::testing::Values(7u, 21u, 101u, 2024u));

}  // namespace
}  // namespace pleroma::ctrl
