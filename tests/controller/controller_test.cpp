// Scenario tests of the PLEROMA controller: Algorithm 1 end to end against
// the simulated data plane.
#include "controller/controller.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace pleroma::ctrl {
namespace {

dz::DzSet set(std::string_view s) { return *dz::DzSet::fromString(s); }

struct ControllerFixture : ::testing::Test {
  explicit ControllerFixture(net::Topology t = net::Topology::testbedFatTree())
      : topo(std::move(t)), network(topo, sim, {}) {
    network.setDeliverHandler([this](net::NodeId host, const net::Packet& pkt) {
      delivered.emplace_back(host, pkt.eventId());
    });
  }

  Controller makeController(ControllerConfig cfg = {}) {
    return Controller(dz::EventSpace(2, 10), network,
                      Scope::wholeTopology(network.topology()), cfg);
  }

  /// Publishes and settles; returns the set of hosts that received it.
  std::set<net::NodeId> publish(Controller& c, net::NodeId host,
                                const dz::Event& e) {
    delivered.clear();
    network.sendFromHost(host, c.makeEventPacket(host, e, 1));
    sim.run();
    std::set<net::NodeId> hosts;
    for (const auto& [h, id] : delivered) hosts.insert(h);
    return hosts;
  }

  dz::Rectangle rect(dz::AttributeValue aLo, dz::AttributeValue aHi,
                     dz::AttributeValue bLo, dz::AttributeValue bHi) {
    return dz::Rectangle{{dz::Range{aLo, aHi}, dz::Range{bLo, bHi}}};
  }

  net::Topology topo;
  net::Simulator sim;
  net::Network network;
  std::vector<std::pair<net::NodeId, net::EventId>> delivered;
};

TEST_F(ControllerFixture, AdvertiseCreatesTree) {
  Controller c = makeController();
  const auto hosts = topo.hosts();
  c.advertise(hosts[0], rect(0, 511, 0, 1023));
  EXPECT_EQ(c.treeCount(), 1u);
  EXPECT_EQ(c.trees()[0]->dzSet(), set("0"));
  EXPECT_EQ(c.lastOpStats().treesCreated, 1);
}

TEST_F(ControllerFixture, EventDeliveredToMatchingSubscriber) {
  Controller c = makeController();
  const auto hosts = topo.hosts();
  c.advertise(hosts[0], rect(0, 1023, 0, 1023));
  c.subscribe(hosts[5], rect(0, 511, 0, 1023));

  EXPECT_EQ(publish(c, hosts[0], {100, 100}),
            (std::set<net::NodeId>{hosts[5]}));
  // Non-matching event is not delivered.
  EXPECT_TRUE(publish(c, hosts[0], {900, 100}).empty());
}

TEST_F(ControllerFixture, MultipleSubscribersShareEvent) {
  Controller c = makeController();
  const auto hosts = topo.hosts();
  c.advertise(hosts[0], rect(0, 1023, 0, 1023));
  c.subscribe(hosts[3], rect(0, 511, 0, 1023));
  c.subscribe(hosts[6], rect(0, 511, 0, 1023));
  c.subscribe(hosts[7], rect(512, 1023, 0, 1023));

  EXPECT_EQ(publish(c, hosts[0], {10, 10}),
            (std::set<net::NodeId>{hosts[3], hosts[6]}));
  EXPECT_EQ(publish(c, hosts[0], {800, 10}),
            (std::set<net::NodeId>{hosts[7]}));
}

TEST_F(ControllerFixture, SubscriptionBeforeAdvertisementIsStored) {
  Controller c = makeController();
  const auto hosts = topo.hosts();
  // Subscription arrives first: no trees exist, it is only stored.
  c.subscribe(hosts[4], rect(0, 511, 0, 1023));
  EXPECT_EQ(c.treeCount(), 0u);
  EXPECT_EQ(c.registry().size(), 0u);
  // The advertisement connects it retroactively (addFlowMultSub).
  c.advertise(hosts[1], rect(0, 1023, 0, 1023));
  EXPECT_GT(c.registry().size(), 0u);
  EXPECT_EQ(publish(c, hosts[1], {100, 100}),
            (std::set<net::NodeId>{hosts[4]}));
}

TEST_F(ControllerFixture, PublisherJoinsExistingTreeWhenCovered) {
  Controller c = makeController();
  const auto hosts = topo.hosts();
  c.advertise(hosts[0], rect(0, 1023, 0, 1023));  // whole space: DZ {*}
  ASSERT_EQ(c.treeCount(), 1u);
  // Second advertisement fully covered by the existing tree's DZ: join, no
  // new tree (Algorithm 1 case 1).
  c.advertise(hosts[1], rect(0, 511, 0, 1023));
  EXPECT_EQ(c.treeCount(), 1u);
  EXPECT_EQ(c.lastOpStats().treesJoined, 1);
  EXPECT_EQ(c.lastOpStats().treesCreated, 0);
  // Both publishers reach a subscriber.
  c.subscribe(hosts[6], rect(0, 1023, 0, 1023));
  EXPECT_EQ(publish(c, hosts[0], {700, 3}), (std::set<net::NodeId>{hosts[6]}));
  EXPECT_EQ(publish(c, hosts[1], {100, 3}), (std::set<net::NodeId>{hosts[6]}));
}

TEST_F(ControllerFixture, UncoveredPartCreatesNewTree) {
  Controller c = makeController();
  const auto hosts = topo.hosts();
  // First tree carries only the lower half of dim 0 (dz 0).
  c.advertise(hosts[0], rect(0, 511, 0, 1023));
  ASSERT_EQ(c.treeCount(), 1u);
  // New advertisement covers the whole space: joins tree 0 for dz 0 and
  // creates a new tree for the uncovered dz 1 (Algorithm 1 case 2).
  c.advertise(hosts[1], rect(0, 1023, 0, 1023));
  EXPECT_EQ(c.treeCount(), 2u);
  EXPECT_EQ(c.lastOpStats().treesJoined, 1);
  EXPECT_EQ(c.lastOpStats().treesCreated, 1);
}

TEST_F(ControllerFixture, TreeDzSetsAlwaysDisjoint) {
  Controller c = makeController();
  const auto hosts = topo.hosts();
  c.advertise(hosts[0], rect(0, 511, 0, 511));
  c.advertise(hosts[1], rect(256, 767, 0, 1023));
  c.advertise(hosts[2], rect(0, 1023, 512, 1023));
  c.advertise(hosts[3], rect(100, 900, 100, 900));
  const auto trees = c.trees();
  for (std::size_t i = 0; i < trees.size(); ++i) {
    for (std::size_t j = i + 1; j < trees.size(); ++j) {
      EXPECT_FALSE(trees[i]->dzSet().overlaps(trees[j]->dzSet()))
          << trees[i]->dzSet().toString() << " vs "
          << trees[j]->dzSet().toString();
    }
  }
}

TEST_F(ControllerFixture, UnsubscribeStopsDelivery) {
  Controller c = makeController();
  const auto hosts = topo.hosts();
  c.advertise(hosts[0], rect(0, 1023, 0, 1023));
  const SubscriptionId s = c.subscribe(hosts[5], rect(0, 511, 0, 1023));
  ASSERT_EQ(publish(c, hosts[0], {100, 100}),
            (std::set<net::NodeId>{hosts[5]}));
  c.unsubscribe(s);
  EXPECT_TRUE(publish(c, hosts[0], {100, 100}).empty());
  EXPECT_EQ(c.registry().size(), 0u);
}

TEST_F(ControllerFixture, UnsubscribeKeepsOtherSubscribers) {
  Controller c = makeController();
  const auto hosts = topo.hosts();
  c.advertise(hosts[0], rect(0, 1023, 0, 1023));
  const SubscriptionId s1 = c.subscribe(hosts[5], rect(0, 511, 0, 1023));
  c.subscribe(hosts[6], rect(0, 255, 0, 1023));
  c.unsubscribe(s1);
  EXPECT_EQ(publish(c, hosts[0], {100, 100}),
            (std::set<net::NodeId>{hosts[6]}));
}

TEST_F(ControllerFixture, UnadvertiseRemovesTreesAndFlows) {
  Controller c = makeController();
  const auto hosts = topo.hosts();
  const PublisherId p = c.advertise(hosts[0], rect(0, 1023, 0, 1023));
  c.subscribe(hosts[5], rect(0, 511, 0, 1023));
  c.unadvertise(p);
  EXPECT_EQ(c.treeCount(), 0u);
  EXPECT_EQ(c.registry().size(), 0u);
  EXPECT_TRUE(publish(c, hosts[0], {100, 100}).empty());
  // All switch tables empty again.
  for (const net::NodeId sw : topo.switches()) {
    EXPECT_TRUE(network.flowTable(sw).empty()) << sw;
  }
}

TEST_F(ControllerFixture, UnadvertiseKeepsSharedTreeForOtherPublisher) {
  Controller c = makeController();
  const auto hosts = topo.hosts();
  const PublisherId p1 = c.advertise(hosts[0], rect(0, 1023, 0, 1023));
  c.advertise(hosts[1], rect(0, 511, 0, 1023));  // joins p1's tree
  c.subscribe(hosts[6], rect(0, 511, 0, 1023));
  c.unadvertise(p1);
  EXPECT_EQ(c.treeCount(), 1u);
  EXPECT_EQ(publish(c, hosts[1], {100, 100}),
            (std::set<net::NodeId>{hosts[6]}));
}

TEST_F(ControllerFixture, TreeMergeRespectsMaxTrees) {
  ControllerConfig cfg;
  cfg.maxTrees = 2;
  Controller c = makeController(cfg);
  const auto hosts = topo.hosts();
  // Disjoint quarter advertisements would create 4 trees without merging.
  c.advertise(hosts[0], rect(0, 255, 0, 1023));
  c.advertise(hosts[1], rect(256, 511, 0, 1023));
  c.advertise(hosts[2], rect(512, 767, 0, 1023));
  c.advertise(hosts[3], rect(768, 1023, 0, 1023));
  EXPECT_LE(c.treeCount(), 2u);
  // Deliveries still work after merging.
  c.subscribe(hosts[7], rect(0, 1023, 0, 1023));
  for (const int i : {0, 1, 2, 3}) {
    const dz::AttributeValue a = static_cast<dz::AttributeValue>(i * 256 + 10);
    EXPECT_EQ(publish(c, hosts[static_cast<std::size_t>(i)], {a, 50}),
              (std::set<net::NodeId>{hosts[7]}))
        << i;
  }
}

TEST_F(ControllerFixture, MergePreservesDisjointness) {
  ControllerConfig cfg;
  cfg.maxTrees = 3;
  Controller c = makeController(cfg);
  const auto hosts = topo.hosts();
  for (int i = 0; i < 8; ++i) {
    const auto lo = static_cast<dz::AttributeValue>(i * 128);
    c.advertise(hosts[static_cast<std::size_t>(i)],
                rect(lo, lo + 127, 0, 1023));
  }
  EXPECT_LE(c.treeCount(), 3u);
  const auto trees = c.trees();
  for (std::size_t i = 0; i < trees.size(); ++i) {
    for (std::size_t j = i + 1; j < trees.size(); ++j) {
      EXPECT_FALSE(trees[i]->dzSet().overlaps(trees[j]->dzSet()));
    }
  }
}

TEST_F(ControllerFixture, MergeWithCoarseningMayEnlarge) {
  ControllerConfig cfg;
  cfg.maxTrees = 1;
  Controller c = makeController(cfg);
  const auto hosts = topo.hosts();
  // Two disjoint dim0 quarters; with interleaved bits (dz[0], dz[2] from
  // dim0, dz[1] from dim1) they decompose to {000,010} and {100,110}.
  c.advertise(hosts[0], rect(0, 255, 0, 1023));    // DZ {000, 010}
  c.advertise(hosts[1], rect(512, 767, 0, 1023));  // DZ {100, 110}
  ASSERT_EQ(c.treeCount(), 1u);
  // With one tree there is nothing to clash with: coarsening may grow the
  // DZ up to the whole space, but it must remain a covering superset of
  // the advertised union.
  EXPECT_TRUE(c.trees()[0]->dzSet().coversSet(
      *dz::DzSet::fromString("000,010,100,110")));
  // Either way, delivery semantics are unchanged.
  c.subscribe(hosts[6], rect(0, 1023, 0, 1023));
  EXPECT_EQ(publish(c, hosts[0], {100, 5}), (std::set<net::NodeId>{hosts[6]}));
  EXPECT_EQ(publish(c, hosts[1], {600, 5}), (std::set<net::NodeId>{hosts[6]}));
  // Publishers do not gain subspaces they never advertised: an event from
  // hosts[0] outside its advertisement is not guaranteed delivery, but it
  // must never crash or loop.
  publish(c, hosts[0], {900, 5});
}

TEST_F(ControllerFixture, UnsubscribeOpStatsCountDeletes) {
  Controller c = makeController();
  const auto hosts = topo.hosts();
  c.advertise(hosts[0], rect(0, 1023, 0, 1023));
  const SubscriptionId s = c.subscribe(hosts[5], rect(0, 511, 0, 1023));
  c.unsubscribe(s);
  const OpStats& op = c.lastOpStats();
  EXPECT_GT(op.flowDeletes, 0u);
  EXPECT_EQ(op.totalFlowMods(), op.flowAdds + op.flowModifies + op.flowDeletes);
}

TEST_F(ControllerFixture, OpStatsCountFlowMods) {
  Controller c = makeController();
  const auto hosts = topo.hosts();
  c.advertise(hosts[0], rect(0, 1023, 0, 1023));
  c.subscribe(hosts[5], rect(0, 511, 0, 1023));
  const OpStats& op = c.lastOpStats();
  EXPECT_GT(op.flowAdds, 0u);
  EXPECT_GT(op.totalFlowMods(), 0u);
  EXPECT_GT(op.modeledInstallTime, 0);
}

TEST_F(ControllerFixture, StampEventTruncatesAtMaxDzLength) {
  ControllerConfig cfg;
  cfg.maxDzLength = 6;
  Controller c = makeController(cfg);
  EXPECT_EQ(c.stampEvent({1023, 1023}).length(), 6);
  EXPECT_EQ(c.effectiveMaxDzLength(), 6);
}

TEST_F(ControllerFixture, FalsePositivesOnlyFromTruncation) {
  // With a very short L_dz, non-matching events inside the same coarse cell
  // are delivered (false positives) but matching events always arrive.
  ControllerConfig cfg;
  cfg.maxDzLength = 2;
  Controller c = makeController(cfg);
  const auto hosts = topo.hosts();
  c.advertise(hosts[0], rect(0, 1023, 0, 1023));
  c.subscribe(hosts[5], rect(0, 100, 0, 100));
  // Matching event delivered.
  EXPECT_EQ(publish(c, hosts[0], {50, 50}), (std::set<net::NodeId>{hosts[5]}));
  // Event in the same dz-2 cell but outside the subscription: delivered as
  // a false positive (cannot be filtered at this granularity).
  EXPECT_EQ(publish(c, hosts[0], {400, 400}),
            (std::set<net::NodeId>{hosts[5]}));
  // Event in a different coarse cell: filtered in the network.
  EXPECT_TRUE(publish(c, hosts[0], {900, 900}).empty());
}

TEST_F(ControllerFixture, ReindexReroutesDelivery) {
  Controller c = makeController();
  const auto hosts = topo.hosts();
  c.advertise(hosts[0], rect(0, 1023, 0, 1023));
  c.subscribe(hosts[5], rect(0, 511, 0, 1023));  // constrains dim 0 only
  ASSERT_EQ(publish(c, hosts[0], {100, 700}),
            (std::set<net::NodeId>{hosts[5]}));
  // Re-index on dimension 0 only: delivery must still work.
  c.reindex({0});
  EXPECT_EQ(c.space().indexedDimensions(), std::vector<int>{0});
  EXPECT_EQ(publish(c, hosts[0], {100, 700}),
            (std::set<net::NodeId>{hosts[5]}));
  EXPECT_TRUE(publish(c, hosts[0], {900, 700}).empty());
}

TEST_F(ControllerFixture, ReindexOnUselessDimensionCausesFalsePositives) {
  Controller c = makeController();
  const auto hosts = topo.hosts();
  c.advertise(hosts[0], rect(0, 1023, 0, 1023));
  c.subscribe(hosts[5], rect(0, 511, 0, 1023));  // selective on dim 0
  // Indexing only dim 1 discards the subscription's selectivity.
  c.reindex({1});
  EXPECT_EQ(publish(c, hosts[0], {900, 100}),
            (std::set<net::NodeId>{hosts[5]}));  // false positive by design
}

TEST_F(ControllerFixture, PublisherDoesNotReceiveOwnEvents) {
  Controller c = makeController();
  const auto hosts = topo.hosts();
  c.advertise(hosts[0], rect(0, 1023, 0, 1023));
  c.subscribe(hosts[0], rect(0, 1023, 0, 1023));  // self-subscription
  c.subscribe(hosts[4], rect(0, 1023, 0, 1023));
  EXPECT_EQ(publish(c, hosts[0], {5, 5}), (std::set<net::NodeId>{hosts[4]}));
}

TEST_F(ControllerFixture, SubscribersOnSameEdgeSwitch) {
  Controller c = makeController();
  const auto hosts = topo.hosts();
  // testbedFatTree: h1,h2 share an edge switch.
  c.advertise(hosts[4], rect(0, 1023, 0, 1023));
  c.subscribe(hosts[0], rect(0, 1023, 0, 1023));
  c.subscribe(hosts[1], rect(0, 1023, 0, 1023));
  EXPECT_EQ(publish(c, hosts[4], {7, 7}),
            (std::set<net::NodeId>{hosts[0], hosts[1]}));
}

TEST_F(ControllerFixture, MultiPieceAdvertisementJoinsAndCreates) {
  Controller c = makeController();
  const auto hosts = topo.hosts();
  // First tree carries dz 0 only.
  c.advertise(hosts[0], rect(0, 511, 0, 1023));
  // An advertisement decomposing into pieces on both sides of the split
  // (interleaving gives DZ = {001, 011, 100, 110}): the 0-side pieces join
  // the existing tree; Algorithm 1 creates one tree per uncovered dz_i, so
  // the two 1-side pieces start a tree each.
  c.advertise(hosts[1], rect(256, 767, 0, 1023));
  EXPECT_EQ(c.treeCount(), 3u);
  EXPECT_EQ(c.lastOpStats().treesJoined, 2);
  EXPECT_EQ(c.lastOpStats().treesCreated, 2);
  c.subscribe(hosts[6], rect(0, 1023, 0, 1023));
  EXPECT_EQ(publish(c, hosts[1], {300, 9}), (std::set<net::NodeId>{hosts[6]}));
  EXPECT_EQ(publish(c, hosts[1], {700, 9}), (std::set<net::NodeId>{hosts[6]}));
}

TEST_F(ControllerFixture, SubscriptionUnionAccumulates) {
  Controller c = makeController();
  const auto hosts = topo.hosts();
  EXPECT_TRUE(c.subscriptionUnion().empty());
  c.subscribe(hosts[1], rect(0, 511, 0, 1023));
  c.subscribe(hosts[2], rect(512, 1023, 0, 1023));
  // {0} ∪ {1} = whole space.
  ASSERT_EQ(c.subscriptionUnion().size(), 1u);
  EXPECT_TRUE(c.subscriptionUnion().items()[0].isWholeSpace());
}

TEST_F(ControllerFixture, EndpointForHostMatchesAttachment) {
  Controller c = makeController();
  const auto hosts = topo.hosts();
  const Endpoint ep = c.endpointForHost(hosts[3]);
  const auto att = topo.hostAttachment(hosts[3]);
  EXPECT_EQ(ep.attachSwitch, att.switchNode);
  EXPECT_EQ(ep.port, att.switchPort);
  EXPECT_EQ(ep.host, hosts[3]);
  ASSERT_TRUE(ep.rewrite.has_value());
  EXPECT_EQ(*ep.rewrite, net::hostAddress(hosts[3]));
}

TEST(ControllerCapacity, TcamExhaustionDegradesGracefully) {
  // Requirement 3 (Sec 1): switch TCAMs hold a bounded number of flows.
  // When the bound is hit, adds are rejected; the controller keeps running
  // (best effort) and already-installed subscriptions keep working.
  net::Topology topo = net::Topology::testbedFatTree();
  net::Simulator sim;
  net::NetworkConfig ncfg;
  ncfg.flowTableCapacity = 6;  // tiny TCAMs
  net::Network network(topo, sim, ncfg);
  ControllerConfig cfg;
  cfg.maxDzLength = 12;
  cfg.maxCellsPerRequest = 4;
  Controller c(dz::EventSpace(2, 10), network, Scope::wholeTopology(topo), cfg);
  const auto hosts = topo.hosts();

  std::set<net::NodeId> got;
  network.setDeliverHandler(
      [&](net::NodeId h, const net::Packet&) { got.insert(h); });

  c.advertise(hosts[0], dz::Rectangle{{dz::Range{0, 1023}, dz::Range{0, 1023}}});
  c.subscribe(hosts[5], dz::Rectangle{{dz::Range{0, 511}, dz::Range{0, 1023}}});
  got.clear();
  network.sendFromHost(hosts[0], c.makeEventPacket(hosts[0], {100, 100}, 1));
  sim.run();
  ASSERT_EQ(got, (std::set<net::NodeId>{hosts[5]}));

  // Flood the tables far past capacity; no crash, rejections are counted.
  for (int i = 0; i < 40; ++i) {
    const auto lo = static_cast<dz::AttributeValue>((i * 97) % 900);
    c.subscribe(hosts[static_cast<std::size_t>(1 + i % 7)],
                dz::Rectangle{{dz::Range{lo, lo + 40},
                               dz::Range{1023 - lo - 40, 1023 - lo}}});
  }
  std::uint64_t rejected = 0;
  for (const net::NodeId sw : topo.switches()) {
    EXPECT_LE(network.flowTable(sw).size(), 6u);
    rejected += network.flowTable(sw).stats().rejectedCapacity;
  }
  EXPECT_GT(rejected, 0u);
  // The original subscription still receives (its flows were first in).
  got.clear();
  network.sendFromHost(hosts[0], c.makeEventPacket(hosts[0], {100, 100}, 2));
  sim.run();
  EXPECT_TRUE(got.contains(hosts[5]));
}

struct KAryFatTreeFixture : ControllerFixture {
  KAryFatTreeFixture() : ControllerFixture(net::Topology::kAryFatTree(4)) {}
};

TEST_F(KAryFatTreeFixture, OnePathPerPublisherSubscriptionPairAlongSharedRoutes) {
  // Whole-space advertisers share one tree, and every subscription's pieces
  // (one per dz member) reach it from each advertiser along one route: the
  // registry keeps one path per (publisher, subscription) pair, stores
  // each route once, and so holds less than one hop per path.
  Controller c = makeController();
  const auto hosts = topo.hosts();
  std::vector<PublisherId> publishers;
  for (std::size_t h = 0; h < hosts.size(); h += 5) {
    publishers.push_back(c.advertise(hosts[h], rect(0, 1023, 0, 1023)));
  }
  ASSERT_EQ(publishers.size(), 4u);
  std::size_t pairs = 0;
  std::size_t pieces = 0;
  for (int i = 0; i < 200; ++i) {
    const auto lo = static_cast<dz::AttributeValue>((i * 151) % 700);
    const auto lo2 = static_cast<dz::AttributeValue>((i * 67) % 500);
    const std::size_t at = static_cast<std::size_t>(i * 7) % hosts.size();
    const SubscriptionId s =
        c.subscribe(hosts[at], rect(lo, lo + 300, lo2, lo2 + 500));
    const std::size_t members = c.subscriptionDz(s).size();
    std::set<PublisherId> seen;
    for (const PathId id : c.registry().pathsOfSubscription(s)) {
      const InstalledPath& path = c.registry().at(id);
      EXPECT_TRUE(seen.insert(path.publisher).second)
          << "subscription " << s << " has two paths from " << path.publisher;
      EXPECT_EQ(path.dz, c.subscriptionDz(s));
    }
    // A subscriber is not connected to a publisher on its own host.
    const std::size_t expected = at % 5 == 0 ? 3 : 4;
    EXPECT_EQ(seen.size(), expected) << "subscription " << s;
    pairs += expected;
    pieces += members * expected;
  }
  const PathRegistry& registry = c.registry();
  EXPECT_EQ(registry.size(), pairs);
  EXPECT_GT(pieces, 2 * pairs);  // most subscriptions decompose into several members

  std::set<const std::vector<RouteHop>*> routes;
  std::size_t recordBytes = 0;
  for (const SpanningTree* tree : c.trees()) {
    for (const auto& [hops, paths] : registry.routesOfTree(tree->id())) {
      routes.insert(hops);
    }
    for (const PathId id : registry.pathsOfTree(tree->id())) {
      recordBytes += sizeof(InstalledPath) +
                     registry.at(id).dz.size() * sizeof(dz::DzExpression);
    }
  }
  EXPECT_LE(routes.size(), publishers.size() * hosts.size());
  ASSERT_GE(registry.stateBytes(), recordBytes);
  EXPECT_LT(registry.stateBytes() - recordBytes,
            registry.size() * sizeof(RouteHop));
}

TEST_F(ControllerFixture, SwitchTablesMatchRegistryRequirements) {
  Controller c = makeController();
  const auto hosts = topo.hosts();
  c.advertise(hosts[0], rect(0, 700, 0, 1023));
  c.advertise(hosts[2], rect(300, 1023, 0, 600));
  c.subscribe(hosts[5], rect(0, 511, 0, 1023));
  c.subscribe(hosts[6], rect(200, 800, 100, 900));
  const SubscriptionId s = c.subscribe(hosts[7], rect(0, 1023, 0, 1023));
  c.unsubscribe(s);

  // After arbitrary operations, every switch's table must be semantically
  // equivalent to the registry's required flows: same winning action set
  // for every address the registry knows about.
  for (const net::NodeId sw : topo.switches()) {
    const auto required = c.registry().requiredFlows(sw);
    net::FlowTable expected;
    for (const auto& e : required) ASSERT_TRUE(expected.insert(e));
    // Probe with every installed match address extended to max length.
    for (const auto& entry : network.flowTable(sw).entries()) {
      const auto probe = entry.match.address;
      const net::FlowEntry* a = network.flowTable(sw).lookup(probe);
      const net::FlowEntry* b = expected.lookup(probe);
      ASSERT_NE(a, nullptr);
      ASSERT_NE(b, nullptr);
      auto pa = a->outPorts();
      auto pb = b->outPorts();
      std::sort(pa.begin(), pa.end());
      std::sort(pb.begin(), pb.end());
      EXPECT_EQ(pa, pb) << "switch " << sw;
    }
  }
}

}  // namespace
}  // namespace pleroma::ctrl
