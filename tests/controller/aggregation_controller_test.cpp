// Aggregated subscription mode (config.aggregateSubscriptions): the
// controller keys flow install on each endpoint's canonical interest
// aggregate instead of one rule-set per subscription. Covered subscribes
// install nothing, sibling interests merge, unsubscribes uncover
// incrementally, and — the central property — aggregated installs deliver
// exactly the same event set as naive per-subscription installs under
// churn; once a TCAM budget forces coarsening, only supersets (false
// positives), never misses.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "controller/controller.hpp"
#include "controller/standby.hpp"
#include "workload/workload.hpp"

namespace pleroma::ctrl {
namespace {

dz::Rectangle rect(dz::AttributeValue aLo, dz::AttributeValue aHi) {
  return dz::Rectangle{{dz::Range{aLo, aHi}, dz::Range{0, 1023}}};
}

dz::DzSet set(std::string_view s) { return *dz::DzSet::fromString(s); }

/// Canonical serialization of the per-switch intent mirrors.
std::string mirrorDigest(Controller& c) {
  std::string out;
  for (const net::NodeId sw : c.scope().switches) {
    out += "sw" + std::to_string(sw) + ":";
    for (const auto& [d, entry] : c.installer().mirror(sw)) {
      out += entry.toString();
      out += ";";
    }
    out += "\n";
  }
  return out;
}

struct AggregationStack {
  explicit AggregationStack(ControllerConfig cfg)
      : topo(net::Topology::testbedFatTree()),
        network(topo, sim, {}),
        controller(dz::EventSpace(2, 10), network, Scope::wholeTopology(topo),
                   cfg) {
    hosts = topo.hosts();
    network.setDeliverHandler(
        [this](net::NodeId h, const net::Packet&) { delivered.insert(h); });
  }

  std::set<net::NodeId> publish(net::NodeId pubHost, const dz::Event& e) {
    delivered.clear();
    network.sendFromHost(pubHost, controller.makeEventPacket(pubHost, e, 1));
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

ControllerConfig aggregatedConfig() {
  ControllerConfig cfg;
  cfg.maxDzLength = 8;
  cfg.maxCellsPerRequest = 6;
  cfg.aggregateSubscriptions = true;
  return cfg;
}

TEST(AggregationController, CoveredSubscribeInstallsNothing) {
  AggregationStack s(aggregatedConfig());
  s.controller.advertise(s.hosts[0], rect(0, 1023));
  s.controller.subscribe(s.hosts[1], rect(0, 511));
  const auto statsAfterFirst = s.controller.controlStats();
  const std::size_t entriesAfterFirst = s.controller.installer().totalMirrorEntries();

  // Same host, interest inside the first: fully covered by the aggregate.
  s.controller.subscribe(s.hosts[1], rect(0, 127));
  EXPECT_EQ(s.controller.lastOpStats().totalFlowMods(), 0u);
  EXPECT_EQ(s.controller.controlStats().flowModsSent,
            statsAfterFirst.flowModsSent);
  EXPECT_EQ(s.controller.installer().totalMirrorEntries(), entriesAfterFirst);
  EXPECT_EQ(s.controller.coveredSubscribes(), 1u);
  EXPECT_EQ(s.controller.aggregateCount(), 1u);
  // Both still count as subscriptions, but drive one aggregate.
  EXPECT_EQ(s.controller.subscriptionCount(), 2u);
}

TEST(AggregationController, SiblingInterestsMergeIntoOneRepresentative) {
  AggregationStack s(aggregatedConfig());
  const Endpoint pub = s.controller.endpointForHost(s.hosts[0]);
  const Endpoint sub = s.controller.endpointForHost(s.hosts[1]);
  s.controller.advertiseEndpoint(pub, set(""));
  s.controller.subscribeEndpoint(sub, set("00"));
  s.controller.subscribeEndpoint(sub, set("01"));
  // {00, 01} collapses to the parent 0: one representative.
  EXPECT_EQ(s.controller.aggregateRepresentatives(), 1u);
}

TEST(AggregationController, UnsubscribeUncoversIncrementally) {
  AggregationStack s(aggregatedConfig());
  s.controller.advertise(s.hosts[0], rect(0, 1023));
  const SubscriptionId wide = s.controller.subscribe(s.hosts[1], rect(0, 511));
  const SubscriptionId narrow = s.controller.subscribe(s.hosts[1], rect(0, 127));
  s.sim.run();

  // Dropping the wide interest shrinks flows to the narrow one; events in
  // the narrow interest still deliver.
  s.controller.unsubscribe(wide);
  s.sim.run();
  const auto got = s.publish(s.hosts[0], dz::Event{10, 10});
  EXPECT_TRUE(got.contains(s.hosts[1]));

  // Dropping the last interest drains the endpoint's flows entirely.
  s.controller.unsubscribe(narrow);
  s.sim.run();
  EXPECT_EQ(s.controller.aggregateRepresentatives(), 0u);
  const auto after = s.publish(s.hosts[0], dz::Event{10, 10});
  EXPECT_TRUE(after.empty());
  for (const net::NodeId sw : s.topo.switches()) {
    EXPECT_TRUE(s.network.flowTable(sw).empty()) << "leaked flows on " << sw;
  }
}

TEST(AggregationController, DuplicateSubscriptionsAreRefcounted) {
  AggregationStack s(aggregatedConfig());
  s.controller.advertise(s.hosts[0], rect(0, 1023));
  const SubscriptionId a = s.controller.subscribe(s.hosts[2], rect(0, 255));
  const SubscriptionId b = s.controller.subscribe(s.hosts[2], rect(0, 255));
  s.sim.run();
  // Removing one of two identical interests must not uninstall the flows.
  s.controller.unsubscribe(a);
  s.sim.run();
  const auto got = s.publish(s.hosts[0], dz::Event{5, 5});
  EXPECT_TRUE(got.contains(s.hosts[2]));
  s.controller.unsubscribe(b);
  s.sim.run();
  EXPECT_TRUE(s.publish(s.hosts[0], dz::Event{5, 5}).empty());
}

// ---- satellite: delivery equivalence, aggregated vs naive -----------------

class AggregationEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AggregationEquivalence, AggregatedDeliversExactlyNaiveEventSet) {
  const std::uint64_t seed = GetParam();
  ControllerConfig naiveCfg;
  naiveCfg.maxDzLength = 8;
  naiveCfg.maxCellsPerRequest = 6;
  ControllerConfig aggCfg = naiveCfg;
  aggCfg.aggregateSubscriptions = true;

  AggregationStack naive(naiveCfg);
  AggregationStack agg(aggCfg);

  workload::WorkloadConfig wcfg;
  wcfg.numAttributes = 2;
  wcfg.subscriptionSelectivity = 0.3;
  wcfg.seed = seed;
  workload::WorkloadGenerator gen(wcfg);
  util::Rng& rng = gen.rng();
  const auto& hosts = naive.hosts;

  std::vector<SubscriptionId> liveSubs;
  std::vector<PublisherId> livePubs;
  for (int step = 0; step < 150; ++step) {
    const auto dice = rng.uniformInt(0, 99);
    if (dice < 20 || livePubs.empty()) {
      const net::NodeId h = hosts[rng.uniformInt(0, hosts.size() - 1)];
      const dz::Rectangle r = gen.makeAdvertisement();
      const PublisherId pn = naive.controller.advertise(h, r);
      const PublisherId pa = agg.controller.advertise(h, r);
      ASSERT_EQ(pn, pa);
      livePubs.push_back(pn);
    } else if (dice < 60) {
      // Skewed host choice: many subscriptions per endpoint, the regime
      // aggregation is built for.
      const net::NodeId h = hosts[rng.uniformInt(0, hosts.size() / 2)];
      const dz::Rectangle r = gen.makeSubscription();
      const SubscriptionId sn = naive.controller.subscribe(h, r);
      const SubscriptionId sa = agg.controller.subscribe(h, r);
      ASSERT_EQ(sn, sa);
      liveSubs.push_back(sn);
    } else if (dice < 85 && !liveSubs.empty()) {
      const std::size_t v = rng.uniformInt(0, liveSubs.size() - 1);
      naive.controller.unsubscribe(liveSubs[v]);
      agg.controller.unsubscribe(liveSubs[v]);
      liveSubs.erase(liveSubs.begin() + static_cast<std::ptrdiff_t>(v));
    } else if (!livePubs.empty()) {
      const std::size_t v = rng.uniformInt(0, livePubs.size() - 1);
      naive.controller.unadvertise(livePubs[v]);
      agg.controller.unadvertise(livePubs[v]);
      livePubs.erase(livePubs.begin() + static_cast<std::ptrdiff_t>(v));
    }

    if (livePubs.empty() || step % 3 != 0) continue;
    for (int k = 0; k < 3; ++k) {
      const net::NodeId pubHost = hosts[rng.uniformInt(0, hosts.size() - 1)];
      const dz::Event e = gen.makeEvent();
      const auto gotNaive = naive.publish(pubHost, e);
      const auto gotAgg = agg.publish(pubHost, e);
      // Without a TCAM budget, aggregation is install-side compression
      // only: the delivered event set is identical, event by event.
      ASSERT_EQ(gotNaive, gotAgg) << "step " << step << " seed " << seed;
    }
  }
  // Entry counts stay in the same ballpark at this small scale (the big
  // reduction needs many covered subscriptions per endpoint — that's the
  // bench's 10^6 sweep). A sibling merge can momentarily cost an entry on
  // a switch another endpoint shares, so allow a small slack.
  EXPECT_LE(agg.controller.installer().totalMirrorEntries(),
            naive.controller.installer().totalMirrorEntries() + 8);
}

TEST_P(AggregationEquivalence, BudgetCoarseningGivesSupersetsNeverMisses) {
  const std::uint64_t seed = GetParam();
  ControllerConfig naiveCfg;
  naiveCfg.maxDzLength = 8;
  naiveCfg.maxCellsPerRequest = 6;
  ControllerConfig aggCfg = naiveCfg;
  aggCfg.aggregateSubscriptions = true;
  aggCfg.tcamBudget = 6;  // tight: skewed churn will overflow it

  AggregationStack naive(naiveCfg);
  AggregationStack agg(aggCfg);

  workload::WorkloadConfig wcfg;
  wcfg.numAttributes = 2;
  wcfg.subscriptionSelectivity = 0.35;
  wcfg.seed = seed * 17 + 3;
  workload::WorkloadGenerator gen(wcfg);
  util::Rng& rng = gen.rng();
  const auto& hosts = naive.hosts;

  std::vector<SubscriptionId> liveSubs;
  net::NodeId pubHost = hosts[0];
  naive.controller.advertise(pubHost, rect(0, 1023));
  agg.controller.advertise(pubHost, rect(0, 1023));
  for (int step = 0; step < 80; ++step) {
    if (liveSubs.empty() || rng.uniformInt(0, 99) < 70) {
      const net::NodeId h = hosts[1 + rng.uniformInt(0, hosts.size() - 2)];
      const dz::Rectangle r = gen.makeSubscription();
      const SubscriptionId sn = naive.controller.subscribe(h, r);
      agg.controller.subscribe(h, r);
      liveSubs.push_back(sn);
    } else {
      const std::size_t v = rng.uniformInt(0, liveSubs.size() - 1);
      naive.controller.unsubscribe(liveSubs[v]);
      agg.controller.unsubscribe(liveSubs[v]);
      liveSubs.erase(liveSubs.begin() + static_cast<std::ptrdiff_t>(v));
    }

    if (step % 4 != 0) continue;
    const dz::Event e = gen.makeEvent();
    const auto gotNaive = naive.publish(pubHost, e);
    const auto gotAgg = agg.publish(pubHost, e);
    // Coarsening degrades precision, never recall: every naive delivery
    // must also arrive in the budgeted world.
    for (const net::NodeId h : gotNaive) {
      ASSERT_TRUE(gotAgg.contains(h))
          << "budget coarsening dropped a delivery, step " << step;
    }
    // Extras are legitimate only once the budget actually forced a
    // coarsening pass.
    if (agg.controller.installer().coarsenStats().events == 0) {
      ASSERT_EQ(gotNaive, gotAgg) << "step " << step;
    }
  }
  // The tight budget must have been enforced on every switch.
  for (const net::NodeId sw : naive.topo.switches()) {
    EXPECT_LE(agg.controller.installer().mirror(sw).size(), aggCfg.tcamBudget);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregationEquivalence,
                         ::testing::Values(3u, 47u, 911u));

// ---- standby replay ------------------------------------------------------

TEST(AggregationController, StandbyReplayReproducesAggregatedIntent) {
  ControllerConfig cfg = aggregatedConfig();
  cfg.tcamBudget = 8;
  AggregationStack s(cfg);
  StandbyController standby(s.controller);

  s.controller.advertise(s.hosts[0], rect(0, 1023));
  for (int i = 0; i < 10; ++i) {
    // Duplicate-rich pattern: per-endpoint aggregates do real work.
    const net::NodeId h = s.hosts[1 + i % 3];
    s.controller.subscribe(h, rect(0, 255 << (i % 2)));
  }
  s.controller.unsubscribe(3);
  s.controller.unsubscribe(5);
  s.sim.run();

  std::unique_ptr<Controller> replica = standby.promote();
  EXPECT_EQ(mirrorDigest(*replica), mirrorDigest(s.controller));
  EXPECT_EQ(replica->aggregateCount(), s.controller.aggregateCount());
  EXPECT_EQ(replica->aggregateRepresentatives(),
            s.controller.aggregateRepresentatives());
  EXPECT_EQ(replica->flowStateBytes(), s.controller.flowStateBytes());
  for (const net::NodeId sw : s.topo.switches()) {
    EXPECT_EQ(replica->installer().coarsenLength(sw),
              s.controller.installer().coarsenLength(sw));
  }
}

}  // namespace
}  // namespace pleroma::ctrl
