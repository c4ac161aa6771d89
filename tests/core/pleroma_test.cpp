#include "core/pleroma.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "controller/reconciler.hpp"
#include "interop/multi_domain.hpp"
#include "workload/workload.hpp"

namespace pleroma::core {
namespace {

dz::Rectangle rect(dz::AttributeValue aLo, dz::AttributeValue aHi,
                   dz::AttributeValue bLo, dz::AttributeValue bHi) {
  return dz::Rectangle{{dz::Range{aLo, aHi}, dz::Range{bLo, bHi}}};
}

struct PleromaFixture : ::testing::Test {
  PleromaFixture() : middleware(net::Topology::testbedFatTree(), options()) {
    hosts = middleware.topology().hosts();
  }
  static PleromaOptions options() {
    PleromaOptions o;
    o.numAttributes = 2;
    return o;
  }
  Pleroma middleware;
  std::vector<net::NodeId> hosts;
};

TEST_F(PleromaFixture, PublishSubscribeRoundTrip) {
  middleware.advertise(hosts[0], rect(0, 1023, 0, 1023));
  middleware.subscribe(hosts[5], rect(0, 511, 0, 1023));

  std::set<net::NodeId> got;
  middleware.setDeliveryCallback(
      [&](const DeliveryRecord& r) { got.insert(r.host); });
  middleware.publish(hosts[0], {100, 100});
  middleware.settle();
  EXPECT_EQ(got, (std::set<net::NodeId>{hosts[5]}));
  EXPECT_EQ(middleware.deliveryStats().delivered, 1u);
}

TEST_F(PleromaFixture, EventIdsAssigned) {
  middleware.advertise(hosts[0], rect(0, 1023, 0, 1023));
  middleware.subscribe(hosts[5], rect(0, 1023, 0, 1023));
  std::vector<net::EventId> ids;
  middleware.setDeliveryCallback(
      [&](const DeliveryRecord& r) { ids.push_back(r.eventId); });
  const net::EventId a = middleware.publish(hosts[0], {1, 1});
  const net::EventId b = middleware.publish(hosts[0], {2, 2});
  middleware.settle();
  EXPECT_NE(a, b);
  ASSERT_EQ(ids.size(), 2u);
}

TEST_F(PleromaFixture, FalsePositiveAccounting) {
  PleromaOptions o = options();
  o.controller.maxDzLength = 2;  // coarse filtering -> false positives
  Pleroma p(net::Topology::testbedFatTree(), o);
  const auto h = p.topology().hosts();
  p.advertise(h[0], rect(0, 1023, 0, 1023));
  p.subscribe(h[5], rect(0, 100, 0, 100));

  p.publish(h[0], {50, 50});    // true positive
  p.publish(h[0], {400, 400});  // same coarse cell, not matching: FP
  p.settle();
  EXPECT_EQ(p.deliveryStats().delivered, 2u);
  EXPECT_EQ(p.deliveryStats().falsePositives, 1u);
  EXPECT_NEAR(p.deliveryStats().falsePositiveRate(), 0.5, 1e-9);
}

TEST_F(PleromaFixture, LatencyRecorded) {
  std::vector<net::SimTime> latencies;
  middleware.setDeliveryCallback(
      [&](const DeliveryRecord& r) { latencies.push_back(r.latency); });
  middleware.advertise(hosts[0], rect(0, 1023, 0, 1023));
  middleware.subscribe(hosts[5], rect(0, 1023, 0, 1023));
  middleware.publish(hosts[0], {1, 1});
  middleware.settle();
  ASSERT_EQ(latencies.size(), 1u);
  EXPECT_GT(latencies[0], 0);
  EXPECT_GT(middleware.deliveryStats().meanLatencyUs(), 0.0);
  middleware.resetDeliveryStats();
  EXPECT_EQ(middleware.deliveryStats().delivered, 0u);
  EXPECT_EQ(middleware.deliveryStats().meanLatencyUs(), 0.0);
}

TEST_F(PleromaFixture, UnsubscribeViaFacade) {
  middleware.advertise(hosts[0], rect(0, 1023, 0, 1023));
  const auto s = middleware.subscribe(hosts[5], rect(0, 1023, 0, 1023));
  middleware.unsubscribe(s);
  middleware.publish(hosts[0], {1, 1});
  middleware.settle();
  EXPECT_EQ(middleware.deliveryStats().delivered, 0u);
}

TEST_F(PleromaFixture, MultipleSubscriptionsPerHostDeduplicated) {
  middleware.advertise(hosts[0], rect(0, 1023, 0, 1023));
  middleware.subscribe(hosts[5], rect(0, 511, 0, 1023));
  middleware.subscribe(hosts[5], rect(0, 255, 0, 1023));
  int deliveries = 0;
  middleware.setDeliveryCallback([&](const DeliveryRecord&) { ++deliveries; });
  middleware.publish(hosts[0], {10, 10});
  middleware.settle();
  EXPECT_EQ(deliveries, 1);  // one packet per host per event
}

TEST_F(PleromaFixture, RectangleNeedsOneRangePerAttribute) {
  const dz::Rectangle narrow{{dz::Range{0, 1023}}};
  const dz::Rectangle wide{
      {dz::Range{0, 1023}, dz::Range{0, 1023}, dz::Range{0, 1023}}};
  for (const dz::Rectangle& r : {narrow, wide}) {
    EXPECT_THROW(middleware.advertise(hosts[0], r), std::invalid_argument);
    EXPECT_THROW(middleware.subscribe(hosts[5], r), std::invalid_argument);
  }
  // Nothing was registered: the controller saw no operation, and a
  // well-formed pair still round-trips.
  EXPECT_EQ(middleware.controller().stats().ops, 0u);
  middleware.advertise(hosts[0], rect(0, 1023, 0, 1023));
  middleware.subscribe(hosts[5], rect(0, 1023, 0, 1023));
  middleware.publish(hosts[0], {1, 1});
  middleware.settle();
  EXPECT_EQ(middleware.deliveryStats().delivered, 1u);
  EXPECT_EQ(middleware.deliveryStats().falsePositives, 0u);
}

TEST_F(PleromaFixture, DimensionSelectionPicksInformativeDims) {
  PleromaOptions o;
  o.numAttributes = 4;
  o.controller.maxDzLength = 16;
  Pleroma p(net::Topology::testbedFatTree(), o);
  const auto h = p.topology().hosts();
  p.advertise(h[0], dz::Rectangle{{dz::Range{0, 1023}, dz::Range{0, 1023},
                                   dz::Range{0, 1023}, dz::Range{0, 1023}}});
  // Subscriptions selective on dims 0 and 2 only.
  for (int i = 0; i < 6; ++i) {
    const auto lo = static_cast<dz::AttributeValue>(i * 150);
    p.subscribe(h[static_cast<std::size_t>(i + 1)],
                dz::Rectangle{{dz::Range{lo, lo + 120}, dz::Range{0, 1023},
                               dz::Range{1023 - lo - 120, 1023 - lo},
                               dz::Range{0, 1023}}});
  }
  // Events vary on dims 0 and 2; constant elsewhere.
  for (int i = 0; i < 128; ++i) {
    p.publish(h[0], dz::Event{static_cast<dz::AttributeValue>((i * 97) % 1024),
                              512,
                              static_cast<dz::AttributeValue>((i * 53) % 1024),
                              512});
  }
  p.settle();
  const std::vector<int> dims = p.runDimensionSelection(0.8);
  ASSERT_FALSE(dims.empty());
  for (const int d : dims) {
    EXPECT_TRUE(d == 0 || d == 2) << "selected uninformative dim " << d;
  }
  // The re-indexed system still delivers.
  std::set<net::NodeId> got;
  p.setDeliveryCallback([&](const DeliveryRecord& r) { got.insert(r.host); });
  p.publish(h[0], dz::Event{10, 512, 1000, 512});
  p.settle();
  EXPECT_TRUE(got.contains(h[1]));
}

TEST_F(PleromaFixture, AsyncInstallDelaysActivation) {
  PleromaOptions o = options();
  o.controller.flowModLatency = net::kMillisecond;
  Pleroma p(net::Topology::testbedFatTree(), o);
  p.controller().channel().enableAsyncInstall();
  const auto h = p.topology().hosts();
  p.advertise(h[0], rect(0, 1023, 0, 1023));
  p.settle();  // let the advertisement's (no-op) work complete
  p.subscribe(h[5], rect(0, 1023, 0, 1023));

  // Published immediately after subscribing: flows are still installing,
  // so the event is lost (no false-delivery, no crash).
  p.publish(h[0], {1, 1});
  p.settleUntil(p.simulator().now() + 100 * net::kMicrosecond);
  EXPECT_EQ(p.deliveryStats().delivered, 0u);

  // Once installation completes, delivery works.
  p.settle();
  p.publish(h[0], {2, 2});
  p.settle();
  EXPECT_EQ(p.deliveryStats().delivered, 1u);
}

TEST_F(PleromaFixture, AutoDimensionSelectionReindexes) {
  PleromaOptions o;
  o.numAttributes = 3;
  o.controller.maxDzLength = 12;
  o.dimensionWindow = 64;
  Pleroma p(net::Topology::testbedFatTree(), o);
  const auto h = p.topology().hosts();
  p.advertise(h[0], p.controller().space().wholeSpace());
  // Selective on dims 0 and 2 only; dim 1 unselective.
  for (int i = 0; i < 5; ++i) {
    const auto lo = static_cast<dz::AttributeValue>(i * 180);
    p.subscribe(h[static_cast<std::size_t>(i + 1)],
                dz::Rectangle{{dz::Range{lo, lo + 120}, dz::Range{0, 1023},
                               dz::Range{1023 - lo - 120, 1023 - lo}}});
  }
  p.setAutoDimensionSelection(50, 0.85);
  for (int i = 0; i < 120; ++i) {
    p.publish(h[0], dz::Event{static_cast<dz::AttributeValue>((i * 97) % 1024),
                              512,
                              static_cast<dz::AttributeValue>((i * 53) % 1024)});
  }
  p.settle();
  EXPECT_GE(p.autoReindexCount(), 1u);
  const auto dims = p.controller().space().indexedDimensions();
  for (const int d : dims) EXPECT_NE(d, 1);
  // Once re-indexed on a stable workload, no further churn.
  const std::size_t after = p.autoReindexCount();
  for (int i = 0; i < 120; ++i) {
    p.publish(h[0], dz::Event{static_cast<dz::AttributeValue>((i * 97) % 1024),
                              512,
                              static_cast<dz::AttributeValue>((i * 53) % 1024)});
  }
  p.settle();
  EXPECT_EQ(p.autoReindexCount(), after);
}

TEST_F(PleromaFixture, AutoDimensionSelectionDisabledByDefault) {
  middleware.advertise(hosts[0], rect(0, 1023, 0, 1023));
  middleware.subscribe(hosts[5], rect(0, 511, 0, 1023));
  for (int i = 0; i < 500; ++i) middleware.publish(hosts[0], {1, 1});
  middleware.settle();
  EXPECT_EQ(middleware.autoReindexCount(), 0u);
}

TEST_F(PleromaFixture, ThroughputSaturationWithSlowHosts) {
  PleromaOptions o = options();
  o.network.hostServiceTime = 1 * net::kMillisecond;
  o.network.hostQueueCapacity = 8;
  Pleroma p(net::Topology::testbedFatTree(), o);
  const auto h = p.topology().hosts();
  p.advertise(h[0], rect(0, 1023, 0, 1023));
  p.subscribe(h[5], rect(0, 1023, 0, 1023));
  // 200 events in 10 ms >> host capacity (1/ms): drops must occur.
  for (int i = 0; i < 200; ++i) {
    p.simulator().schedule(i * 50 * net::kMicrosecond, [&p, &h] {
      p.publish(h[0], {1, 1});
    });
  }
  p.settle();
  EXPECT_LT(p.deliveryStats().delivered, 200u);
  EXPECT_GT(p.network().counters().dropped(net::DropReason::kHostQueue), 0u);
}

// snapshotMetrics() is the one exporter: each counter it reports is read
// from the stats struct of the layer that counted it.
TEST(PleromaMetrics, SnapshotCountersEqualLayerStats) {
  PleromaOptions o;
  o.numAttributes = 2;
  o.network.linkQueueCapacity = 2;
  Pleroma p(net::Topology::testbedFatTree(), o);
  openflow::ControlChannel& channel = p.controller().channel();
  channel.enableAsyncInstall();
  channel.setFaultModel({.dropProbability = 0.5});
  channel.setRetryPolicy({.maxRetries = 1});
  const auto hosts = p.topology().hosts();
  p.advertise(hosts[0], rect(0, 1023, 0, 1023));
  p.advertise(hosts[3], rect(0, 511, 0, 1023));
  p.subscribe(hosts[5], rect(0, 511, 0, 1023));
  p.subscribe(hosts[7], rect(256, 1023, 0, 511));
  p.subscribe(hosts[1], rect(0, 1023, 512, 1023));
  p.settle();
  ctrl::Reconciler(p.controller()).runToConvergence();
  for (int i = 0; i < 60; ++i) {
    const auto v = static_cast<dz::AttributeValue>(i);
    p.publish(hosts[i % 2 == 0 ? 0 : 3], {(v * 37) % 512, (v * 101) % 1024});
  }
  p.settle();

  const obs::JsonValue doc = p.snapshotMetrics().toJson();
  auto counter = [&](const std::string& name) -> std::uint64_t {
    const obs::JsonValue* v = doc.get("counters")->get(name);
    EXPECT_NE(v, nullptr) << name;
    return v == nullptr ? ~0ull : static_cast<std::uint64_t>(v->asInt());
  };

  net::FlowTableStats tables;
  for (const net::NodeId sw : p.topology().switches()) {
    const net::FlowTableStats& t = p.network().flowTable(sw).stats();
    tables.lookups += t.lookups;
    tables.hits += t.hits;
    tables.misses += t.misses;
    tables.probes += t.probes;
  }
  ASSERT_GT(tables.lookups, 0u);
  EXPECT_EQ(counter("flow_table.lookups"), tables.lookups);
  EXPECT_EQ(counter("flow_table.hits"), tables.hits);
  EXPECT_EQ(counter("flow_table.misses"), tables.misses);
  EXPECT_DOUBLE_EQ(
      doc.get("gauges")->get("flow_table.probes_per_lookup")->asDouble(),
      static_cast<double>(tables.probes) / static_cast<double>(tables.lookups));

  const openflow::ControlPlaneStats& cs = p.controller().controlStats();
  // The channel really was lossy, and every counter took a distinct value.
  EXPECT_GT(cs.flowModsRetried, 0u);
  EXPECT_GT(cs.flowModsAbandoned, 0u);
  EXPECT_GT(cs.flowStatsRequests, 0u);
  EXPECT_EQ(counter("ctrl_channel.mods_sent"), cs.flowModsSent);
  EXPECT_EQ(counter("ctrl_channel.mods_acked"), cs.flowModsAcked);
  EXPECT_EQ(counter("ctrl_channel.mods_dropped"), cs.flowModsDropped);
  EXPECT_EQ(counter("ctrl_channel.mods_retried"), cs.flowModsRetried);
  EXPECT_EQ(counter("ctrl_channel.mods_abandoned"), cs.flowModsAbandoned);
  EXPECT_EQ(counter("ctrl_channel.flow_stats_requests"),
            cs.flowStatsRequests + cs.flowStatsBatches);

  const DeliveryStats& ds = p.deliveryStats();
  ASSERT_GT(ds.delivered, 0u);
  EXPECT_EQ(counter("core.deliveries"), ds.delivered);
  EXPECT_EQ(counter("core.false_positive_deliveries"), ds.falsePositives);
  EXPECT_EQ(counter("core.publishes"), 60u);
  EXPECT_EQ(static_cast<std::uint64_t>(doc.get("histograms")
                                           ->get("core.delivery_latency_ns")
                                           ->get("count")
                                           ->asInt()),
            ds.delivered);
}

// ---- multi-partition deployments -----------------------------------------

/// Replays one random script of advertisements, subscriptions,
/// unsubscriptions and events on a k-partition Pleroma and on an
/// interop::MultiDomain over the same partitions, driven directly: both
/// must record the same per-host (event, latency) sequences.
void expectSameDeliveriesAsMultiDomain(const net::Topology& topo, int k) {
  PleromaOptions o;
  o.partitions = k;
  o.controller.maxDzLength = 8;
  o.controller.maxCellsPerRequest = 6;
  Pleroma p(topo, o);
  interop::MultiDomain direct(topo, interop::contiguousPartitions(topo, k),
                              dz::EventSpace(2, 10), o.controller);

  using Log = std::map<net::NodeId, std::vector<std::pair<net::EventId, net::SimTime>>>;
  Log viaPleroma, viaDomain;
  p.setDeliveryCallback([&](const DeliveryRecord& r) {
    viaPleroma[r.host].emplace_back(r.eventId, r.latency);
  });
  direct.network().setDeliverHandler(
      [&](net::NodeId h, const net::Packet& pkt) {
        viaDomain[h].emplace_back(pkt.eventId(),
                                  direct.simulator().now() - pkt.sentAt());
      });

  workload::WorkloadConfig wcfg;
  wcfg.numAttributes = 2;
  wcfg.subscriptionSelectivity = 0.3;
  wcfg.seed = 5;
  workload::WorkloadGenerator gen(wcfg);
  util::Rng& rng = gen.rng();
  const auto hosts = topo.hosts();
  std::vector<net::NodeId> publishers;
  std::vector<std::pair<ctrl::SubscriptionId, interop::GlobalSubscriptionId>> subs;
  net::EventId nextEvent = 1;
  for (int step = 0; step < 30; ++step) {
    const net::NodeId h = hosts[rng.uniformInt(0, hosts.size() - 1)];
    if (publishers.empty() || rng.chance(0.3)) {
      const dz::Rectangle r = gen.makeAdvertisement();
      p.advertise(h, r);
      direct.advertise(h, r);
      publishers.push_back(h);
    } else if (!subs.empty() && rng.chance(0.2)) {
      const std::size_t i = rng.uniformInt(0, subs.size() - 1);
      EXPECT_TRUE(p.unsubscribe(subs[i].first));
      direct.unsubscribe(subs[i].second);
      subs.erase(subs.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      const dz::Rectangle r = gen.makeSubscription();
      subs.emplace_back(p.subscribe(h, r), direct.subscribe(h, r));
    }
    for (int e = 0; e < 3; ++e) {
      const net::NodeId from =
          publishers[rng.uniformInt(0, publishers.size() - 1)];
      const dz::Event event = gen.makeEvent();
      p.publish(from, event, nextEvent);
      direct.publish(from, event, nextEvent);
      ++nextEvent;
    }
    p.settle();
    direct.settle();
  }
  EXPECT_FALSE(viaPleroma.empty());
  EXPECT_EQ(viaPleroma, viaDomain);
}

TEST(PleromaPartitions, DeliversLikeMultiDomainOnALineOfThree) {
  expectSameDeliveriesAsMultiDomain(net::Topology::line(6), 3);
}

TEST(PleromaPartitions, DeliversLikeMultiDomainOnARingOfFour) {
  expectSameDeliveriesAsMultiDomain(net::Topology::ring(8), 4);
}

// One partition is the default deployment: a MultiDomain of one.
TEST(PleromaPartitions, DeliversLikeMultiDomainOnALineOfOne) {
  expectSameDeliveriesAsMultiDomain(net::Topology::line(6), 1);
}

TEST(PleromaPartitions, DeliversLikeMultiDomainOnAFatTreeOfOne) {
  expectSameDeliveriesAsMultiDomain(net::Topology::testbedFatTree(), 1);
}

// A registration on one partition relays nothing, so it must not run the
// simulator: an event in flight (or a periodic tick) keeps its timing.
TEST(PleromaPartitions, SinglePartitionRegistrationsLeaveEventsPending) {
  Pleroma p(net::Topology::testbedFatTree());
  const auto h = p.topology().hosts();
  p.advertise(h[0], rect(0, 1023, 0, 1023));
  p.subscribe(h[5], rect(0, 511, 0, 1023));
  p.publish(h[0], {100, 100});
  p.advertise(h[3], rect(0, 1023, 0, 1023));
  EXPECT_TRUE(p.unsubscribe(p.subscribe(h[7], rect(0, 511, 0, 1023))));
  EXPECT_GT(p.simulator().pendingEvents(), 0u);
  EXPECT_EQ(p.simulator().now(), 0);
  EXPECT_EQ(p.deliveryStats().delivered, 0u);
  p.settle();
  EXPECT_EQ(p.deliveryStats().delivered, 1u);
}

TEST(PleromaPartitions, FalsePositivesAreDeliveriesNoLiveSubscriptionMatches) {
  PleromaOptions o;
  o.partitions = 4;
  o.controller.maxDzLength = 2;  // coarse filtering -> false positives
  Pleroma p(net::Topology::ring(8), o);
  const auto h = p.topology().hosts();
  std::map<ctrl::SubscriptionId, std::pair<net::NodeId, dz::Rectangle>> live;
  std::map<net::EventId, dz::Event> published;
  std::uint64_t unmatched = 0;
  p.setDeliveryCallback([&](const DeliveryRecord& r) {
    const dz::Event& e = published.at(r.eventId);
    bool matched = false;
    for (const auto& [id, sub] : live) {
      matched = matched || (sub.first == r.host && sub.second.contains(e));
    }
    if (!matched) ++unmatched;
  });
  p.advertise(h[0], rect(0, 1023, 0, 1023));
  for (std::size_t i = 1; i < h.size(); ++i) {
    const auto lo = static_cast<dz::AttributeValue>(i * 100);
    const dz::Rectangle r = rect(lo, lo + 80, 0, 1023);
    live.emplace(p.subscribe(h[i], r), std::make_pair(h[i], r));
  }
  const auto publishSweep = [&] {
    for (dz::AttributeValue a = 0; a < 1024; a += 37) {
      const dz::Event e{a, 500};
      published.emplace(p.publish(h[0], e), e);
    }
    p.settle();
  };
  publishSweep();
  const ctrl::SubscriptionId dropped = live.begin()->first;
  EXPECT_TRUE(p.unsubscribe(dropped));
  live.erase(dropped);
  publishSweep();
  EXPECT_GT(unmatched, 0u);
  EXPECT_EQ(p.deliveryStats().falsePositives, unmatched);
  EXPECT_GT(p.deliveryStats().delivered, unmatched);
}

TEST(PleromaPartitions, SubscriptionIdsAreUniqueAndUnsubscribeStopsDelivery) {
  PleromaOptions o;
  o.partitions = 4;
  Pleroma p(net::Topology::ring(8), o);
  const auto h = p.topology().hosts();
  p.advertise(h[0], rect(0, 1023, 0, 1023));
  // One subscriber in each partition. Every partition controller numbers
  // its own subscriptions from zero; the facade's ids must not collide.
  std::vector<ctrl::SubscriptionId> ids;
  for (const std::size_t i : {1u, 3u, 5u, 7u}) {
    ids.push_back(p.subscribe(h[i], rect(0, 511, 0, 1023)));
  }
  EXPECT_EQ(std::set<ctrl::SubscriptionId>(ids.begin(), ids.end()).size(), 4u);

  std::map<net::NodeId, int> got;
  p.setDeliveryCallback([&](const DeliveryRecord& r) { ++got[r.host]; });
  p.publish(h[0], {100, 100});
  p.settle();
  EXPECT_EQ(got, (std::map<net::NodeId, int>{
                     {h[1], 1}, {h[3], 1}, {h[5], 1}, {h[7], 1}}));

  EXPECT_TRUE(p.unsubscribe(ids[2]));
  EXPECT_FALSE(p.unsubscribe(ids[2]));
  got.clear();
  p.publish(h[0], {100, 100});
  p.settle();
  EXPECT_EQ(got,
            (std::map<net::NodeId, int>{{h[1], 1}, {h[3], 1}, {h[7], 1}}));
}

TEST(PleromaPartitions, SinglePartitionMembersThrowOnSeveral) {
  PleromaOptions o;
  o.partitions = 2;
  Pleroma p(net::Topology::ring(6), o);
  const auto h = p.topology().hosts();
  p.advertise(h[0], rect(0, 1023, 0, 1023));
  EXPECT_THROW(p.unadvertise(0), std::logic_error);
  EXPECT_THROW(p.reindex({0}), std::logic_error);
  EXPECT_THROW(p.runDimensionSelection(), std::logic_error);
  EXPECT_THROW(p.controller(), std::logic_error);
  EXPECT_EQ(p.failover(), nullptr);
}

TEST(PleromaPartitions, StandbyNeedsASinglePartition) {
  PleromaOptions o;
  o.partitions = 2;
  o.failover.enableStandby = true;
  EXPECT_THROW(Pleroma(net::Topology::ring(6), o), std::invalid_argument);
}

TEST(PleromaPartitions, PartitionCountMustBePositive) {
  for (const int k : {0, -1}) {
    PleromaOptions o;
    o.partitions = k;
    EXPECT_THROW(Pleroma(net::Topology::ring(6), o), std::invalid_argument);
  }
}

// After a promotion the replica takes the partition over: registrations
// through the facade reach it, not the dead primary (whose channel would
// still install their flows, behind the replica's back).
TEST(PleromaFailover, RegistrationsAfterAPromotionReachThePromotedController) {
  PleromaOptions o;
  o.failover.enableStandby = true;
  Pleroma p(net::Topology::testbedFatTree(), o);
  const auto h = p.topology().hosts();
  p.advertise(h[0], rect(0, 1023, 0, 1023));
  p.subscribe(h[5], rect(0, 511, 0, 1023));
  p.settle();
  p.failover()->killPrimary();
  p.failover()->forcePromotion();
  ASSERT_TRUE(p.failover()->promoted());
  ctrl::Controller& promoted = p.failover()->active();
  EXPECT_EQ(&p.controller(), &promoted);

  p.subscribe(h[7], rect(256, 1023, 0, 511));
  std::set<net::NodeId> got;
  p.setDeliveryCallback([&](const DeliveryRecord& r) { got.insert(r.host); });
  p.publish(h[0], {300, 100});
  p.settle();
  EXPECT_EQ(got, (std::set<net::NodeId>{h[5], h[7]}));
  EXPECT_EQ(promoted.subscriptionCount(), 2u);
  // The switches hold what the replica's mirror says: nothing to repair.
  ctrl::Reconciler reconciler(promoted);
  reconciler.reconcileAll();
  EXPECT_EQ(reconciler.totalRepairMods(), 0u);
}

TEST(PleromaPartitions, SnapshotMetricsSumOverPartitions) {
  const net::Topology topo = net::Topology::line(6);
  PleromaOptions o;
  o.partitions = 3;
  Pleroma p(topo, o);
  interop::MultiDomain direct(topo, interop::contiguousPartitions(topo, 3),
                              dz::EventSpace(2, 10));
  const auto h = topo.hosts();
  p.advertise(h[0], rect(0, 1023, 0, 1023));
  direct.advertise(h[0], rect(0, 1023, 0, 1023));
  for (const std::size_t i : {1u, 3u, 5u}) {
    p.subscribe(h[i], rect(0, 511, 0, 1023));
    direct.subscribe(h[i], rect(0, 511, 0, 1023));
  }
  for (dz::AttributeValue a = 0; a < 10; ++a) p.publish(h[0], {a * 100, 7});
  p.settle();

  const obs::JsonValue doc = p.snapshotMetrics().toJson();
  auto counter = [&](const std::string& name) -> std::uint64_t {
    const obs::JsonValue* v = doc.get("counters")->get(name);
    EXPECT_NE(v, nullptr) << name;
    return v == nullptr ? ~0ull : static_cast<std::uint64_t>(v->asInt());
  };
  std::uint64_t modsSent = 0, ops = 0;
  for (std::size_t part = 0; part < direct.partitionCount(); ++part) {
    const ctrl::Controller& c =
        direct.controller(static_cast<interop::PartitionId>(part));
    modsSent += c.controlStats().flowModsSent;
    ops += c.stats().ops;
  }
  ASSERT_GT(p.deliveryStats().delivered, 0u);
  EXPECT_EQ(counter("core.publishes"), 10u);
  EXPECT_EQ(counter("core.deliveries"), p.deliveryStats().delivered);
  EXPECT_EQ(counter("ctrl_channel.mods_sent"), modsSent);
  EXPECT_EQ(counter("controller.ops"), ops);
  EXPECT_EQ(static_cast<std::uint64_t>(doc.get("histograms")
                                           ->get("controller.flow_mods_per_op")
                                           ->get("count")
                                           ->asInt()),
            ops);
  EXPECT_GT(counter("interop.control_messages"), 0u);
  EXPECT_EQ(counter("interop.control_messages"), direct.totalControlMessages());
}

// ---- false-positive check ------------------------------------------------

/// Random subscribe/unsubscribe churn over few hosts, so each host holds
/// many boxes and removals hit the middle of its list: every delivery's
/// falsePositive flag must equal a Rectangle::contains scan over the
/// host's live subscriptions.
class PleromaHostBoxes : public ::testing::TestWithParam<int> {};

TEST_P(PleromaHostBoxes, FalsePositiveFlagMatchesRectangleScanUnderChurn) {
  PleromaOptions o;
  o.partitions = GetParam();
  o.controller.maxDzLength = 4;  // coarse filtering -> false positives
  Pleroma p(net::Topology::ring(6), o);
  const auto h = p.topology().hosts();
  workload::WorkloadConfig wcfg;
  wcfg.numAttributes = 2;
  wcfg.subscriptionSelectivity = 0.05;
  wcfg.seed = 11 + static_cast<std::uint64_t>(GetParam());
  workload::WorkloadGenerator gen(wcfg);
  util::Rng& rng = gen.rng();

  std::map<ctrl::SubscriptionId, std::pair<net::NodeId, dz::Rectangle>> live;
  std::map<net::EventId, dz::Event> published;
  std::uint64_t checked = 0, falsePositives = 0;
  p.setDeliveryCallback([&](const DeliveryRecord& r) {
    const dz::Event& e = published.at(r.eventId);
    bool matched = false;
    for (const auto& [id, sub] : live) {
      matched = matched || (sub.first == r.host && sub.second.contains(e));
    }
    EXPECT_EQ(r.falsePositive, !matched) << "event " << r.eventId;
    ++checked;
    if (r.falsePositive) ++falsePositives;
  });
  p.advertise(h[0], rect(0, 1023, 0, 1023));
  for (int step = 0; step < 120; ++step) {
    if (live.size() > 8 && rng.chance(0.4)) {
      auto victim = live.begin();
      std::advance(victim, static_cast<std::ptrdiff_t>(
                               rng.uniformInt(0, live.size() - 1)));
      EXPECT_TRUE(p.unsubscribe(victim->first));
      live.erase(victim);
    } else {
      // Hosts 1 and 4 sit in different partitions at k = 2.
      const net::NodeId host = h[rng.chance(0.5) ? 1 : 4];
      const dz::Rectangle r = gen.makeSubscription();
      live.emplace(p.subscribe(host, r), std::make_pair(host, r));
    }
    for (int e = 0; e < 4; ++e) {
      const dz::Event event = gen.makeEvent();
      published.emplace(p.publish(h[0], event), event);
    }
    p.settle();
  }
  EXPECT_EQ(p.deliveryStats().delivered, checked);
  EXPECT_EQ(p.deliveryStats().falsePositives, falsePositives);
  EXPECT_GT(falsePositives, 0u);
  EXPECT_GT(checked, falsePositives);
}

INSTANTIATE_TEST_SUITE_P(Partitions, PleromaHostBoxes, ::testing::Values(1, 2));

}  // namespace
}  // namespace pleroma::core
