// Tests of multi-partition interoperability (Sec 4): discovery wiring,
// virtual hosts, cross-partition delivery, and covering-based suppression.
#include "interop/multi_domain.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

namespace pleroma::interop {
namespace {

dz::Rectangle rect(dz::AttributeValue aLo, dz::AttributeValue aHi,
                   dz::AttributeValue bLo, dz::AttributeValue bHi) {
  return dz::Rectangle{{dz::Range{aLo, aHi}, dz::Range{bLo, bHi}}};
}

/// Line of 6 switches split into 3 partitions of 2 (like Fig 5's chain
/// N_c1 - N_c2 - N_c3), one host per switch.
struct ThreeDomainFixture : ::testing::Test {
  ThreeDomainFixture() {
    net::Topology topo = net::Topology::line(6);
    std::vector<PartitionId> partitionOf = contiguousPartitions(topo, 3);
    hosts = topo.hosts();
    domain = std::make_unique<MultiDomain>(std::move(topo),
                                           std::move(partitionOf),
                                           dz::EventSpace(2, 10));
    domain->network().setDeliverHandler(
        [this](net::NodeId host, const net::Packet& pkt) {
          delivered.emplace_back(host, pkt.eventId());
        });
  }

  std::set<net::NodeId> publishAndCollect(net::NodeId host, const dz::Event& e) {
    delivered.clear();
    domain->publish(host, e, 99);
    domain->settle();
    std::set<net::NodeId> got;
    for (const auto& [h, id] : delivered) got.insert(h);
    return got;
  }

  std::unique_ptr<MultiDomain> domain;
  std::vector<net::NodeId> hosts;
  std::vector<std::pair<net::NodeId, net::EventId>> delivered;
};

TEST_F(ThreeDomainFixture, PartitionsDiscovered) {
  EXPECT_EQ(domain->partitionCount(), 3u);
  EXPECT_EQ(domain->discovery(0).switches.size(), 2u);
  EXPECT_EQ(domain->discovery(1).borderPorts.size(), 2u);
  EXPECT_EQ(domain->partitionOfHost(hosts[0]), 0);
  EXPECT_EQ(domain->partitionOfHost(hosts[5]), 2);
}

TEST_F(ThreeDomainFixture, AdvertisementFloodsToAllPartitions) {
  domain->advertise(hosts[0], rect(0, 511, 0, 1023));
  // Partition 1 and 2 each received the external advertisement and
  // registered a virtual-host publisher.
  EXPECT_EQ(domain->stats(1).externalRequests, 1u);
  EXPECT_EQ(domain->stats(2).externalRequests, 1u);
  EXPECT_EQ(domain->controller(1).advertisementCount(), 1u);
  EXPECT_EQ(domain->controller(2).advertisementCount(), 1u);
  // Trees exist in every partition for the advertised subspace.
  EXPECT_GE(domain->controller(1).treeCount(), 1u);
  EXPECT_GE(domain->controller(2).treeCount(), 1u);
}

TEST_F(ThreeDomainFixture, CrossPartitionDelivery) {
  // Publisher in partition 0, subscriber in partition 2 (Fig 5's scenario):
  // the subscription follows the advertisement's reverse path and events
  // flow across both border links.
  domain->advertise(hosts[0], rect(0, 1023, 0, 1023));
  domain->subscribe(hosts[5], rect(0, 511, 0, 1023));
  EXPECT_EQ(publishAndCollect(hosts[0], {100, 100}),
            (std::set<net::NodeId>{hosts[5]}));
  // Non-matching events filtered before crossing partitions.
  EXPECT_TRUE(publishAndCollect(hosts[0], {900, 100}).empty());
}

TEST_F(ThreeDomainFixture, LocalAndRemoteSubscribersBothServed) {
  domain->advertise(hosts[0], rect(0, 1023, 0, 1023));
  domain->subscribe(hosts[1], rect(0, 511, 0, 1023));  // same partition
  domain->subscribe(hosts[3], rect(0, 511, 0, 1023));  // middle partition
  domain->subscribe(hosts[5], rect(0, 511, 0, 1023));  // far partition
  EXPECT_EQ(publishAndCollect(hosts[0], {50, 50}),
            (std::set<net::NodeId>{hosts[1], hosts[3], hosts[5]}));
}

TEST_F(ThreeDomainFixture, SubscriptionBeforeAdvertisementAcrossDomains) {
  // Interest exists before the remote advertisement arrives; when it does,
  // the pending interest must be forwarded toward the origin.
  domain->subscribe(hosts[5], rect(0, 511, 0, 1023));
  domain->advertise(hosts[0], rect(0, 1023, 0, 1023));
  EXPECT_EQ(publishAndCollect(hosts[0], {100, 100}),
            (std::set<net::NodeId>{hosts[5]}));
}

TEST_F(ThreeDomainFixture, CoveringSuppressionOnSubscriptions) {
  // Fig 5's worked example: s1 subscribes {00}; a later covered
  // subscription {000} from the same partition is NOT forwarded again.
  domain->advertise(hosts[0], rect(0, 1023, 0, 1023));
  domain->subscribe(hosts[5], rect(0, 511, 0, 511));
  const auto sentBefore = domain->stats(2).messagesSent;
  domain->subscribe(hosts[4], rect(0, 255, 0, 255));  // covered by previous
  EXPECT_EQ(domain->stats(2).messagesSent, sentBefore);
  EXPECT_GT(domain->stats(2).subsSuppressed, 0u);
  // Both subscribers still get matching events.
  EXPECT_EQ(publishAndCollect(hosts[0], {100, 100}),
            (std::set<net::NodeId>{hosts[4], hosts[5]}));
}

TEST_F(ThreeDomainFixture, CoveringSuppressionOnAdvertisements) {
  domain->advertise(hosts[0], rect(0, 511, 0, 1023));
  const auto p1Before = domain->stats(0).messagesSent;
  // Second advertisement covered by the first: not re-flooded.
  domain->advertise(hosts[1], rect(0, 255, 0, 1023));
  EXPECT_EQ(domain->stats(0).messagesSent, p1Before);
  EXPECT_GT(domain->stats(0).advsSuppressed, 0u);
}

TEST_F(ThreeDomainFixture, UncoveredAdvertisementIsForwarded) {
  domain->advertise(hosts[0], rect(0, 511, 0, 1023));
  const auto before = domain->stats(0).messagesSent;
  domain->advertise(hosts[1], rect(512, 1023, 0, 1023));  // disjoint
  EXPECT_GT(domain->stats(0).messagesSent, before);
}

TEST_F(ThreeDomainFixture, EventsDoNotEchoBackToOriginPartition) {
  domain->advertise(hosts[0], rect(0, 1023, 0, 1023));
  domain->subscribe(hosts[1], rect(0, 1023, 0, 1023));
  domain->subscribe(hosts[5], rect(0, 1023, 0, 1023));
  // Each host receives the event exactly once despite the relay chain.
  delivered.clear();
  domain->publish(hosts[0], {10, 10}, 5);
  domain->settle();
  std::multiset<net::NodeId> all;
  for (const auto& [h, id] : delivered) all.insert(h);
  EXPECT_EQ(all.count(hosts[1]), 1u);
  EXPECT_EQ(all.count(hosts[5]), 1u);
  EXPECT_EQ(all.size(), 2u);
}

// A registration drains the simulator only when it relayed: its relays
// must land before the next registration's suppression decisions, and
// nothing else needs draining.
TEST_F(ThreeDomainFixture, RegistrationsDrainOnlyWhenTheyRelay) {
  net::Simulator& sim = domain->simulator();
  domain->publish(hosts[0], {100, 100}, 1);  // in flight until a drain
  // No advertisement yet: the subscription has no reverse path to follow.
  domain->unsubscribe(domain->subscribe(hosts[5], rect(0, 511, 0, 1023)));
  EXPECT_EQ(domain->stats(2).messagesSent, 0u);
  EXPECT_GT(sim.pendingEvents(), 0u);

  // Floods to partitions 1 and 2, which hold it when the call returns.
  domain->advertise(hosts[0], rect(0, 1023, 0, 1023));
  EXPECT_EQ(sim.pendingEvents(), 0u);
  EXPECT_EQ(domain->stats(1).externalRequests, 1u);
  EXPECT_EQ(domain->stats(2).externalRequests, 1u);

  domain->publish(hosts[0], {100, 100}, 2);
  // Covered by what partition 0 already relayed: suppressed, no drain.
  domain->advertise(hosts[1], rect(0, 511, 0, 1023));
  EXPECT_GT(domain->stats(0).advsSuppressed, 0u);
  EXPECT_GT(sim.pendingEvents(), 0u);

  // Follows the advertisement back to partition 0 through partition 1.
  domain->subscribe(hosts[5], rect(0, 511, 0, 1023));
  EXPECT_EQ(sim.pendingEvents(), 0u);
  EXPECT_EQ(domain->stats(1).externalRequests, 2u);
  EXPECT_EQ(domain->stats(0).externalRequests, 1u);
}

TEST_F(ThreeDomainFixture, ControlTrafficAccounting) {
  domain->advertise(hosts[0], rect(0, 511, 0, 1023));
  domain->subscribe(hosts[5], rect(0, 255, 0, 1023));
  const std::uint64_t total = domain->totalControlMessages();
  // 2 internal requests + at least 2 adv relays + at least 2 sub relays.
  EXPECT_GE(total, 6u);
  std::uint64_t internal = 0;
  for (PartitionId p = 0; p < 3; ++p) {
    internal += domain->stats(p).internalRequests;
  }
  EXPECT_EQ(internal, 2u);
}

TEST_F(ThreeDomainFixture, UnsubscribeStopsCrossDomainDelivery) {
  domain->advertise(hosts[0], rect(0, 1023, 0, 1023));
  const GlobalSubscriptionId s =
      domain->subscribe(hosts[5], rect(0, 511, 0, 1023));
  ASSERT_EQ(publishAndCollect(hosts[0], {100, 100}),
            (std::set<net::NodeId>{hosts[5]}));
  domain->unsubscribe(s);
  // Never a false delivery after retraction (remote relays may linger and
  // waste bandwidth, but events must not reach the unsubscribed host).
  EXPECT_TRUE(publishAndCollect(hosts[0], {100, 100}).empty());
}

TEST_F(ThreeDomainFixture, UnsubscribeKeepsOtherRemoteSubscriber) {
  domain->advertise(hosts[0], rect(0, 1023, 0, 1023));
  const GlobalSubscriptionId s1 =
      domain->subscribe(hosts[5], rect(0, 511, 0, 1023));
  domain->subscribe(hosts[4], rect(0, 511, 0, 1023));
  domain->unsubscribe(s1);
  EXPECT_EQ(publishAndCollect(hosts[0], {100, 100}),
            (std::set<net::NodeId>{hosts[4]}));
}

TEST(MultiDomain, SinglePartitionBehavesLikePlainController) {
  net::Topology topo = net::Topology::testbedFatTree();
  std::vector<PartitionId> partitionOf(
      static_cast<std::size_t>(topo.nodeCount()), 0);
  const auto hosts = topo.hosts();
  MultiDomain domain(std::move(topo), std::move(partitionOf),
                     dz::EventSpace(2, 10));
  std::set<net::NodeId> got;
  domain.network().setDeliverHandler(
      [&](net::NodeId h, const net::Packet&) { got.insert(h); });
  domain.advertise(hosts[0], rect(0, 1023, 0, 1023));
  domain.subscribe(hosts[7], rect(0, 511, 0, 1023));
  EXPECT_EQ(domain.stats(0).messagesSent, 0u);  // nobody to talk to
  domain.publish(hosts[0], {100, 100});
  domain.settle();
  EXPECT_EQ(got, (std::set<net::NodeId>{hosts[7]}));
}

TEST_F(ThreeDomainFixture, BorderLinkFailureIsolatesButLocalDeliveryContinues) {
  // Fail the physical border link between partitions 1 and 2 (without any
  // repair protocol — the paper has none for inter-partition links). The
  // far partition stops receiving; delivery inside and across the intact
  // border keeps working; nothing crashes.
  domain->advertise(hosts[0], rect(0, 1023, 0, 1023));
  domain->subscribe(hosts[1], rect(0, 511, 0, 1023));  // partition 0
  domain->subscribe(hosts[3], rect(0, 511, 0, 1023));  // partition 1
  domain->subscribe(hosts[5], rect(0, 511, 0, 1023));  // partition 2
  ASSERT_EQ(publishAndCollect(hosts[0], {100, 100}),
            (std::set<net::NodeId>{hosts[1], hosts[3], hosts[5]}));

  // The border between partitions 1 and 2 is the unique switch-switch link
  // whose ends lie in different partitions 1 and 2.
  const auto& topo = domain->network().topology();
  net::LinkId border = net::kInvalidLink;
  const auto sw = topo.switches();
  for (net::LinkId l = 0; l < topo.linkCount(); ++l) {
    const net::Link& link = topo.link(l);
    if (!topo.isSwitch(link.a.node) || !topo.isSwitch(link.b.node)) continue;
    // Partition = switch index / 2 in this fixture.
    auto part = [&](net::NodeId n) {
      return static_cast<int>(std::find(sw.begin(), sw.end(), n) - sw.begin()) / 2;
    };
    if ((part(link.a.node) == 1 && part(link.b.node) == 2) ||
        (part(link.a.node) == 2 && part(link.b.node) == 1)) {
      border = l;
    }
  }
  ASSERT_NE(border, net::kInvalidLink);
  domain->network().setLinkUp(border, false);

  EXPECT_EQ(publishAndCollect(hosts[0], {100, 100}),
            (std::set<net::NodeId>{hosts[1], hosts[3]}));
  EXPECT_GT(domain->network().counters().dropped(net::DropReason::kLinkDown), 0u);

  // Restoring the physical link restores cross-border delivery (flows were
  // never removed).
  domain->network().setLinkUp(border, true);
  EXPECT_EQ(publishAndCollect(hosts[0], {100, 100}),
            (std::set<net::NodeId>{hosts[1], hosts[3], hosts[5]}));
}

TEST(MultiDomain, PodPartitionedFatTreeDelivers) {
  // k=4 fat-tree (the paper's 20-switch Mininet scale) partitioned by pod:
  // cores + pod 0 form partition 0; pods 1-3 are partitions 1-3. Each pod
  // partition has multiple physical border links into partition 0 (one per
  // aggregation switch uplink) — the gateway selection must cope.
  net::Topology topo = net::Topology::kAryFatTree(4);
  std::vector<PartitionId> partitionOf(
      static_cast<std::size_t>(topo.nodeCount()), 0);
  const auto sw = topo.switches();
  // Layout from the builder: 4 cores, then per pod 2 agg + 2 edge.
  for (std::size_t i = 4; i < sw.size(); ++i) {
    partitionOf[static_cast<std::size_t>(sw[i])] =
        static_cast<PartitionId>((i - 4) / 4);  // pod index
  }
  const auto hosts = topo.hosts();
  MultiDomain domain(std::move(topo), std::move(partitionOf),
                     dz::EventSpace(2, 10));
  ASSERT_EQ(domain.partitionCount(), 4u);
  // Pod partitions 1..3 border only partition 0 (via the cores), through
  // several physical links.
  EXPECT_GE(domain.discovery(1).borderPorts.size(), 2u);

  std::set<net::NodeId> got;
  domain.network().setDeliverHandler(
      [&](net::NodeId h, const net::Packet&) { got.insert(h); });

  // Publisher in pod 1, subscribers in pod 0, pod 3 and locally.
  domain.advertise(hosts[4], rect(0, 1023, 0, 1023));
  domain.subscribe(hosts[0], rect(0, 511, 0, 1023));   // pod 0
  domain.subscribe(hosts[12], rect(0, 511, 0, 1023));  // pod 3
  domain.subscribe(hosts[7], rect(0, 511, 0, 1023));   // pod 1 (local)
  domain.publish(hosts[4], {100, 100});
  domain.settle();
  EXPECT_EQ(got, (std::set<net::NodeId>{hosts[0], hosts[7], hosts[12]}));

  got.clear();
  domain.publish(hosts[4], {900, 100});
  domain.settle();
  EXPECT_TRUE(got.empty());
}

TEST(MultiDomain, RingOfPartitionsDelivers) {
  // 8-switch ring, 4 partitions: events must traverse multiple borders,
  // and the cycle of partitions must not deliver them twice.
  net::Topology topo = net::Topology::ring(8);
  std::vector<PartitionId> partitionOf = contiguousPartitions(topo, 4);
  const auto hosts = topo.hosts();
  MultiDomain domain(std::move(topo), std::move(partitionOf),
                     dz::EventSpace(2, 10));
  std::map<net::NodeId, int> got;
  domain.network().setDeliverHandler(
      [&](net::NodeId h, const net::Packet&) { ++got[h]; });
  domain.advertise(hosts[0], rect(0, 1023, 0, 1023));
  domain.subscribe(hosts[4], rect(0, 511, 0, 1023));  // opposite side
  domain.publish(hosts[0], {100, 100});
  domain.settle();
  EXPECT_EQ(got, (std::map<net::NodeId, int>{{hosts[4], 1}}));
}

}  // namespace
}  // namespace pleroma::interop
