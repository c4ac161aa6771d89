#include "baseline/broker_overlay.hpp"

#include <gtest/gtest.h>

#include <set>

namespace pleroma::baseline {
namespace {

dz::Rectangle rect(dz::AttributeValue aLo, dz::AttributeValue aHi,
                   dz::AttributeValue bLo, dz::AttributeValue bHi) {
  return dz::Rectangle{{dz::Range{aLo, aHi}, dz::Range{bLo, bHi}}};
}

std::set<net::NodeId> deliveredHosts(const BrokerOverlay::PublishResult& r) {
  std::set<net::NodeId> out;
  for (const auto& d : r.deliveries) out.insert(d.host);
  return out;
}

struct OverlayFixture : ::testing::Test {
  OverlayFixture()
      : topo(net::Topology::testbedFatTree()), overlay(topo) {
    hosts = topo.hosts();
  }
  net::Topology topo;
  BrokerOverlay overlay;
  std::vector<net::NodeId> hosts;
};

TEST_F(OverlayFixture, DeliversToMatchingSubscriberOnly) {
  overlay.subscribe(hosts[5], rect(0, 511, 0, 1023));
  overlay.subscribe(hosts[6], rect(512, 1023, 0, 1023));
  const auto r = overlay.publish(hosts[0], {100, 100});
  EXPECT_EQ(deliveredHosts(r), (std::set<net::NodeId>{hosts[5]}));
}

TEST_F(OverlayFixture, ExactMatchingHasNoFalsePositives) {
  overlay.subscribe(hosts[5], rect(0, 100, 0, 100));
  // Inside the same coarse region but outside the exact rectangle.
  const auto r = overlay.publish(hosts[0], {150, 150});
  EXPECT_TRUE(r.deliveries.empty());
}

TEST_F(OverlayFixture, NoSubscribersNoForwarding) {
  const auto r = overlay.publish(hosts[0], {1, 1});
  EXPECT_TRUE(r.deliveries.empty());
  // Only the publisher's access link is crossed.
  EXPECT_EQ(r.linkCrossings, 1u);
}

TEST_F(OverlayFixture, DelayIncludesBrokerProcessing) {
  overlay.subscribe(hosts[7], rect(0, 1023, 0, 1023));
  const auto r = overlay.publish(hosts[0], {5, 5});
  ASSERT_EQ(r.deliveries.size(), 1u);
  // At minimum: 2 access links + 1 broker base delay.
  EXPECT_GT(r.deliveries[0].delay, 2 * 50 * net::kMicrosecond);
  EXPECT_GT(r.matchOperations, 0u);
}

TEST_F(OverlayFixture, MoreFiltersMeanMoreDelay) {
  overlay.subscribe(hosts[7], rect(0, 1023, 0, 1023));
  const auto before = overlay.publish(hosts[0], {5, 5});
  // Load the brokers with many additional filters.
  for (int i = 0; i < 200; ++i) {
    overlay.subscribe(hosts[6], rect(0, 1023, 0, 1023));
  }
  const auto after = overlay.publish(hosts[0], {5, 5});
  net::SimTime dBefore = 0, dAfter = 0;
  for (const auto& d : before.deliveries) {
    if (d.host == hosts[7]) dBefore = d.delay;
  }
  for (const auto& d : after.deliveries) {
    if (d.host == hosts[7]) dAfter = d.delay;
  }
  EXPECT_GT(dAfter, dBefore);  // software matching cost grows with state
}

TEST_F(OverlayFixture, CoveringSuppressesPropagation) {
  overlay.subscribe(hosts[5], rect(0, 1023, 0, 1023));
  const auto msgsBefore = overlay.subscriptionMessages();
  const auto entriesBefore = overlay.totalRoutingEntries();
  // A covered subscription from the same host propagates at most one hop
  // pattern fewer — suppression must reduce message count versus the first.
  overlay.subscribe(hosts[5], rect(0, 100, 0, 100));
  const auto newMsgs = overlay.subscriptionMessages() - msgsBefore;
  EXPECT_EQ(newMsgs, 0u);  // fully covered at the access broker
  EXPECT_EQ(overlay.totalRoutingEntries(), entriesBefore + 1);
}

TEST_F(OverlayFixture, PublisherNotEchoed) {
  overlay.subscribe(hosts[0], rect(0, 1023, 0, 1023));
  overlay.subscribe(hosts[1], rect(0, 1023, 0, 1023));
  const auto r = overlay.publish(hosts[0], {1, 1});
  // hosts[0] published; only hosts[1] receives.
  EXPECT_EQ(deliveredHosts(r), (std::set<net::NodeId>{hosts[1]}));
}

TEST_F(OverlayFixture, BandwidthAccounting) {
  overlay.subscribe(hosts[7], rect(0, 1023, 0, 1023));
  const auto r = overlay.publish(hosts[0], {1, 1}, /*packetBytes=*/100);
  EXPECT_EQ(r.bytesOnLinks, r.linkCrossings * 100u);
  EXPECT_GE(r.linkCrossings, 2u);
}

TEST(BrokerOverlay, RingTopology) {
  const net::Topology topo = net::Topology::ring(8);
  BrokerOverlay overlay(topo);
  const auto hosts = topo.hosts();
  overlay.subscribe(hosts[4], rect(0, 1023, 0, 1023));
  const auto r = overlay.publish(hosts[0], {1, 1});
  ASSERT_EQ(r.deliveries.size(), 1u);
  EXPECT_EQ(r.deliveries[0].host, hosts[4]);
}

}  // namespace
}  // namespace pleroma::baseline
