#include "openflow/lldp.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace pleroma::openflow {
namespace {

// Three partitions in a line of 6 switches: {R1,R2} {R3,R4} {R5,R6}.
struct ThreePartitionLine : ::testing::Test {
  ThreePartitionLine() : topo(net::Topology::line(6)) {
    partitionOf.assign(static_cast<std::size_t>(topo.nodeCount()), -1);
    const auto sw = topo.switches();
    for (std::size_t i = 0; i < sw.size(); ++i) {
      partitionOf[static_cast<std::size_t>(sw[i])] = static_cast<PartitionId>(i / 2);
    }
  }
  net::Topology topo;
  std::vector<PartitionId> partitionOf;
};

TEST_F(ThreePartitionLine, SwitchesAssigned) {
  const auto results = discoverPartitions(topo, partitionOf);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].switches.size(), 2u);
  EXPECT_EQ(results[1].switches.size(), 2u);
  EXPECT_EQ(results[2].switches.size(), 2u);
}

TEST_F(ThreePartitionLine, HostsFollowAccessSwitch) {
  const auto results = discoverPartitions(topo, partitionOf);
  EXPECT_EQ(results[0].hosts.size(), 2u);
  EXPECT_EQ(results[1].hosts.size(), 2u);
  EXPECT_EQ(results[2].hosts.size(), 2u);
}

TEST_F(ThreePartitionLine, InternalLinksStayInside) {
  const auto results = discoverPartitions(topo, partitionOf);
  // Each partition has exactly one internal switch-switch link.
  for (const auto& r : results) {
    EXPECT_EQ(r.internalLinks.size(), 1u) << r.partition;
    for (const net::LinkId l : r.internalLinks) {
      const net::Link& link = topo.link(l);
      EXPECT_EQ(partitionOf[static_cast<std::size_t>(link.a.node)], r.partition);
      EXPECT_EQ(partitionOf[static_cast<std::size_t>(link.b.node)], r.partition);
    }
  }
}

TEST_F(ThreePartitionLine, BorderPortsSymmetric) {
  const auto results = discoverPartitions(topo, partitionOf);
  // Middle partition borders both neighbours; outer ones border only it.
  EXPECT_EQ(results[0].borderPorts.size(), 1u);
  EXPECT_EQ(results[1].borderPorts.size(), 2u);
  EXPECT_EQ(results[2].borderPorts.size(), 1u);
  EXPECT_EQ(results[0].borderPorts[0].neighborPartition, 1);
  EXPECT_EQ(results[2].borderPorts[0].neighborPartition, 1);

  // A border port belongs to a switch of its own partition and its link
  // leads into the named neighbour.
  for (const auto& r : results) {
    for (const BorderPort& bp : r.borderPorts) {
      EXPECT_EQ(partitionOf[static_cast<std::size_t>(bp.switchNode)], r.partition);
      const net::LinkEnd peer = topo.peer(bp.switchNode, bp.port);
      EXPECT_EQ(partitionOf[static_cast<std::size_t>(peer.node)],
                bp.neighborPartition);
    }
  }
}

TEST(Lldp, SinglePartitionHasNoBorders) {
  const net::Topology topo = net::Topology::testbedFatTree();
  std::vector<PartitionId> partitionOf(static_cast<std::size_t>(topo.nodeCount()), 0);
  const auto results = discoverPartitions(topo, partitionOf);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].borderPorts.empty());
  EXPECT_EQ(results[0].switches.size(), 10u);
  // All 12 switch-switch links are internal.
  EXPECT_EQ(results[0].internalLinks.size(), 12u);
}

TEST(Lldp, RingPartitioning) {
  const net::Topology topo = net::Topology::ring(8);
  std::vector<PartitionId> partitionOf(static_cast<std::size_t>(topo.nodeCount()), 0);
  const auto sw = topo.switches();
  for (std::size_t i = 0; i < sw.size(); ++i) {
    partitionOf[static_cast<std::size_t>(sw[i])] =
        static_cast<PartitionId>(i / 2);  // 4 partitions of 2
  }
  const auto results = discoverPartitions(topo, partitionOf);
  ASSERT_EQ(results.size(), 4u);
  // On a ring every partition has exactly two neighbours.
  for (const auto& r : results) {
    EXPECT_EQ(r.borderPorts.size(), 2u) << r.partition;
  }
}

}  // namespace
}  // namespace pleroma::openflow
