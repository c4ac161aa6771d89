// Tests of Algorithm 1's flowAddition cases 1-5 (Sec 3.3.2) against the
// worked example of Fig 4, plus reconcile-based removal.
#include "controller/flow_installer.hpp"
#include "controller/path_registry.hpp"

#include <gtest/gtest.h>

#include "net/packet.hpp"

#include <algorithm>

namespace pleroma::ctrl {
namespace {

dz::DzExpression dz(std::string_view s) { return *dz::DzExpression::fromString(s); }
dz::DzSet set(std::string_view s) { return *dz::DzSet::fromString(s); }

struct InstallerFixture : ::testing::Test {
  InstallerFixture()
      : topo(net::Topology::line(2)),
        network(topo, sim, {}),
        channel(network),
        installer(channel) {
    sw = topo.switches()[0];
  }

  /// Registers a one-hop path at the fixture's switch.
  void addPath(PathRegistry& reg, std::string_view dzs, net::PortId port) {
    reg.add(PathSpec{0, 0, 0, set(dzs), {RouteHop{sw, port, std::nullopt}}});
  }

  std::vector<net::PortId> portsAt(std::string_view dzStr) {
    const auto* e = network.flowTable(sw).find(dz::dzToPrefix(dz(dzStr)));
    if (e == nullptr) return {};
    auto p = e->outPorts();
    std::sort(p.begin(), p.end());
    return p;
  }
  bool hasFlow(std::string_view dzStr) {
    return network.flowTable(sw).find(dz::dzToPrefix(dz(dzStr))) != nullptr;
  }

  net::Topology topo;
  net::Simulator sim;
  net::Network network;
  openflow::ControlChannel channel;
  FlowInstaller installer;
  net::NodeId sw;
};

TEST_F(InstallerFixture, Case1AddToEmptyTable) {
  installer.installPath(set("10"), {RouteHop{sw, 2, std::nullopt}});
  EXPECT_EQ(portsAt("10"), std::vector<net::PortId>{2});
  EXPECT_EQ(channel.stats().flowAdds, 1u);
}

TEST_F(InstallerFixture, Case2CoveredByExistingDoesNothing) {
  installer.installPath(set("1"), {RouteHop{sw, 2, std::nullopt}});
  const auto before = channel.stats().flowModsSent;
  // New finer flow to the same port is already covered.
  installer.installPath(set("100"), {RouteHop{sw, 2, std::nullopt}});
  EXPECT_EQ(channel.stats().flowModsSent, before);
  EXPECT_FALSE(hasFlow("100"));
}

TEST_F(InstallerFixture, Case3NewCoarserFlowReplacesFiner) {
  // Fig 4 at R3/R4: existing dz=100 -> {2,3}; new dz=10 -> same ports
  // replaces it.
  installer.installPath(set("100"), {RouteHop{sw, 2, std::nullopt}});
  installer.installPath(set("100"), {RouteHop{sw, 3, std::nullopt}});
  installer.installPath(set("10"), {RouteHop{sw, 2, std::nullopt}});
  installer.installPath(set("10"), {RouteHop{sw, 3, std::nullopt}});
  EXPECT_FALSE(hasFlow("100"));
  EXPECT_EQ(portsAt("10"), (std::vector<net::PortId>{2, 3}));
}

TEST_F(InstallerFixture, Case4NewFinerFlowInheritsCoarserPorts) {
  // Existing coarser flow 1* -> 2; new finer flow 10 -> 3 must also carry
  // port 2 and rank higher (Fig 4 at R5's mirror case).
  installer.installPath(set("1"), {RouteHop{sw, 2, std::nullopt}});
  installer.installPath(set("10"), {RouteHop{sw, 3, std::nullopt}});
  EXPECT_EQ(portsAt("10"), (std::vector<net::PortId>{2, 3}));
  EXPECT_EQ(portsAt("1"), std::vector<net::PortId>{2});
  // Lookup for a dz=10 event applies the finer flow.
  const auto* hit = network.flowTable(sw).lookup(dz::dzToAddress(dz("101")));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->match, dz::dzToPrefix(dz("10")));
}

TEST_F(InstallerFixture, Case5ExistingFinerFlowGainsNewPorts) {
  // Fig 4 at R5: existing 100 -> 2; adding 10 -> 3 must update the finer
  // flow to {2,3} and add the new flow.
  installer.installPath(set("100"), {RouteHop{sw, 2, std::nullopt}});
  installer.installPath(set("10"), {RouteHop{sw, 3, std::nullopt}});
  EXPECT_EQ(portsAt("100"), (std::vector<net::PortId>{2, 3}));
  EXPECT_EQ(portsAt("10"), std::vector<net::PortId>{3});
  // Events in 100 follow the finer flow and reach both subscribers.
  const auto* hit = network.flowTable(sw).lookup(dz::dzToAddress(dz("1000")));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->match, dz::dzToPrefix(dz("100")));
}

TEST_F(InstallerFixture, Case5FinerFlowLeftEqualToItsCoverIsDeleted) {
  // Exact dz: 1 -> {1}, 10 -> {1,2}, 100 -> {1,2,3}. Extending 1 with port
  // 3 extends 10 to {1,2,3}, which leaves 100 equal to it: 100 is deleted
  // instead of kept (it already holds port 3, so it needs no modify).
  PathRegistry reg;
  for (const auto& [d, port] : {std::pair{"1", 1}, {"10", 2}, {"100", 3}, {"1", 3}}) {
    installer.installPath(set(d), {RouteHop{sw, port, std::nullopt}});
    addPath(reg, d, port);
    EXPECT_TRUE(installer.mirrorsRequired(sw, reg)) << d << " -> " << port;
  }
  EXPECT_EQ(portsAt("1"), (std::vector<net::PortId>{1, 3}));
  EXPECT_EQ(portsAt("10"), (std::vector<net::PortId>{1, 2, 3}));
  EXPECT_FALSE(hasFlow("100"));
  EXPECT_EQ(installer.caseStats().shadowModify, 1u);

  // New dz: 10 -> {2}, 100 -> {2,3}. Adding 1 -> 3 extends 10 to {2,3},
  // equal to 100, so 100 is deleted rather than modified.
  const net::NodeId other = topo.switches()[1];
  PathRegistry reg2;
  for (const auto& [d, port] : {std::pair{"10", 2}, {"100", 3}, {"1", 3}}) {
    installer.installPath(set(d), {RouteHop{other, port, std::nullopt}});
    reg2.add(PathSpec{0, 0, 0, set(d), {RouteHop{other, port, std::nullopt}}});
    EXPECT_TRUE(installer.mirrorsRequired(other, reg2)) << d << " -> " << port;
  }
  EXPECT_EQ(installer.mirror(other).size(), 2u);
  EXPECT_FALSE(installer.mirror(other).contains(dz("100")));
  const auto* hit = network.flowTable(other).lookup(dz::dzToAddress(dz("1000")));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->outPorts(), (std::vector<net::PortId>{2, 3}));
}

TEST_F(InstallerFixture, NewCoveringFlowLeavesAFinerFlowThatAlreadyForwardsIt) {
  // 100 -> {2,3}. A new flow 10 -> 2 covers it; 100 already forwards port
  // 2 and still needs port 3 of its own, so it keeps its entry and is sent
  // nothing: the install is the one add.
  installer.installPath(set("100"), {RouteHop{sw, 2, std::nullopt}});
  installer.installPath(set("100"), {RouteHop{sw, 3, std::nullopt}});
  const auto before = channel.stats();
  const FlowInstaller::CaseStats cases = installer.caseStats();
  installer.installPath(set("10"), {RouteHop{sw, 2, std::nullopt}});
  EXPECT_EQ(channel.stats().flowModsSent, before.flowModsSent + 1);
  EXPECT_EQ(channel.stats().flowAdds, before.flowAdds + 1);
  EXPECT_EQ(installer.caseStats().shadowModify, cases.shadowModify);
  EXPECT_EQ(portsAt("10"), std::vector<net::PortId>{2});
  EXPECT_EQ(portsAt("100"), (std::vector<net::PortId>{2, 3}));
  PathRegistry reg;
  addPath(reg, "100", 2);
  addPath(reg, "100", 3);
  addPath(reg, "10", 2);
  EXPECT_TRUE(installer.mirrorsRequired(sw, reg));
}

TEST_F(InstallerFixture, ExactDzMergesPorts) {
  installer.installPath(set("10"), {RouteHop{sw, 2, std::nullopt}});
  installer.installPath(set("10"), {RouteHop{sw, 3, std::nullopt}});
  EXPECT_EQ(portsAt("10"), (std::vector<net::PortId>{2, 3}));
  EXPECT_EQ(channel.stats().flowAdds, 1u);
  EXPECT_EQ(channel.stats().flowModifies, 1u);
}

TEST_F(InstallerFixture, ExactDzSamePortNoOp) {
  installer.installPath(set("10"), {RouteHop{sw, 2, std::nullopt}});
  const auto before = channel.stats().flowModsSent;
  installer.installPath(set("10"), {RouteHop{sw, 2, std::nullopt}});
  EXPECT_EQ(channel.stats().flowModsSent, before);
}

TEST_F(InstallerFixture, CountedPieceIsSkippedAsCase2) {
  // The registry counts 10 -> 2. A path asking for 10 -> 2 and 10 -> 3 at
  // the same switch sends nothing for the counted piece and books it as
  // case 2; the uncounted one still runs flowAddition and extends 10.
  PathRegistry reg;
  installer.installPath(set("10"), {RouteHop{sw, 2, std::nullopt}}, &reg);
  addPath(reg, "10", 2);
  const auto before = channel.stats();
  const FlowInstaller::CaseStats cases = installer.caseStats();
  installer.installPath(
      set("10"), {RouteHop{sw, 2, std::nullopt}, RouteHop{sw, 3, std::nullopt}},
      &reg);
  EXPECT_EQ(channel.stats().flowModsSent, before.flowModsSent + 1);
  EXPECT_EQ(channel.stats().flowModifies, before.flowModifies + 1);
  EXPECT_EQ(installer.caseStats().covered, cases.covered + 1);
  EXPECT_EQ(installer.caseStats().extend, cases.extend + 1);
  EXPECT_EQ(portsAt("10"), (std::vector<net::PortId>{2, 3}));

  // Without the registry the same counted piece runs flowAddition, which
  // stops at case 2 alike: the skip changes no flow-mod.
  installer.installPath(set("10"), {RouteHop{sw, 2, std::nullopt}});
  EXPECT_EQ(channel.stats().flowModsSent, before.flowModsSent + 1);
  EXPECT_EQ(installer.caseStats().covered, cases.covered + 2);
}

TEST_F(InstallerFixture, TerminalRewritePreserved) {
  const auto addr = net::hostAddress(9);
  installer.installPath(set("11"), {RouteHop{sw, 4, addr}});
  const auto* e = network.flowTable(sw).find(dz::dzToPrefix(dz("11")));
  ASSERT_NE(e, nullptr);
  ASSERT_EQ(e->actions.size(), 1u);
  EXPECT_EQ(e->actions[0].setDestination, addr);
}

TEST_F(InstallerFixture, RewriteDifferenceIsNotCovered) {
  // Same dz, same port, but one action rewrites: they are distinct actions,
  // so the install must modify rather than no-op.
  const auto addr = net::hostAddress(9);
  installer.installPath(set("11"), {RouteHop{sw, 4, std::nullopt}});
  installer.installPath(set("11"), {RouteHop{sw, 4, addr}});
  const auto* e = network.flowTable(sw).find(dz::dzToPrefix(dz("11")));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->actions[0].setDestination, addr);
}

TEST_F(InstallerFixture, MultiHopInstallsAlongRoute) {
  const net::NodeId sw2 = topo.switches()[1];
  installer.installPath(
      set("01"), {RouteHop{sw, 1, std::nullopt}, RouteHop{sw2, 2, std::nullopt}});
  EXPECT_TRUE(hasFlow("01"));
  EXPECT_NE(network.flowTable(sw2).find(dz::dzToPrefix(dz("01"))), nullptr);
}

TEST_F(InstallerFixture, MultiDzSetInstallsEachMember) {
  installer.installPath(set("00,11"), {RouteHop{sw, 2, std::nullopt}});
  EXPECT_TRUE(hasFlow("00"));
  EXPECT_TRUE(hasFlow("11"));
}

TEST_F(InstallerFixture, MirrorTracksTable) {
  installer.installPath(set("10"), {RouteHop{sw, 2, std::nullopt}});
  installer.installPath(set("1"), {RouteHop{sw, 2, std::nullopt}});
  const auto& mirror = installer.mirror(sw);
  EXPECT_EQ(mirror.size(), network.flowTable(sw).size());
  for (const auto& [d, entry] : mirror) {
    const auto* actual = network.flowTable(sw).find(entry.match);
    ASSERT_NE(actual, nullptr);
    EXPECT_EQ(*actual, entry);
  }
}

TEST_F(InstallerFixture, ReconcileAddsModifiesDeletes) {
  installer.installPath(set("10"), {RouteHop{sw, 2, std::nullopt}});
  installer.installPath(set("01"), {RouteHop{sw, 3, std::nullopt}});

  // Target: 10 -> {2,4} (modify), 11 -> {5} (add); 01 gone (delete).
  PathRegistry required;
  addPath(required, "10", 2);
  addPath(required, "10", 4);
  addPath(required, "11", 5);

  installer.reconcileSwitch(sw, required);
  EXPECT_EQ(portsAt("10"), (std::vector<net::PortId>{2, 4}));
  EXPECT_EQ(portsAt("11"), std::vector<net::PortId>{5});
  EXPECT_FALSE(hasFlow("01"));
  EXPECT_EQ(network.flowTable(sw).size(), 2u);
  EXPECT_EQ(installer.mirror(sw).size(), 2u);
}

TEST_F(InstallerFixture, ReconcileToEmptyClearsSwitch) {
  installer.installPath(set("10"), {RouteHop{sw, 2, std::nullopt}});
  installer.reconcileSwitch(sw, PathRegistry{});
  EXPECT_TRUE(network.flowTable(sw).empty());
  EXPECT_TRUE(installer.mirror(sw).empty());
}

TEST_F(InstallerFixture, ReconcileNoChangesSendsNothing) {
  PathRegistry required;
  addPath(required, "10", 2);
  installer.installPath(set("10"), {RouteHop{sw, 2, std::nullopt}});
  const auto before = channel.stats().flowModsSent;
  installer.reconcileSwitch(sw, required);
  EXPECT_EQ(channel.stats().flowModsSent, before);
}

TEST_F(InstallerFixture, ReconcileUnderRootsLeavesTheRest) {
  // Only the entries under the roots are diffed: 0's stale entry stays, 10's
  // and 110's subtrees follow the registry.
  installer.installPath(set("0"), {RouteHop{sw, 1, std::nullopt}});
  installer.installPath(set("10"), {RouteHop{sw, 2, std::nullopt}});
  installer.installPath(set("101"), {RouteHop{sw, 3, std::nullopt}});
  PathRegistry required;
  addPath(required, "1", 4);
  addPath(required, "101", 3);
  addPath(required, "110", 5);

  installer.reconcileSwitch(sw, required, {dz("10"), dz("110")});
  EXPECT_EQ(portsAt("0"), std::vector<net::PortId>{1});
  EXPECT_FALSE(hasFlow("10"));
  EXPECT_EQ(portsAt("101"), (std::vector<net::PortId>{3, 4}));
  EXPECT_EQ(portsAt("110"), (std::vector<net::PortId>{4, 5}));
  EXPECT_FALSE(hasFlow("1"));  // above the roots: not reconciled
  EXPECT_FALSE(installer.mirrorsRequired(sw, required));

  installer.reconcileSwitch(sw, required);
  EXPECT_TRUE(installer.mirrorsRequired(sw, required));
  EXPECT_FALSE(hasFlow("0"));
  EXPECT_EQ(portsAt("1"), std::vector<net::PortId>{4});
}

}  // namespace
}  // namespace pleroma::ctrl
