// TCAM entry budget (Sec 3 coarsening instead of failing):
// an over-budget install coarsens the switch's flows to a sticky
// truncation length, forwarding becomes a superset (false positives,
// never misses), reconcile passes respect the coarsened projection, and
// the coarsening decision is deterministic.
#include "controller/flow_installer.hpp"
#include "controller/path_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "net/packet.hpp"

namespace pleroma::ctrl {
namespace {

dz::DzExpression dz(std::string_view s) { return *dz::DzExpression::fromString(s); }
dz::DzSet set(std::string_view s) { return *dz::DzSet::fromString(s); }

struct TcamBudgetFixture : ::testing::Test {
  TcamBudgetFixture()
      : topo(net::Topology::line(2)),
        network(topo, sim, {}),
        channel(network),
        installer(channel) {
    sw = topo.switches()[0];
  }

  std::size_t tableSize() { return network.flowTable(sw).size(); }

  /// Out-ports the switch applies to an address, empty when it drops.
  std::vector<net::PortId> portsFor(std::string_view dzStr) {
    const auto* e = network.flowTable(sw).lookup(dz::dzToAddress(dz(dzStr)));
    if (e == nullptr) return {};
    auto p = e->outPorts();
    std::sort(p.begin(), p.end());
    return p;
  }

  net::Topology topo;
  net::Simulator sim;
  net::Network network;
  openflow::ControlChannel channel;
  FlowInstaller installer;
  net::NodeId sw;
};

TEST_F(TcamBudgetFixture, WithinBudgetInstallsExactly) {
  installer.setTcamBudget(4);
  installer.installPath(set("000,011,110"), {RouteHop{sw, 2, std::nullopt}});
  EXPECT_EQ(tableSize(), 3u);
  EXPECT_EQ(installer.coarsenLength(sw), -1);
  EXPECT_EQ(installer.coarsenStats().events, 0u);
}

TEST_F(TcamBudgetFixture, OverBudgetCoarsensInsteadOfFailing) {
  installer.setTcamBudget(2);
  // Four disjoint length-3 pieces on different ports: no merge is free.
  installer.installPath(set("000"), {RouteHop{sw, 2, std::nullopt}});
  installer.installPath(set("010"), {RouteHop{sw, 3, std::nullopt}});
  installer.installPath(set("100"), {RouteHop{sw, 2, std::nullopt}});
  installer.installPath(set("110"), {RouteHop{sw, 3, std::nullopt}});
  EXPECT_LE(tableSize(), 2u);
  EXPECT_GE(installer.coarsenLength(sw), 0);
  EXPECT_GE(installer.coarsenStats().events, 1u);
  EXPECT_GT(installer.coarsenStats().addedVolume, 0.0);
}

TEST_F(TcamBudgetFixture, CoarsenedForwardingIsSupersetNeverMiss) {
  installer.setTcamBudget(2);
  installer.installPath(set("000"), {RouteHop{sw, 2, std::nullopt}});
  installer.installPath(set("010"), {RouteHop{sw, 3, std::nullopt}});
  installer.installPath(set("100"), {RouteHop{sw, 2, std::nullopt}});
  installer.installPath(set("110"), {RouteHop{sw, 3, std::nullopt}});
  // Every originally-installed subspace still forwards to at least its
  // original port (no misses), possibly to more (false positives).
  const std::vector<std::pair<std::string_view, net::PortId>> intents = {
      {"000", 2}, {"010", 3}, {"100", 2}, {"110", 3}};
  for (const auto& [d, port] : intents) {
    const auto ports = portsFor(d);
    EXPECT_TRUE(std::find(ports.begin(), ports.end(), port) != ports.end())
        << "missed intent " << d;
  }
}

TEST_F(TcamBudgetFixture, ReconcileRespectsCoarsenedProjection) {
  installer.setTcamBudget(2);
  installer.installPath(set("000"), {RouteHop{sw, 2, std::nullopt}});
  installer.installPath(set("010"), {RouteHop{sw, 3, std::nullopt}});
  installer.installPath(set("100"), {RouteHop{sw, 2, std::nullopt}});
  installer.installPath(set("110"), {RouteHop{sw, 3, std::nullopt}});
  const int cap = installer.coarsenLength(sw);
  ASSERT_GE(cap, 0);

  // Reconcile against fine-grained required intent: the pass must keep the
  // mirror within the projection (never resurrect finer entries).
  PathRegistry required;
  for (const auto d : {"000", "010", "100", "110"}) {
    required.add(PathSpec{0, 0, 0, set(d), {RouteHop{sw, 2, std::nullopt}}});
  }
  installer.reconcileSwitch(sw, required);
  for (const auto& [d, entry] : installer.mirror(sw)) {
    EXPECT_LE(d.length(), cap);
  }
  EXPECT_LE(installer.mirror(sw).size(), 2u);
  EXPECT_TRUE(installer.mirrorsRequired(sw, required));

  // A root finer than the cap reconciles the subtree of its truncation:
  // moving 010 to port 3 widens the coarsened entry holding it, so 011
  // (covered by no required flow) gains port 3 too.
  PathRegistry changed;
  for (const auto& [d, port] : {std::pair{"000", 2}, {"010", 3}, {"100", 2}, {"110", 2}}) {
    changed.add(PathSpec{0, 0, 0, set(d), {RouteHop{sw, port, std::nullopt}}});
  }
  installer.reconcileSwitch(sw, changed, {dz("010")});
  EXPECT_TRUE(installer.mirrorsRequired(sw, changed));
  EXPECT_EQ(portsFor("011"), (std::vector<net::PortId>{2, 3}));
}

TEST_F(TcamBudgetFixture, LaterInstallsFoldIntoCoarsenedPrefixes) {
  installer.setTcamBudget(2);
  installer.installPath(set("000"), {RouteHop{sw, 2, std::nullopt}});
  installer.installPath(set("010"), {RouteHop{sw, 3, std::nullopt}});
  installer.installPath(set("100"), {RouteHop{sw, 2, std::nullopt}});
  installer.installPath(set("110"), {RouteHop{sw, 3, std::nullopt}});
  const std::size_t sizeAfterCoarsen = tableSize();
  // A fine install on a coarsened switch folds into its truncated prefix
  // instead of re-growing the table.
  installer.installPath(set("0011"), {RouteHop{sw, 4, std::nullopt}});
  EXPECT_LE(tableSize(), std::max<std::size_t>(sizeAfterCoarsen, 2u));
  const auto ports = portsFor("0011");
  EXPECT_TRUE(std::find(ports.begin(), ports.end(), 4) != ports.end());
}

TEST_F(TcamBudgetFixture, CoarseningIsDeterministic) {
  // Two installers fed the same sequence coarsen to the identical mirror.
  openflow::ControlChannel channel2(network);
  channel2.setMuted(true);
  FlowInstaller other(channel2);
  installer.setTcamBudget(3);
  other.setTcamBudget(3);
  const std::vector<std::string_view> pieces = {"0000", "0010", "0100", "0110",
                                                "1000", "1010", "1100", "1110"};
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    const net::PortId port = static_cast<net::PortId>(2 + i % 3);
    installer.installPath(set(pieces[i]), {RouteHop{sw, port, std::nullopt}});
    other.installPath(set(pieces[i]), {RouteHop{sw, port, std::nullopt}});
  }
  EXPECT_EQ(installer.coarsenLength(sw), other.coarsenLength(sw));
  const auto& ma = installer.mirror(sw);
  const auto& mb = other.mirror(sw);
  ASSERT_EQ(ma.size(), mb.size());
  auto ib = mb.begin();
  for (const auto& [d, e] : ma) {
    EXPECT_EQ(d, ib->first);
    EXPECT_EQ(e, ib->second);
    ++ib;
  }
}

}  // namespace
}  // namespace pleroma::ctrl
