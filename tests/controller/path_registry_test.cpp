#include "controller/path_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "net/packet.hpp"
#include "util/rng.hpp"

namespace pleroma::ctrl {
namespace {

dz::DzExpression dz(std::string_view s) { return *dz::DzExpression::fromString(s); }
dz::DzSet set(std::string_view s) { return *dz::DzSet::fromString(s); }

PathSpec makePath(PublisherId p, SubscriptionId s, int tree,
                  std::string_view dzs,
                  std::vector<std::pair<net::NodeId, net::PortId>> hops,
                  std::optional<dz::Ipv6Address> terminalRewrite = {}) {
  PathSpec path;
  path.publisher = p;
  path.subscription = s;
  path.treeId = tree;
  path.dz = set(dzs);
  for (std::size_t i = 0; i < hops.size(); ++i) {
    path.hops.push_back(RouteHop{
        hops[i].first, hops[i].second,
        i + 1 == hops.size() ? terminalRewrite : std::nullopt});
  }
  return path;
}

/// A route as text, so routes can key ordered containers.
std::string routeKey(const std::vector<RouteHop>& hops) {
  std::string out;
  for (const RouteHop& hop : hops) {
    out += std::to_string(hop.switchNode) + ":" + std::to_string(hop.outPort);
    if (hop.rewrite) out += "=" + hop.rewrite->toString();
    out += " ";
  }
  return out;
}

/// Finds the required entry whose match equals the dz, or nullptr.
const net::FlowEntry* findFlow(const std::vector<net::FlowEntry>& flows,
                               std::string_view dzs) {
  const auto match = dz::dzToPrefix(dz(dzs));
  for (const auto& f : flows) {
    if (f.match == match) return &f;
  }
  return nullptr;
}

TEST(PathRegistry, AddRemoveAndIndexes) {
  PathRegistry reg;
  const PathId a = reg.add(makePath(1, 10, 0, "10", {{5, 1}, {6, 2}}));
  const PathId b = reg.add(makePath(1, 11, 0, "11", {{5, 1}}));
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_TRUE(reg.contains(a));
  EXPECT_EQ(reg.pathsOfSubscription(10), std::vector<PathId>{a});
  EXPECT_EQ(reg.pathsOfPublisher(1), (std::vector<PathId>{a, b}));
  EXPECT_EQ(reg.pathsOfTree(0), (std::vector<PathId>{a, b}));

  reg.remove(a);
  EXPECT_FALSE(reg.contains(a));
  EXPECT_TRUE(reg.pathsOfSubscription(10).empty());
  EXPECT_EQ(reg.allSwitches(), std::vector<net::NodeId>{5});
}

TEST(PathRegistry, AlreadyCovered) {
  PathRegistry reg;
  reg.add(makePath(1, 10, 0, "1", {{5, 1}}));
  EXPECT_TRUE(reg.alreadyCovered(1, 10, 0, set("10")));
  EXPECT_TRUE(reg.alreadyCovered(1, 10, 0, set("1")));
  EXPECT_FALSE(reg.alreadyCovered(1, 10, 0, set("0")));
  EXPECT_FALSE(reg.alreadyCovered(2, 10, 0, set("10")));  // other publisher
  EXPECT_FALSE(reg.alreadyCovered(1, 10, 1, set("10")));  // other tree
}

TEST(PathRegistry, RequiredFlowsSinglePath) {
  PathRegistry reg;
  const auto rewrite = net::hostAddress(42);
  reg.add(makePath(1, 10, 0, "10", {{5, 1}, {6, 2}}, rewrite));
  const auto flows5 = reg.requiredFlows(5);
  ASSERT_EQ(flows5.size(), 1u);
  EXPECT_EQ(flows5[0].match, dz::dzToPrefix(dz("10")));
  EXPECT_EQ(flows5[0].outPorts(), std::vector<net::PortId>{1});
  EXPECT_FALSE(flows5[0].actions[0].setDestination.has_value());
  const auto flows6 = reg.requiredFlows(6);
  ASSERT_EQ(flows6.size(), 1u);
  ASSERT_TRUE(flows6[0].actions[0].setDestination.has_value());
  EXPECT_EQ(*flows6[0].actions[0].setDestination, rewrite);
  EXPECT_TRUE(reg.requiredFlows(7).empty());
}

TEST(PathRegistry, FinerFlowInheritsCoarserPorts) {
  // Fig 4 shape at one switch: dz=100 -> port 2 and dz=10 -> port 3 means
  // the finer flow is the one that wins for its subspace... here dz=10 is
  // the coarser one; the finer (100) flow must forward to both ports.
  PathRegistry reg;
  reg.add(makePath(1, 10, 0, "10", {{5, 3}}));
  reg.add(makePath(1, 11, 0, "100", {{5, 2}}));
  const auto flows = reg.requiredFlows(5);
  ASSERT_EQ(flows.size(), 2u);
  const auto* coarse = findFlow(flows, "10");
  const auto* fine = findFlow(flows, "100");
  ASSERT_NE(coarse, nullptr);
  ASSERT_NE(fine, nullptr);
  EXPECT_EQ(coarse->outPorts(), std::vector<net::PortId>{3});
  auto finePorts = fine->outPorts();
  std::sort(finePorts.begin(), finePorts.end());
  EXPECT_EQ(finePorts, (std::vector<net::PortId>{2, 3}));
  // Priorities: longer dz ranks higher.
  EXPECT_GT(fine->priority, coarse->priority);
}

TEST(PathRegistry, RedundantFinerFlowDropped) {
  // A finer dz whose port is already served by a covering coarser flow
  // needs no flow of its own (paper's downgrade scenario, Sec 3.3.3).
  PathRegistry reg;
  reg.add(makePath(1, 10, 0, "10", {{5, 2}}));
  reg.add(makePath(1, 11, 0, "100", {{5, 2}}));
  const auto flows = reg.requiredFlows(5);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].match, dz::dzToPrefix(dz("10")));
}

TEST(PathRegistry, UnsubscribeDowngradesFlows) {
  // Paper Fig 4 / Sec 3.3.3: with s3 (dz=10) and s2 (dz=100) installed,
  // removing s3's paths leaves the switches needing only dz=100.
  PathRegistry reg;
  const PathId s3a = reg.add(makePath(1, 3, 0, "10", {{5, 2}}));
  reg.add(makePath(1, 2, 0, "100", {{5, 2}}));
  {
    const auto flows = reg.requiredFlows(5);
    ASSERT_EQ(flows.size(), 1u);
    EXPECT_EQ(flows[0].match, dz::dzToPrefix(dz("10")));  // coarser covers
  }
  reg.remove(s3a);
  const auto flows = reg.requiredFlows(5);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].match, dz::dzToPrefix(dz("100")));  // downgraded
}

TEST(PathRegistry, SameDzDifferentPortsUnion) {
  PathRegistry reg;
  reg.add(makePath(1, 10, 0, "10", {{5, 1}}));
  reg.add(makePath(1, 11, 0, "10", {{5, 2}}));
  const auto flows = reg.requiredFlows(5);
  ASSERT_EQ(flows.size(), 1u);
  auto ports = flows[0].outPorts();
  std::sort(ports.begin(), ports.end());
  EXPECT_EQ(ports, (std::vector<net::PortId>{1, 2}));
}

TEST(PathRegistry, MultiLevelInheritanceChain) {
  PathRegistry reg;
  reg.add(makePath(1, 10, 0, "1", {{5, 1}}));
  reg.add(makePath(1, 11, 0, "10", {{5, 2}}));
  reg.add(makePath(1, 12, 0, "101", {{5, 3}}));
  const auto flows = reg.requiredFlows(5);
  ASSERT_EQ(flows.size(), 3u);
  auto portsOf = [&](std::string_view d) {
    auto p = findFlow(flows, d)->outPorts();
    std::sort(p.begin(), p.end());
    return p;
  };
  EXPECT_EQ(portsOf("1"), (std::vector<net::PortId>{1}));
  EXPECT_EQ(portsOf("10"), (std::vector<net::PortId>{1, 2}));
  EXPECT_EQ(portsOf("101"), (std::vector<net::PortId>{1, 2, 3}));
}

TEST(PathRegistry, DisjointSubspacesIndependent) {
  PathRegistry reg;
  reg.add(makePath(1, 10, 0, "0", {{5, 1}}));
  reg.add(makePath(2, 11, 1, "1", {{5, 2}}));
  const auto flows = reg.requiredFlows(5);
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(findFlow(flows, "0")->outPorts(), std::vector<net::PortId>{1});
  EXPECT_EQ(findFlow(flows, "1")->outPorts(), std::vector<net::PortId>{2});
}

TEST(PathRegistry, MultiDzPathContributesAllMembers) {
  PathRegistry reg;
  reg.add(makePath(1, 10, 0, "00,01", {{5, 1}}));
  const auto flows = reg.requiredFlows(5);
  // {00,01} canonicalises to {0} inside a DzSet.
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].match, dz::dzToPrefix(dz("0")));
}

TEST(PathRegistry, ClearEmptiesEverything) {
  PathRegistry reg;
  reg.add(makePath(1, 10, 0, "0", {{5, 1}}));
  reg.clear();
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_TRUE(reg.allSwitches().empty());
  EXPECT_TRUE(reg.requiredFlows(5).empty());
}

TEST(PathRegistry, SharedContributionSurvivesOneRemoval) {
  // Two paths ask switch 5 for the same (dz, port): the flow stays until
  // the last of them is gone, and so does the switch.
  PathRegistry reg;
  const PathId a = reg.add(makePath(1, 10, 0, "10", {{5, 1}, {6, 2}}));
  const PathId b = reg.add(makePath(2, 11, 0, "10", {{5, 1}}));
  reg.remove(a);
  const auto flows = reg.requiredFlows(5);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].match, dz::dzToPrefix(dz("10")));
  EXPECT_EQ(flows[0].outPorts(), std::vector<net::PortId>{1});
  EXPECT_TRUE(reg.requiredFlows(6).empty());
  EXPECT_EQ(reg.allSwitches(), std::vector<net::NodeId>{5});
  reg.remove(b);
  EXPECT_TRUE(reg.requiredFlows(5).empty());
  EXPECT_TRUE(reg.allSwitches().empty());
}

TEST(PathRegistry, SetDzMovesContributionsAtEveryHop) {
  // Shrinking a path in place must move what it asks of every hop, while
  // another path's identical contribution at switch 6 stays.
  PathRegistry reg;
  const auto rewrite = net::hostAddress(42);
  const PathId a = reg.add(makePath(1, 10, 0, "0,10", {{5, 1}, {6, 2}, {7, 3}},
                                    rewrite));
  reg.add(makePath(2, 11, 0, "10", {{6, 2}}));
  reg.setDz(a, set("0"));
  for (const net::NodeId sw : {5, 7}) {
    const auto flows = reg.requiredFlows(sw);
    ASSERT_EQ(flows.size(), 1u) << "switch " << sw;
    EXPECT_EQ(flows[0].match, dz::dzToPrefix(dz("0")));
  }
  ASSERT_TRUE(reg.requiredFlows(7)[0].actions[0].setDestination.has_value());
  const auto flows6 = reg.requiredFlows(6);
  ASSERT_EQ(flows6.size(), 2u);
  EXPECT_NE(findFlow(flows6, "0"), nullptr);
  EXPECT_NE(findFlow(flows6, "10"), nullptr);

  reg.setDz(a, set("110"));
  for (const net::NodeId sw : {5, 6, 7}) {
    const auto flows = reg.requiredFlows(sw);
    EXPECT_EQ(findFlow(flows, "0"), nullptr) << "switch " << sw;
    EXPECT_NE(findFlow(flows, "110"), nullptr) << "switch " << sw;
  }
  EXPECT_NE(findFlow(reg.requiredFlows(6), "10"), nullptr);
}

TEST(PathRegistry, MoveRefilesUnderFreshIdAndRecountsChangedHops) {
  // A rebuild re-files a path under its new tree: a fresh id in every
  // index, and only the hop that changed (switch 6's port) moves its
  // contribution; the unchanged hop at switch 5 keeps it throughout.
  PathRegistry reg;
  const PathId a = reg.add(makePath(1, 10, 0, "10", {{5, 1}, {6, 2}}));
  const PathId b = reg.add(makePath(2, 11, 0, "10", {{6, 2}}));
  const RouteHop at5{5, 1, std::nullopt};
  const RouteHop at6{6, 2, std::nullopt};
  const RouteHop at6Moved{6, 3, std::nullopt};
  EXPECT_TRUE(reg.counts(dz("10"), at5));
  EXPECT_FALSE(reg.counts(dz("10"), at6Moved));
  EXPECT_FALSE(reg.counts(dz("1"), at5));  // another dz

  const PathId moved = reg.move(a, 7, {at5, at6Moved});
  EXPECT_GT(moved, b);
  EXPECT_FALSE(reg.contains(a));
  EXPECT_EQ(reg.at(moved).treeId, 7);
  EXPECT_EQ(reg.pathsOfTree(7), std::vector<PathId>{moved});
  EXPECT_EQ(reg.pathsOfTree(0), std::vector<PathId>{b});
  EXPECT_EQ(reg.pathsOfSubscription(10), std::vector<PathId>{moved});
  EXPECT_EQ(reg.pathsOfPublisher(1), std::vector<PathId>{moved});
  EXPECT_TRUE(reg.counts(dz("10"), at5));
  EXPECT_TRUE(reg.counts(dz("10"), at6Moved));
  EXPECT_TRUE(reg.counts(dz("10"), at6));  // still b's
  const auto flows6 = reg.requiredFlows(6);
  ASSERT_EQ(flows6.size(), 1u);
  EXPECT_EQ(flows6[0].outPorts(), (std::vector<net::PortId>{2, 3}));

  reg.remove(b);
  EXPECT_FALSE(reg.counts(dz("10"), at6));
  reg.remove(moved);
  EXPECT_FALSE(reg.counts(dz("10"), at5));
  EXPECT_TRUE(reg.allSwitches().empty());
}

TEST(PathRegistry, AddOrExtendGrowsThePairsPathUnlessTheUnionMerges) {
  PathRegistry reg;
  const PathId a = reg.add(makePath(1, 10, 0, "00", {{5, 1}, {6, 2}}));
  // Same pair, tree and hops, and 10 merges with nothing: one path.
  EXPECT_EQ(reg.addOrExtend(makePath(1, 10, 0, "10", {{5, 1}, {6, 2}})), a);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.at(a).dz, set("00,10"));
  EXPECT_NE(findFlow(reg.requiredFlows(6), "10"), nullptr);
  // 01 would merge with 00 into 0: a path of its own keeps the counts.
  const PathId b = reg.addOrExtend(makePath(1, 10, 0, "01", {{5, 1}, {6, 2}}));
  EXPECT_NE(b, a);
  EXPECT_EQ(reg.at(a).dz, set("00,10"));
  // Another route, publisher or tree never extends.
  EXPECT_NE(reg.addOrExtend(makePath(1, 10, 0, "110", {{5, 1}, {6, 3}})), a);
  EXPECT_NE(reg.addOrExtend(makePath(2, 10, 0, "110", {{5, 1}, {6, 2}})), a);
  EXPECT_NE(reg.addOrExtend(makePath(1, 10, 1, "110", {{5, 1}, {6, 2}})), a);
  EXPECT_EQ(reg.size(), 5u);
  EXPECT_EQ(reg.pathsOfSubscription(10).size(), 5u);

  // Tree 0's paths run along two routes; the first one carries three.
  std::map<std::string, std::size_t> routes;
  for (const auto& [hops, paths] : reg.routesOfTree(0)) {
    routes[routeKey(*hops)] = paths;
  }
  EXPECT_EQ(routes, (std::map<std::string, std::size_t>{{"5:1 6:2 ", 3},
                                                        {"5:1 6:3 ", 1}}));

  // Removing the extended path uncounts both of its members.
  reg.remove(a);
  EXPECT_EQ(findFlow(reg.requiredFlows(6), "00"), nullptr);
  EXPECT_EQ(findFlow(reg.requiredFlows(6), "10"), nullptr);
  EXPECT_TRUE(reg.contains(b));
}

TEST(PathRegistry, RoutesAreStoredOnceAndReleasedWithTheirLastPath) {
  PathRegistry reg;
  constexpr std::size_t kPath = sizeof(InstalledPath) + sizeof(dz::DzExpression);
  constexpr std::size_t kTwoHops = sizeof(Route) + 2 * sizeof(RouteHop);
  const PathId a = reg.add(makePath(1, 10, 0, "10", {{5, 1}, {6, 2}}));
  const PathId b = reg.add(makePath(2, 11, 0, "0", {{5, 1}, {6, 2}}));
  EXPECT_EQ(reg.stateBytes(), 2 * kPath + kTwoHops);
  // Moving onto new hops interns them; the old route stays for b.
  const PathId moved = reg.move(a, 1, {{5, 1, std::nullopt}, {6, 3, std::nullopt}});
  EXPECT_EQ(reg.stateBytes(), 2 * kPath + 2 * kTwoHops);
  reg.remove(b);
  EXPECT_EQ(reg.stateBytes(), kPath + kTwoHops);
  reg.remove(moved);
  EXPECT_EQ(reg.stateBytes(), 0u);
  reg.add(makePath(1, 10, 0, "10", {{5, 1}}));
  reg.clear();
  EXPECT_EQ(reg.stateBytes(), 0u);
}

// ---- differential test against a path-scanning oracle ---------------------

using Actions = std::map<net::PortId, std::optional<dz::Ipv6Address>>;

/// The required flow set of `sw`, derived by scanning every live path: the
/// reference the registry's per-switch index must match.
std::vector<net::FlowEntry> scanRequiredFlows(
    const std::map<PathId, PathSpec>& live, net::NodeId sw) {
  std::map<dz::DzExpression, Actions> contrib;
  for (const auto& [id, path] : live) {
    for (const RouteHop& hop : path.hops) {
      if (hop.switchNode != sw) continue;
      for (const dz::DzExpression& d : path.dz) {
        auto [it, inserted] = contrib[d].emplace(hop.outPort, hop.rewrite);
        if (!inserted && hop.rewrite) it->second = hop.rewrite;
      }
    }
  }
  std::vector<net::FlowEntry> out;
  std::vector<std::pair<dz::DzExpression, Actions>> stack;
  for (const auto& [d, actions] : contrib) {
    while (!stack.empty() && !stack.back().first.covers(d)) stack.pop_back();
    const Actions* inherited = stack.empty() ? nullptr : &stack.back().second;
    bool redundant = inherited != nullptr;
    if (redundant) {
      for (const auto& [port, rewrite] : actions) {
        const auto it = inherited->find(port);
        if (it == inherited->end() || it->second != rewrite) {
          redundant = false;
          break;
        }
      }
    }
    Actions cumulative = inherited ? *inherited : Actions{};
    for (const auto& [port, rewrite] : actions) {
      auto [it, inserted] = cumulative.emplace(port, rewrite);
      if (!inserted && rewrite) it->second = rewrite;
    }
    if (!redundant) {
      net::FlowEntry entry;
      entry.match = dz::dzToPrefix(d);
      entry.priority = d.length();
      for (const auto& [port, rewrite] : cumulative) {
        entry.actions.push_back(net::FlowAction{port, rewrite});
      }
      out.push_back(std::move(entry));
    }
    stack.emplace_back(d, std::move(cumulative));
  }
  return out;
}

std::string render(const std::vector<net::FlowEntry>& flows) {
  std::string out;
  for (const net::FlowEntry& f : flows) {
    out += f.match.toString() + " prio=" + std::to_string(f.priority) + " ->";
    for (const net::FlowAction& a : f.actions) {
      out += " " + std::to_string(a.port);
      if (a.setDestination) out += "=" + a.setDestination->toString();
    }
    out += "\n";
  }
  return out;
}

/// A random dz of length 0-6; half the draws come from a small shared pool
/// so that many paths contribute the same (dz, port).
dz::DzExpression randomDz(util::Rng& rng,
                          const std::vector<dz::DzExpression>& pool) {
  if (rng.chance(0.5)) return pool[rng.uniformInt(0, pool.size() - 1)];
  std::string bits;
  const auto length = rng.uniformInt(0, 6);
  for (std::uint64_t i = 0; i < length; ++i) bits += rng.chance(0.5) ? '1' : '0';
  return dz(bits);
}

dz::DzSet randomDzSet(util::Rng& rng, const std::vector<dz::DzExpression>& pool) {
  dz::DzSet out;
  const auto members = rng.uniformInt(1, 3);
  for (std::uint64_t i = 0; i < members; ++i) out.insert(randomDz(rng, pool));
  return out;
}

/// The entries of `flows` whose dz some root covers (`under`), or the rest.
std::vector<net::FlowEntry> byRoots(const std::vector<net::FlowEntry>& flows,
                                    const std::vector<dz::DzExpression>& roots,
                                    bool under = true) {
  std::vector<net::FlowEntry> out;
  for (const net::FlowEntry& f : flows) {
    const dz::DzExpression d = *dz::prefixToDz(f.match);
    const bool covered = std::any_of(roots.begin(), roots.end(),
                                     [&](const auto& r) { return r.covers(d); });
    if (covered == under) out.push_back(f);
  }
  return out;
}

/// Random minimal roots in trie order: dz drawn like path members, those
/// covered by another dropped.
std::vector<dz::DzExpression> randomRoots(util::Rng& rng,
                                          const std::vector<dz::DzExpression>& pool) {
  std::vector<dz::DzExpression> drawn;
  const auto count = rng.uniformInt(1, 4);
  for (std::uint64_t i = 0; i < count; ++i) drawn.push_back(randomDz(rng, pool));
  std::sort(drawn.begin(), drawn.end());
  std::vector<dz::DzExpression> roots;
  for (const dz::DzExpression& d : drawn) {
    if (roots.empty() || !roots.back().covers(d)) roots.push_back(d);
  }
  return roots;
}

TEST(PathRegistry, RandomOpsMatchPathScanningOracle) {
  constexpr net::NodeId kSwitches = 6;
  constexpr net::PortId kPorts = 4;
  util::Rng rng(20260415);
  std::vector<dz::DzExpression> pool;
  for (int i = 0; i < 8; ++i) {
    std::string bits;
    for (int b = 0; b <= i % 4; ++b) bits += rng.chance(0.5) ? '1' : '0';
    pool.push_back(dz(bits));
  }

  PathRegistry reg;
  std::map<PathId, PathSpec> live;
  auto pickLive = [&]() {
    auto it = live.begin();
    std::advance(it, static_cast<long>(rng.uniformInt(0, live.size() - 1)));
    return it->first;
  };

  auto randomHops = [&] {
    std::vector<RouteHop> hops;
    const auto hopCount = rng.uniformInt(1, 4);
    for (std::uint64_t h = 0; h < hopCount; ++h) {
      const auto sw = static_cast<net::NodeId>(rng.uniformInt(0, kSwitches - 1));
      const auto port = static_cast<net::PortId>(rng.uniformInt(1, kPorts));
      // A terminal hop towards a real host rewrites to that host's
      // address, which one (switch, port) always identifies.
      std::optional<dz::Ipv6Address> rewrite;
      if (h + 1 == hopCount && rng.chance(0.5)) {
        rewrite = net::hostAddress(100 + sw * kPorts + port);
      }
      hops.push_back(RouteHop{sw, port, rewrite});
    }
    return hops;
  };

  // alreadyCovered as a scan of every live path.
  const auto scanCovered = [&live](PublisherId p, SubscriptionId s, int tree,
                                   const dz::DzSet& d) {
    return std::any_of(live.begin(), live.end(), [&](const auto& entry) {
      const PathSpec& path = entry.second;
      return path.publisher == p && path.subscription == s &&
             path.treeId == tree && path.dz.coversSet(d);
    });
  };

  // The union of two dz sets merges no members: no member of one overlaps,
  // or is the sibling of, a member of the other.
  const auto unmerged = [](const dz::DzSet& a, const dz::DzSet& b) {
    return std::none_of(a.begin(), a.end(), [&](const dz::DzExpression& x) {
      return std::any_of(b.begin(), b.end(), [&](const dz::DzExpression& y) {
        return x.covers(y) || y.covers(x) ||
               (x.length() > 0 && x.length() == y.length() &&
                x.sibling() == y);
      });
    });
  };

  std::size_t adds = 0, removes = 0, setDzs = 0, moves = 0, clears = 0;
  std::size_t extends = 0, extendsDeclined = 0;
  std::size_t coveredHits = 0;
  std::map<net::NodeId, std::vector<net::FlowEntry>> before;
  util::Rng rootRng(7);
  util::Rng queryRng(11);
  for (int step = 0; step < 3500; ++step) {
    reg.recordChanges();
    bool cleared = false;
    std::optional<std::pair<int, PathSpec>> refiled;  // old tree, path
    const double op = rng.uniformReal();
    if (live.empty() || op < 0.36) {
      PathSpec path;
      path.publisher = static_cast<PublisherId>(rng.uniformInt(0, 3));
      path.subscription = static_cast<SubscriptionId>(rng.uniformInt(0, 20));
      path.treeId = static_cast<int>(rng.uniformInt(0, 2));
      path.dz = randomDzSet(rng, pool);
      path.hops = randomHops();
      live.emplace(reg.add(path), path);
      ++adds;
    } else if (op < 0.46) {
      // Another piece of a live path's pair on its route, mostly disjoint
      // from that path's dz: extended into a path of the pair whose union
      // merges nothing, else registered on its own.
      const PathSpec& source = live.at(pickLive());
      PathSpec piece = source;
      piece.dz = randomDzSet(rng, pool);
      for (int tries = 0; tries < 4 && piece.dz.overlaps(source.dz); ++tries) {
        piece.dz = randomDzSet(rng, pool);
      }
      const auto fits = [&](const PathSpec& path) {
        return path.publisher == piece.publisher &&
               path.subscription == piece.subscription &&
               path.treeId == piece.treeId && path.hops == piece.hops &&
               unmerged(path.dz, piece.dz);
      };
      const PathId id = reg.addOrExtend(piece);
      if (const auto it = live.find(id); it != live.end()) {
        ASSERT_TRUE(fits(it->second)) << "step " << step << ": extended path "
                                      << id << " across a merge or pair";
        it->second.dz.unionWith(piece.dz);
        ++extends;
      } else {
        ASSERT_TRUE(std::none_of(live.begin(), live.end(),
                                 [&](const auto& e) { return fits(e.second); }))
            << "step " << step << ": a path could have been extended";
        live.emplace(id, piece);
        ++extendsDeclined;
      }
    } else if (op < 0.68) {
      const PathId id = pickLive();
      reg.remove(id);
      live.erase(id);
      ++removes;
    } else if (op < 0.88) {
      const PathId id = pickLive();
      dz::DzSet next = randomDzSet(rng, pool);
      live.at(id).dz = next;
      reg.setDz(id, std::move(next));
      ++setDzs;
    } else if (op < 0.995) {
      // A rebuild's re-file: some hops kept, some replaced, some added.
      const PathId id = pickLive();
      PathSpec path = live.at(id);
      std::vector<RouteHop> hops = randomHops();
      for (const RouteHop& hop : path.hops) {
        if (rng.chance(0.6)) hops.insert(hops.begin(), hop);
      }
      const int oldTree = path.treeId;
      path.treeId = static_cast<int>(rng.uniformInt(0, 2));
      path.hops = hops;
      const PathId fresh = reg.move(id, path.treeId, std::move(hops));
      live.erase(id);
      live.emplace(fresh, path);
      refiled.emplace(oldTree, std::move(path));
      ++moves;
    } else {
      reg.clear();
      live.clear();
      cleared = true;
      ++clears;
    }

    // Outside the recorded roots no required flow changed (clear forgets
    // what it recorded: everything changed).
    const PathRegistry::Changes changes = reg.takeChanges();
    std::map<net::NodeId, std::vector<dz::DzExpression>> changed(
        changes.roots.begin(), changes.roots.end());
    for (net::NodeId sw = 0; sw < kSwitches; ++sw) {
      const auto expected = scanRequiredFlows(live, sw);
      const auto actual = reg.requiredFlows(sw);
      ASSERT_TRUE(actual == expected)
          << "step " << step << " switch " << sw << "\nexpected:\n"
          << render(expected) << "actual:\n" << render(actual);
      const std::vector<dz::DzExpression>& roots = changed[sw];
      if (!cleared) {
        ASSERT_TRUE(byRoots(expected, roots, false) == byRoots(before[sw], roots, false))
            << "step " << step << " switch " << sw << ": a change outside "
            << roots.size() << " recorded roots";
      }
      before[sw] = expected;
      // requiredFlows under roots is the full result filtered to them.
      const std::vector<dz::DzExpression> sample = randomRoots(rootRng, pool);
      ASSERT_TRUE(reg.requiredFlows(sw, sample) == byRoots(expected, sample))
          << "step " << step << " switch " << sw;
      ASSERT_TRUE(reg.requiredFlows(sw, roots) == byRoots(expected, roots))
          << "step " << step << " switch " << sw;
    }
    std::set<net::NodeId> switches;
    for (const auto& [id, path] : live) {
      for (const RouteHop& hop : path.hops) switches.insert(hop.switchNode);
    }
    ASSERT_EQ(reg.allSwitches(),
              std::vector<net::NodeId>(switches.begin(), switches.end()))
        << "step " << step;
    ASSERT_EQ(reg.size(), live.size()) << "step " << step;
    // Every path points at its hops, each route of a tree carries as many
    // of its paths as run along it, and the route table holds exactly the
    // distinct hop lists of the live paths, each once (a route its last
    // path left would still show in the bytes; clear leaves none).
    std::map<int, std::map<std::string, std::size_t>> routesByTree;
    std::set<std::string> distinctRoutes;
    std::size_t expectedBytes = 0;
    for (const auto& [id, path] : live) {
      ASSERT_TRUE(reg.at(id).hops() == path.hops) << "step " << step;
      ASSERT_EQ(reg.at(id).dz, path.dz) << "step " << step;
      ++routesByTree[path.treeId][routeKey(path.hops)];
      expectedBytes +=
          sizeof(InstalledPath) + path.dz.size() * sizeof(dz::DzExpression);
      if (distinctRoutes.insert(routeKey(path.hops)).second) {
        expectedBytes += sizeof(Route) + path.hops.size() * sizeof(RouteHop);
      }
    }
    ASSERT_EQ(reg.stateBytes(), expectedBytes) << "step " << step;
    for (int tree = 0; tree < 3; ++tree) {
      std::map<std::string, std::size_t> routes;
      for (const auto& [hops, paths] : reg.routesOfTree(tree)) {
        ASSERT_TRUE(routes.emplace(routeKey(*hops), paths).second)
            << "step " << step;
      }
      ASSERT_TRUE(routes == routesByTree[tree]) << "step " << step;
    }
    std::map<int, std::vector<PathId>> byTree;
    std::map<SubscriptionId, std::vector<PathId>> bySubscription;
    std::map<PublisherId, std::vector<PathId>> byPublisher;
    for (const auto& [id, path] : live) {
      byTree[path.treeId].push_back(id);
      bySubscription[path.subscription].push_back(id);
      byPublisher[path.publisher].push_back(id);
    }
    for (int tree = 0; tree < 3; ++tree) {
      ASSERT_EQ(reg.pathsOfTree(tree), byTree[tree]) << "step " << step;
    }
    for (SubscriptionId sub = 0; sub <= 20; ++sub) {
      ASSERT_EQ(reg.pathsOfSubscription(sub), bySubscription[sub])
          << "step " << step;
    }
    for (PublisherId pub = 0; pub <= 3; ++pub) {
      ASSERT_EQ(reg.pathsOfPublisher(pub), byPublisher[pub]) << "step " << step;
    }
    for (int q = 0; q < 8; ++q) {
      const auto pub = static_cast<PublisherId>(queryRng.uniformInt(0, 3));
      const auto sub = static_cast<SubscriptionId>(queryRng.uniformInt(0, 20));
      const auto tree = static_cast<int>(queryRng.uniformInt(0, 2));
      const dz::DzSet d = randomDzSet(queryRng, pool);
      const bool expected = scanCovered(pub, sub, tree, d);
      coveredHits += expected ? 1 : 0;
      ASSERT_EQ(reg.alreadyCovered(pub, sub, tree, d), expected)
          << "step " << step << " query " << q;
    }
    if (refiled) {
      // The re-filed path answers under its new tree, and under its old one
      // only if another path there covers it.
      const auto& [oldTree, path] = *refiled;
      ASSERT_TRUE(reg.alreadyCovered(path.publisher, path.subscription,
                                     path.treeId, path.dz))
          << "step " << step;
      ASSERT_EQ(reg.alreadyCovered(path.publisher, path.subscription, oldTree,
                                   path.dz),
                scanCovered(path.publisher, path.subscription, oldTree, path.dz))
          << "step " << step;
    }
  }
  // Every operation kind ran often enough to matter.
  EXPECT_GT(adds, 1000u);
  EXPECT_GT(removes, 500u);
  EXPECT_GT(setDzs, 500u);
  EXPECT_GT(moves, 200u);
  EXPECT_GT(clears, 3u);
  EXPECT_GT(extends, 100u);
  EXPECT_GT(extendsDeclined, 100u);
  // Random queries found covering paths, not only their absence.
  EXPECT_GT(coveredHits, 500u);
}

}  // namespace
}  // namespace pleroma::ctrl
