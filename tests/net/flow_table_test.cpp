#include "net/flow_table.hpp"

#include <gtest/gtest.h>

#include "net/packet.hpp"

namespace pleroma::net {
namespace {

dz::DzExpression dz(std::string_view s) { return *dz::DzExpression::fromString(s); }

FlowEntry entry(std::string_view dzStr, std::vector<PortId> ports,
                int priority = -1) {
  FlowEntry e;
  const auto d = dz(dzStr);
  e.match = dz::dzToPrefix(d);
  e.priority = priority < 0 ? d.length() : priority;
  for (const PortId p : ports) e.actions.push_back(FlowAction{p, std::nullopt});
  return e;
}

TEST(FlowEntry, AddOutPortDeduplicates) {
  FlowEntry e = entry("10", {2});
  e.addOutPort(2);
  e.addOutPort(3);
  EXPECT_EQ(e.outPorts(), (std::vector<PortId>{2, 3}));
}

TEST(FlowEntry, AddOutPortKeepsPortOrder) {
  // Merging the same actions in any order yields the same entry, so a
  // reconcile never rewrites an entry only to reorder its actions.
  const dz::Ipv6Address addr = hostAddress(7);
  FlowEntry a = entry("10", {4});
  a.addOutPort(1);
  a.addOutPort(3, addr);
  a.addOutPort(2);
  a.addOutPort(5);
  EXPECT_EQ(a.outPorts(), (std::vector<PortId>{1, 2, 3, 4, 5}));
  FlowEntry b = entry("10", {5});
  for (const PortId p : {2, 4, 1}) b.addOutPort(p);
  b.addOutPort(3, addr);
  EXPECT_EQ(a, b);
  EXPECT_EQ(b.actions[2].setDestination, addr);
}

TEST(FlowEntry, AddOutPortUpdatesRewrite) {
  FlowEntry e = entry("10", {2});
  const dz::Ipv6Address addr = hostAddress(7);
  e.addOutPort(2, addr);
  ASSERT_EQ(e.actions.size(), 1u);
  EXPECT_EQ(e.actions[0].setDestination, addr);
}

TEST(FlowTable, InsertAndLookup) {
  FlowTable t;
  EXPECT_TRUE(t.insert(entry("1", {2})));
  const FlowEntry* hit = t.lookup(dz::dzToAddress(dz("101")));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->outPorts(), (std::vector<PortId>{2}));
  EXPECT_EQ(t.lookup(dz::dzToAddress(dz("0"))), nullptr);
}

TEST(FlowTable, LongestDzWinsViaPriority) {
  // Fig 3: an event dz=1001 matches flows dz=1 and dz=100; the longer one
  // (higher priority) must win.
  FlowTable t;
  ASSERT_TRUE(t.insert(entry("1", {2})));
  ASSERT_TRUE(t.insert(entry("100", {2, 3})));
  const FlowEntry* hit = t.lookup(dz::dzToAddress(dz("1001")));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->outPorts(), (std::vector<PortId>{2, 3}));
  // dz=11 only matches the short flow.
  const FlowEntry* hit2 = t.lookup(dz::dzToAddress(dz("11")));
  ASSERT_NE(hit2, nullptr);
  EXPECT_EQ(hit2->outPorts(), (std::vector<PortId>{2}));
}

TEST(FlowTable, ExplicitPriorityBeatsLength) {
  FlowTable t;
  ASSERT_TRUE(t.insert(entry("1", {9}, /*priority=*/100)));
  ASSERT_TRUE(t.insert(entry("11", {2}, /*priority=*/1)));
  const FlowEntry* hit = t.lookup(dz::dzToAddress(dz("111")));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->outPorts(), (std::vector<PortId>{9}));
}

TEST(FlowTable, DuplicateMatchRejected) {
  FlowTable t;
  ASSERT_TRUE(t.insert(entry("10", {1})));
  EXPECT_FALSE(t.insert(entry("10", {2})));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.stats().rejectedDuplicate, 1u);
}

TEST(FlowTable, InsertOrReplace) {
  FlowTable t;
  ASSERT_TRUE(t.insertOrReplace(entry("10", {1})));
  ASSERT_TRUE(t.insertOrReplace(entry("10", {1, 2})));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.find(dz::dzToPrefix(dz("10")))->outPorts(),
            (std::vector<PortId>{1, 2}));
  EXPECT_EQ(t.stats().modifies, 1u);
}

TEST(FlowTable, Remove) {
  FlowTable t;
  ASSERT_TRUE(t.insert(entry("10", {1})));
  EXPECT_TRUE(t.remove(dz::dzToPrefix(dz("10"))));
  EXPECT_FALSE(t.remove(dz::dzToPrefix(dz("10"))));
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.lookup(dz::dzToAddress(dz("10"))), nullptr);
}

TEST(FlowTable, CapacityModelsTcamLimit) {
  FlowTable t(2);
  EXPECT_TRUE(t.insert(entry("00", {1})));
  EXPECT_TRUE(t.insert(entry("01", {1})));
  EXPECT_FALSE(t.insert(entry("10", {1})));
  EXPECT_EQ(t.stats().rejectedCapacity, 1u);
  EXPECT_EQ(t.size(), 2u);
}

TEST(FlowTable, StatsCountLookups) {
  FlowTable t;
  ASSERT_TRUE(t.insert(entry("1", {1})));
  t.lookup(dz::dzToAddress(dz("1")));
  t.lookup(dz::dzToAddress(dz("0")));
  EXPECT_EQ(t.stats().lookups, 2u);
  EXPECT_EQ(t.stats().hits, 1u);
  EXPECT_EQ(t.stats().misses, 1u);
}

TEST(FlowTable, WholeSpaceFlowMatchesAllPleromaTraffic) {
  FlowTable t;
  ASSERT_TRUE(t.insert(entry("", {4})));
  EXPECT_NE(t.lookup(dz::dzToAddress(dz("00000"))), nullptr);
  EXPECT_NE(t.lookup(dz::dzToAddress(dz("11111"))), nullptr);
  // But not unicast host addresses.
  EXPECT_EQ(t.lookup(hostAddress(3)), nullptr);
}

TEST(FlowTable, ManyPrefixLengthsLookupCorrect) {
  FlowTable t;
  // Nested chain 1, 11, 111, ... — deepest matching wins each time.
  std::string s;
  for (int i = 0; i < 20; ++i) {
    s.push_back('1');
    ASSERT_TRUE(t.insert(entry(s, {i + 1})));
  }
  const FlowEntry* hit = t.lookup(dz::dzToAddress(dz(std::string(24, '1'))));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->match.length, 16 + 20);
  const FlowEntry* mid = t.lookup(dz::dzToAddress(dz("1111100000")));
  ASSERT_NE(mid, nullptr);
  EXPECT_EQ(mid->match.length, 16 + 5);
}

/// Bucket probes one lookup of `dzStr`'s address issues.
std::uint64_t probesOf(const FlowTable& t, std::string_view dzStr) {
  const std::uint64_t before = t.stats().probes;
  t.lookup(dz::dzToAddress(dz(dzStr)));
  return t.stats().probes - before;
}

TEST(FlowTable, DzPriorityLookupStopsAtFirstHit) {
  // Controller tables: priority = dz length, so the longest matching
  // bucket wins and no shorter one needs a probe. Installed short-first,
  // so install order is the opposite of probe order.
  FlowTable t;
  for (const std::string_view s : {"1", "10", "100", "1001", "10011", "100110"}) {
    ASSERT_TRUE(t.insert(entry(s, {2})));
  }
  ASSERT_TRUE(t.insert(entry("0111", {3})));
  EXPECT_EQ(probesOf(t, "1001101"), 1u);  // longest bucket matches
  EXPECT_EQ(probesOf(t, "100111"), 2u);   // misses length 6, hits 5
  EXPECT_EQ(probesOf(t, "0111"), 3u);     // misses lengths 6 and 5, hits 4
  EXPECT_EQ(probesOf(t, "0000"), 6u);     // a miss probes every length
  const FlowEntry* hit = t.lookup(dz::dzToAddress(dz("1001101")));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->match, dz::dzToPrefix(dz("100110")));
}

TEST(FlowTable, PriorityBoundIsNeverLoweredSoTheStopStaysExact) {
  FlowTable t;
  ASSERT_TRUE(t.insert(entry("1", {9}, /*priority=*/100)));
  ASSERT_TRUE(t.insert(entry("11", {2}, /*priority=*/1)));
  // The priority-100 hit ranks above everything left to probe.
  EXPECT_EQ(probesOf(t, "111"), 1u);
  // Lowering the short entry's priority keeps its bucket's bound at 100:
  // the lookup probes it first and must go on to find the longer winner.
  ASSERT_TRUE(t.insertOrReplace(entry("1", {9}, /*priority=*/0)));
  EXPECT_EQ(probesOf(t, "111"), 2u);
  EXPECT_EQ(t.lookup(dz::dzToAddress(dz("111")))->outPorts(),
            (std::vector<PortId>{2}));
  // Raising a bucket's bound re-files it ahead of the others.
  ASSERT_TRUE(t.insert(entry("111", {7}, /*priority=*/500)));
  EXPECT_EQ(probesOf(t, "1111"), 1u);
  // Dropping a bucket leaves the others' order and indices intact.
  ASSERT_TRUE(t.remove(dz::dzToPrefix(dz("11"))));
  EXPECT_EQ(t.lookup(dz::dzToAddress(dz("110")))->outPorts(),
            (std::vector<PortId>{9}));
  EXPECT_EQ(t.lookup(dz::dzToAddress(dz("1111")))->outPorts(),
            (std::vector<PortId>{7}));
}

TEST(FlowTable, EntriesKeepInstallOrderOfLengths) {
  FlowTable t;
  ASSERT_TRUE(t.insert(entry("11", {1})));
  ASSERT_TRUE(t.insert(entry("1", {2})));
  ASSERT_TRUE(t.insert(entry("111", {3})));
  std::vector<int> lengths;
  for (const FlowEntry& e : t.entries()) lengths.push_back(e.match.length);
  EXPECT_EQ(lengths, (std::vector<int>{18, 17, 19}));
}

TEST(FlowTable, PerFlowCountersTrackMatches) {
  FlowTable t;
  ASSERT_TRUE(t.insert(entry("0", {1})));
  ASSERT_TRUE(t.insert(entry("1", {2})));
  t.lookup(dz::dzToAddress(dz("01")));
  t.lookup(dz::dzToAddress(dz("00")));
  t.lookup(dz::dzToAddress(dz("10")));
  EXPECT_EQ(t.find(dz::dzToPrefix(dz("0")))->matchedPackets, 2u);
  EXPECT_EQ(t.find(dz::dzToPrefix(dz("1")))->matchedPackets, 1u);
}

TEST(FlowTable, ModifyPreservesCounters) {
  FlowTable t;
  ASSERT_TRUE(t.insert(entry("0", {1})));
  t.lookup(dz::dzToAddress(dz("01")));
  FlowEntry updated = entry("0", {1, 5});
  ASSERT_TRUE(t.insertOrReplace(updated));
  EXPECT_EQ(t.find(dz::dzToPrefix(dz("0")))->matchedPackets, 1u);
}

TEST(FlowTable, CountersExcludedFromIdentity) {
  FlowEntry a = entry("0", {1});
  FlowEntry b = entry("0", {1});
  a.matchedPackets = 99;
  EXPECT_EQ(a, b);
}

TEST(FlowTable, ClearResets) {
  FlowTable t;
  ASSERT_TRUE(t.insert(entry("0", {1})));
  t.clear();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.lookup(dz::dzToAddress(dz("0"))), nullptr);
  // Re-insert works after clear (length bookkeeping reset).
  EXPECT_TRUE(t.insert(entry("0", {1})));
  EXPECT_NE(t.lookup(dz::dzToAddress(dz("0"))), nullptr);
}

TEST(FlowTable, EntriesMaterialize) {
  FlowTable t;
  ASSERT_TRUE(t.insert(entry("0", {1})));
  ASSERT_TRUE(t.insert(entry("1", {2})));
  EXPECT_EQ(t.entries().size(), 2u);
  int visited = 0;
  t.forEach([&](const FlowEntry&) { ++visited; });
  EXPECT_EQ(visited, 2);
}

}  // namespace
}  // namespace pleroma::net
