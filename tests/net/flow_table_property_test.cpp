// Property test: the hash-indexed FlowTable must agree with a trivially
// correct linear-scan reference on every operation under random churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "net/flow_table.hpp"
#include "util/rng.hpp"

namespace pleroma::net {
namespace {

/// Linear-scan reference model of the TCAM semantics.
class ReferenceTable {
 public:
  bool insert(const FlowEntry& e) {
    if (find(e.match) != nullptr) return false;
    entries_.push_back(e);
    return true;
  }
  bool insertOrReplace(const FlowEntry& e) {
    for (auto& x : entries_) {
      if (x.match == e.match) {
        const std::uint64_t kept = x.matchedPackets;  // modify keeps counters
        x = e;
        x.matchedPackets = kept;
        return true;
      }
    }
    entries_.push_back(e);
    return true;
  }
  bool remove(const dz::Ipv6Prefix& match) {
    const auto it = std::find_if(entries_.begin(), entries_.end(),
                                 [&](const FlowEntry& e) { return e.match == match; });
    if (it == entries_.end()) return false;
    entries_.erase(it);
    return true;
  }
  const FlowEntry* find(const dz::Ipv6Prefix& match) const {
    for (const auto& e : entries_) {
      if (e.match == match) return &e;
    }
    return nullptr;
  }
  const FlowEntry* lookup(dz::Ipv6Address a) const {
    const FlowEntry* best = nullptr;
    for (const auto& e : entries_) {
      if (!e.match.matches(a)) continue;
      if (best == nullptr || e.priority > best->priority ||
          (e.priority == best->priority && e.match.length > best->match.length)) {
        best = &e;
      }
    }
    return best;
  }
  /// lookup + the per-flow counter bump the real table performs on a hit
  /// (matchedPackets is mutable, mirroring the real entry).
  const FlowEntry* lookupCounting(dz::Ipv6Address a) const {
    const FlowEntry* best = lookup(a);
    if (best != nullptr) ++best->matchedPackets;
    return best;
  }
  std::size_t size() const { return entries_.size(); }
  /// Distinct installed prefix lengths: the real table's bucket count.
  std::size_t lengths() const {
    std::set<int> seen;
    for (const auto& e : entries_) seen.insert(e.match.length);
    return seen.size();
  }

 private:
  std::vector<FlowEntry> entries_;
};

dz::DzExpression randomDz(util::Rng& rng, int maxLen) {
  const int len =
      static_cast<int>(rng.uniformInt(0, static_cast<std::uint64_t>(maxLen)));
  dz::U128 bits;
  for (int i = 0; i < len; ++i) bits.setBitFromMsb(i, rng.chance(0.5));
  return dz::DzExpression(bits, len);
}

class FlowTablePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowTablePropertyTest, MatchesReferenceUnderChurn) {
  util::Rng rng(GetParam());
  FlowTable table;
  ReferenceTable reference;
  std::vector<dz::Ipv6Prefix> live;

  for (int step = 0; step < 2000; ++step) {
    const auto dice = rng.uniformInt(0, 9);
    if (dice < 5) {
      FlowEntry e;
      const dz::DzExpression d = randomDz(rng, 10);
      e.match = dz::dzToPrefix(d);
      // Random priority: exercise priority-over-length semantics too.
      e.priority = static_cast<int>(rng.uniformInt(0, 20));
      e.actions.push_back(
          FlowAction{static_cast<PortId>(rng.uniformInt(1, 4)), std::nullopt});
      const bool a = table.insert(e);
      const bool b = reference.insert(e);
      ASSERT_EQ(a, b);
      if (a) live.push_back(e.match);
    } else if (dice < 7 && !live.empty()) {
      const std::size_t victim = rng.uniformInt(0, live.size() - 1);
      const bool a = table.remove(live[victim]);
      const bool b = reference.remove(live[victim]);
      ASSERT_EQ(a, b);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      const dz::Ipv6Address probe = dz::dzToAddress(randomDz(rng, 12));
      const std::uint64_t probesBefore = table.stats().probes;
      const FlowEntry* a = table.lookup(probe);
      const FlowEntry* b = reference.lookup(probe);
      ASSERT_EQ(a == nullptr, b == nullptr) << "step " << step;
      // At most one probe per bucket; a miss probes every bucket.
      const std::uint64_t probes = table.stats().probes - probesBefore;
      ASSERT_LE(probes, reference.lengths()) << "step " << step;
      if (a == nullptr) {
        ASSERT_EQ(probes, reference.lengths()) << "step " << step;
      }
      if (a != nullptr) {
        // The same winner must be chosen. Ambiguity is possible only when
        // priority AND length tie — compare the deciding keys instead of
        // identity.
        EXPECT_EQ(a->priority, b->priority);
        EXPECT_EQ(a->match.length, b->match.length);
      }
    }
    ASSERT_EQ(table.size(), reference.size());
  }
}

TEST_P(FlowTablePropertyTest, FindAgreesWithReference) {
  util::Rng rng(GetParam() + 77);
  FlowTable table;
  ReferenceTable reference;
  for (int i = 0; i < 300; ++i) {
    FlowEntry e;
    e.match = dz::dzToPrefix(randomDz(rng, 8));
    e.priority = e.match.length;
    e.actions.push_back(FlowAction{1, std::nullopt});
    table.insert(e);
    reference.insert(e);
  }
  for (int i = 0; i < 300; ++i) {
    const auto probe = dz::dzToPrefix(randomDz(rng, 8));
    EXPECT_EQ(table.find(probe) == nullptr, reference.find(probe) == nullptr);
  }
}

// Full-surface churn: insert, insertOrReplace, remove, and lookup against
// the reference, asserting identical winners, identical per-flow
// matchedPackets counters (modify must preserve them, lookup must bump
// exactly the winner's), and an exactly-predicted stats block. Enough
// volume per length that buckets cross the sorted->flat threshold and
// shrink back, exercising both representations and the rebuild hysteresis.
TEST_P(FlowTablePropertyTest, ModifyAndCountersMatchReference) {
  util::Rng rng(GetParam() + 4242);
  FlowTable table;
  ReferenceTable reference;
  std::vector<dz::Ipv6Prefix> live;

  std::uint64_t expectInserts = 0;
  std::uint64_t expectModifies = 0;
  std::uint64_t expectRemoves = 0;
  std::uint64_t expectDuplicates = 0;
  std::uint64_t expectLookups = 0;
  std::uint64_t expectHits = 0;
  std::uint64_t expectMisses = 0;

  const auto randomEntry = [&] {
    FlowEntry e;
    e.match = dz::dzToPrefix(randomDz(rng, 6));  // short: force collisions
    e.priority = static_cast<int>(rng.uniformInt(0, 5));
    e.actions.push_back(
        FlowAction{static_cast<PortId>(rng.uniformInt(1, 4)), std::nullopt});
    // Sometimes spill past the inline action buffer.
    if (rng.chance(0.2)) {
      e.actions.push_back(FlowAction{5, std::nullopt});
      e.actions.push_back(FlowAction{6, std::nullopt});
    }
    return e;
  };

  for (int step = 0; step < 4000; ++step) {
    const auto dice = rng.uniformInt(0, 9);
    if (dice < 3) {
      const FlowEntry e = randomEntry();
      const bool a = table.insert(e);
      ASSERT_EQ(a, reference.insert(e));
      if (a) {
        live.push_back(e.match);
        ++expectInserts;
      } else {
        ++expectDuplicates;
      }
    } else if (dice < 5) {
      // Half the time target a live prefix so the modify path is hit.
      FlowEntry e = randomEntry();
      if (!live.empty() && rng.chance(0.5)) {
        e.match = live[rng.uniformInt(0, live.size() - 1)];
      }
      const bool existed = reference.find(e.match) != nullptr;
      ASSERT_TRUE(table.insertOrReplace(e));
      ASSERT_TRUE(reference.insertOrReplace(e));
      if (existed) {
        ++expectModifies;
      } else {
        live.push_back(e.match);
        ++expectInserts;
      }
    } else if (dice < 7 && !live.empty()) {
      const std::size_t victim = rng.uniformInt(0, live.size() - 1);
      ASSERT_TRUE(table.remove(live[victim]));
      ASSERT_TRUE(reference.remove(live[victim]));
      ++expectRemoves;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      const dz::Ipv6Address probe = dz::dzToAddress(randomDz(rng, 8));
      const std::uint64_t probesBefore = table.stats().probes;
      const FlowEntry* a = table.lookup(probe);
      const FlowEntry* b = reference.lookupCounting(probe);
      ++expectLookups;
      ASSERT_EQ(a == nullptr, b == nullptr) << "step " << step;
      ASSERT_LE(table.stats().probes - probesBefore, reference.lengths())
          << "step " << step;
      if (a != nullptr) {
        ++expectHits;
        EXPECT_EQ(a->priority, b->priority);
        EXPECT_EQ(a->match.length, b->match.length);
      } else {
        ++expectMisses;
      }
    }
    ASSERT_EQ(table.size(), reference.size());
  }

  // Every surviving entry agrees field-for-field, including the per-flow
  // counter, when read back through find().
  std::size_t checked = 0;
  for (const dz::Ipv6Prefix& m : live) {
    const FlowEntry* a = table.find(m);
    const FlowEntry* b = reference.find(m);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_TRUE(*a == *b);
    EXPECT_EQ(a->matchedPackets, b->matchedPackets) << m.toString();
    ++checked;
  }
  EXPECT_EQ(checked, table.size());

  const FlowTableStats& s = table.stats();
  EXPECT_EQ(s.inserts, expectInserts);
  EXPECT_EQ(s.modifies, expectModifies);
  EXPECT_EQ(s.removes, expectRemoves);
  EXPECT_EQ(s.rejectedDuplicate, expectDuplicates);
  EXPECT_EQ(s.lookups, expectLookups);
  EXPECT_EQ(s.hits, expectHits);
  EXPECT_EQ(s.misses, expectMisses);
  EXPECT_EQ(s.rejectedCapacity, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowTablePropertyTest,
                         ::testing::Values(5u, 55u, 555u));

}  // namespace
}  // namespace pleroma::net
