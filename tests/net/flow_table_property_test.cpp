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
  void clear() { entries_.clear(); }
  std::size_t size() const { return entries_.size(); }
  /// Distinct installed prefix lengths: the real table's bucket count.
  std::size_t lengths() const {
    std::set<int> seen;
    for (const auto& e : entries_) seen.insert(e.match.length);
    return seen.size();
  }
  /// Width of the window the real table's lookup memo indexes: the longest
  /// installed length minus the shorter of the shortest length and the
  /// installed prefixes' common leading bits. -1 when empty.
  int memoWidth() const {
    if (entries_.empty()) return -1;
    int shortest = 128;
    int longest = 0;
    for (const auto& e : entries_) {
      shortest = std::min(shortest, e.match.length);
      longest = std::max(longest, e.match.length);
    }
    int common = shortest;
    for (const auto& e : entries_) {
      while (!dz::Ipv6Prefix{entries_.front().match.address, common}.matches(
          e.match.address)) {
        --common;
      }
    }
    return longest - common;
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

FlowEntry randomChurnEntry(util::Rng& rng, int maxLen) {
  FlowEntry e;
  e.match = dz::dzToPrefix(randomDz(rng, maxLen));
  // Random priority: exercise priority-over-length semantics too.
  e.priority = static_cast<int>(rng.uniformInt(0, 20));
  e.actions.push_back(
      FlowAction{static_cast<PortId>(rng.uniformInt(1, 4)), std::nullopt});
  if (rng.chance(0.2)) {
    e.actions.push_back(FlowAction{5, dz::dzToAddress(randomDz(rng, 8))});
  }
  return e;
}

/// Random churn of entries up to dz length `maxLen` against the reference:
/// inserts, modifies of live prefixes with a new priority and new actions,
/// removes, an occasional clear(), and lookups, half of which repeat one of
/// the last 8 addresses so the table's lookup memo answers some of them.
void churnAgainstReference(std::uint64_t seed, int maxLen) {
  util::Rng rng(seed);
  FlowTable table;
  ReferenceTable reference;
  std::vector<dz::Ipv6Prefix> live;
  std::vector<dz::Ipv6Address> recent;  // the last 8 probed addresses
  std::set<dz::Ipv6Address> sinceMutation;  // probed since the last mutation
  std::size_t memoAnswered = 0;
  std::size_t wideLookups = 0;  // on a table wider than the memo's limit

  for (int step = 0; step < 2000; ++step) {
    const auto dice = rng.uniformInt(0, 999);
    if (dice < 3) {
      table.clear();
      reference.clear();
      live.clear();
      sinceMutation.clear();
      // Nothing the memo learned before the clear may answer after it.
      for (const dz::Ipv6Address& a : recent) {
        ASSERT_EQ(table.lookup(a), nullptr) << "step " << step;
      }
    } else if (dice < 403) {
      const FlowEntry e = randomChurnEntry(rng, maxLen);
      const bool a = table.insert(e);
      const bool b = reference.insert(e);
      ASSERT_EQ(a, b);
      if (a) {
        live.push_back(e.match);
        sinceMutation.clear();
      }
    } else if (dice < 503 && !live.empty()) {
      FlowEntry e = randomChurnEntry(rng, maxLen);
      e.match = live[rng.uniformInt(0, live.size() - 1)];
      ASSERT_TRUE(table.insertOrReplace(e));
      ASSERT_TRUE(reference.insertOrReplace(e));
      sinceMutation.clear();
    } else if (dice < 653 && !live.empty()) {
      const std::size_t victim = rng.uniformInt(0, live.size() - 1);
      const bool a = table.remove(live[victim]);
      const bool b = reference.remove(live[victim]);
      ASSERT_EQ(a, b);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      sinceMutation.clear();
    } else {
      dz::Ipv6Address probe;
      if (!recent.empty() && rng.chance(0.5)) {
        probe = recent[rng.uniformInt(0, recent.size() - 1)];
      } else {
        probe = dz::dzToAddress(randomDz(rng, maxLen + 2));
        if (recent.size() == 8) recent.erase(recent.begin());
        recent.push_back(probe);
      }
      const bool repeat = !sinceMutation.insert(probe).second;
      const std::uint64_t probesBefore = table.stats().probes;
      const FlowEntry* a = table.lookup(probe);
      const FlowEntry* b = reference.lookup(probe);
      ASSERT_EQ(a == nullptr, b == nullptr) << "step " << step;
      // At most one probe per bucket. The memo answers without a probe, so
      // a miss issues none or one per installed length, and a repeat on a
      // table within the memo's window issues none.
      const std::uint64_t probes = table.stats().probes - probesBefore;
      ASSERT_LE(probes, reference.lengths()) << "step " << step;
      if (a == nullptr) {
        ASSERT_TRUE(probes == 0 || probes == reference.lengths())
            << "step " << step << ": " << probes << " probes";
      }
      if (reference.memoWidth() > FlowTable::kMemoMaxBits) {
        ++wideLookups;
      } else if (repeat) {
        ASSERT_EQ(probes, 0u) << "step " << step;
      }
      if (probes == 0 && reference.size() != 0) ++memoAnswered;
      if (a != nullptr) {
        // Match prefixes are unique and two of one length cannot both
        // match, so the winner is one entry: the reference's.
        EXPECT_EQ(a->match, b->match) << "step " << step;
        EXPECT_EQ(a->priority, b->priority) << "step " << step;
        EXPECT_TRUE(a->actions == b->actions) << "step " << step;
      }
    }
    ASSERT_EQ(table.size(), reference.size());
  }
  EXPECT_GT(memoAnswered, 0u);
  // Every installed key starts with the 16-bit ff0e prefix, so dz lengths
  // up to maxLen give windows of at most maxLen bits.
  if (maxLen <= FlowTable::kMemoMaxBits) {
    EXPECT_EQ(wideLookups, 0u);
  } else {
    EXPECT_GT(wideLookups, 0u);
  }
}

TEST_P(FlowTablePropertyTest, MatchesReferenceUnderChurn) {
  {
    SCOPED_TRACE("entries up to dz length 10: every window fits the memo");
    churnAgainstReference(GetParam(), 10);
  }
  {
    SCOPED_TRACE("entries up to dz length 20: windows outgrow the memo");
    churnAgainstReference(GetParam() + 1, 20);
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
