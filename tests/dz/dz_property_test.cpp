// Property-based tests of the dz algebra: randomized expressions and sets,
// checked against the semantic model "a dz denotes the set of max-length
// strings it prefixes".
#include <gtest/gtest.h>

#include "dz/dz_set.hpp"
#include "dz/event_space.hpp"
#include "util/rng.hpp"

namespace pleroma::dz {
namespace {

DzExpression randomDz(util::Rng& rng, int maxLen) {
  const int len = static_cast<int>(rng.uniformInt(0, static_cast<std::uint64_t>(maxLen)));
  U128 bits;
  for (int i = 0; i < len; ++i) bits.setBitFromMsb(i, rng.chance(0.5));
  return DzExpression(bits, len);
}

DzSet randomSet(util::Rng& rng, int maxLen, int members) {
  DzSet s;
  for (int i = 0; i < members; ++i) s.insert(randomDz(rng, maxLen));
  return s;
}

/// Semantic membership: does `point` (a max-length dz) lie in the subspace?
bool semanticContains(const DzSet& s, const DzExpression& point) {
  return s.covers(point);
}

class DzPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DzPropertyTest, CoverIsPartialOrder) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const DzExpression a = randomDz(rng, 12);
    const DzExpression b = randomDz(rng, 12);
    const DzExpression c = randomDz(rng, 12);
    EXPECT_TRUE(a.covers(a));
    if (a.covers(b) && b.covers(a)) EXPECT_EQ(a, b);
    if (a.covers(b) && b.covers(c)) EXPECT_TRUE(a.covers(c));
  }
}

TEST_P(DzPropertyTest, IntersectCommutes) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const DzExpression a = randomDz(rng, 12);
    const DzExpression b = randomDz(rng, 12);
    EXPECT_EQ(a.intersect(b), b.intersect(a));
  }
}

TEST_P(DzPropertyTest, SetUnionPreservesMembership) {
  util::Rng rng(GetParam());
  for (int iter = 0; iter < 50; ++iter) {
    const DzSet a = randomSet(rng, 8, 4);
    const DzSet b = randomSet(rng, 8, 4);
    DzSet u = a;
    u.unionWith(b);
    for (int probes = 0; probes < 50; ++probes) {
      const DzExpression p = randomDz(rng, 12);
      if (p.length() < 12) continue;  // sample points only
      EXPECT_EQ(semanticContains(u, p),
                semanticContains(a, p) || semanticContains(b, p))
          << "point " << p.toString();
    }
  }
}

TEST_P(DzPropertyTest, SetIntersectPreservesMembership) {
  util::Rng rng(GetParam());
  for (int iter = 0; iter < 50; ++iter) {
    const DzSet a = randomSet(rng, 8, 4);
    const DzSet b = randomSet(rng, 8, 4);
    const DzSet i = a.intersect(b);
    for (int probes = 0; probes < 50; ++probes) {
      const DzExpression p = randomDz(rng, 12);
      if (p.length() < 12) continue;
      EXPECT_EQ(semanticContains(i, p),
                semanticContains(a, p) && semanticContains(b, p));
    }
  }
}

TEST_P(DzPropertyTest, SetSubtractPreservesMembership) {
  util::Rng rng(GetParam());
  for (int iter = 0; iter < 50; ++iter) {
    const DzSet a = randomSet(rng, 8, 4);
    const DzSet b = randomSet(rng, 8, 4);
    const DzSet d = a.subtract(b);
    for (int probes = 0; probes < 50; ++probes) {
      const DzExpression p = randomDz(rng, 12);
      if (p.length() < 12) continue;
      EXPECT_EQ(semanticContains(d, p),
                semanticContains(a, p) && !semanticContains(b, p));
    }
  }
}

TEST_P(DzPropertyTest, CanonicalFormIsDisjointAndMerged) {
  util::Rng rng(GetParam());
  for (int iter = 0; iter < 50; ++iter) {
    const DzSet s = randomSet(rng, 10, 8);
    const auto& items = s.items();
    for (std::size_t i = 0; i < items.size(); ++i) {
      for (std::size_t j = i + 1; j < items.size(); ++j) {
        EXPECT_FALSE(items[i].overlaps(items[j]))
            << items[i].toString() << " / " << items[j].toString();
        // No un-merged sibling pairs.
        if (items[i].length() == items[j].length() && items[i].length() > 0) {
          EXPECT_NE(items[i].sibling(), items[j]);
        }
      }
    }
  }
}

TEST_P(DzPropertyTest, RectangleDecompositionSound) {
  util::Rng rng(GetParam());
  EventSpace space(2, 6);
  for (int iter = 0; iter < 30; ++iter) {
    Rectangle rect;
    for (int d = 0; d < 2; ++d) {
      const auto x = static_cast<AttributeValue>(rng.uniformInt(0, 63));
      const auto y = static_cast<AttributeValue>(rng.uniformInt(0, 63));
      rect.ranges.push_back(Range{std::min(x, y), std::max(x, y)});
    }
    const DzSet dzs = space.rectangleToDz(rect, 12, 16);
    for (int probes = 0; probes < 100; ++probes) {
      const Event e{static_cast<AttributeValue>(rng.uniformInt(0, 63)),
                    static_cast<AttributeValue>(rng.uniformInt(0, 63))};
      // Soundness (no false negatives): events inside the rectangle always
      // fall into the decomposition.
      if (rect.contains(e)) {
        EXPECT_TRUE(dzs.covers(space.eventToDz(e, 12)));
      }
    }
  }
}

TEST_P(DzPropertyTest, FullLengthDecompositionExactOnDyadicBoxes) {
  util::Rng rng(GetParam());
  EventSpace space(1, 6);
  for (int iter = 0; iter < 30; ++iter) {
    // Random dyadic cell as a rectangle.
    const DzExpression d = randomDz(rng, 6);
    const Rectangle cell = space.dzToCell(d);
    const DzSet dzs = space.rectangleToDz(cell, 6, 64);
    EXPECT_EQ(dzs, DzSet{d}) << d.toString();
  }
}

TEST_P(DzPropertyTest, VolumeMatchesSampledCoverage) {
  util::Rng rng(GetParam() + 808);
  EventSpace space(2, 8);
  for (int iter = 0; iter < 5; ++iter) {
    DzSet s;
    for (int i = 0; i < 5; ++i) s.insert(randomDz(rng, 8));
    const double volume = s.volume();
    std::uint64_t hits = 0;
    const int kSamples = 20000;
    for (int i = 0; i < kSamples; ++i) {
      const Event e{static_cast<AttributeValue>(rng.uniformInt(0, 255)),
                    static_cast<AttributeValue>(rng.uniformInt(0, 255))};
      if (s.covers(space.eventToDz(e, 16))) ++hits;
    }
    EXPECT_NEAR(static_cast<double>(hits) / kSamples, volume, 0.02);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DzPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 1234u, 99999u));

}  // namespace
}  // namespace pleroma::dz
