#include "dz/event_space.hpp"

#include <gtest/gtest.h>

namespace pleroma::dz {
namespace {

DzExpression dz(std::string_view s) { return *DzExpression::fromString(s); }

TEST(Range, Basics) {
  const Range r{10, 20};
  EXPECT_TRUE(r.contains(10));
  EXPECT_TRUE(r.contains(20));
  EXPECT_FALSE(r.contains(21));
  EXPECT_TRUE(r.intersects(Range{20, 30}));
  EXPECT_FALSE(r.intersects(Range{21, 30}));
  EXPECT_TRUE((Range{0, 100}.containsRange(r)));
  EXPECT_FALSE(r.containsRange(Range{0, 100}));
}

TEST(Rectangle, ContainsEvent) {
  const Rectangle rect{{Range{0, 50}, Range{10, 20}}};
  EXPECT_TRUE(rect.contains(Event{25, 15}));
  EXPECT_FALSE(rect.contains(Event{25, 25}));
  EXPECT_FALSE(rect.contains(Event{25}));  // wrong arity
}

TEST(EventSpace, DomainMax) {
  EXPECT_EQ(EventSpace(2, 10).domainMax(), 1023u);
  EXPECT_EQ(EventSpace(1, 3).domainMax(), 7u);
}

TEST(EventSpace, MaxDzLength) {
  EXPECT_EQ(EventSpace(2, 10).maxDzLength(), 20);
  EXPECT_EQ(EventSpace(10, 10).maxDzLength(), 100);
  // Capped at the 112-bit IPv6 embedding.
  EXPECT_EQ(EventSpace(10, 12).maxDzLength(), 112);
}

// Figure 2 of the paper: two attributes A (d1) and B (d2), domain [0,100]
// conceptually; we use 2 bits per dim so the quadrants match the figure.
// First bit splits A, second bit splits B.
TEST(EventSpace, Figure2QuadrantMapping) {
  EventSpace space(2, 2);  // domain [0,3] per dim
  // Quadrant "00" = A in lower half, B in lower half.
  EXPECT_EQ(space.eventToDz(Event{0, 0}, 2), dz("00"));
  // "10" = A upper half, B lower half (first bit = A).
  EXPECT_EQ(space.eventToDz(Event{3, 0}, 2), dz("10"));
  EXPECT_EQ(space.eventToDz(Event{0, 3}, 2), dz("01"));
  EXPECT_EQ(space.eventToDz(Event{3, 3}, 2), dz("11"));
}

TEST(EventSpace, EventToDzInterleavesBits) {
  EventSpace space(2, 2);
  // A=2 (binary 10), B=1 (binary 01) -> interleaved A0 B0 A1 B1 = 1 0 0 1.
  EXPECT_EQ(space.eventToDz(Event{2, 1}, 4), dz("1001"));
}

TEST(EventSpace, EventToDzPrefixConsistency) {
  // The dz at length L is always a prefix of the dz at length L' > L.
  EventSpace space(3, 10);
  const Event e{517, 2, 1023};
  const DzExpression full = space.eventToDz(e);
  for (int len = 0; len <= full.length(); ++len) {
    EXPECT_TRUE(space.eventToDz(e, len).covers(full));
    EXPECT_EQ(space.eventToDz(e, len), full.prefix(len));
  }
}

TEST(EventSpace, DzToCellRoundTrip) {
  EventSpace space(2, 10);
  const Event e{700, 123};
  for (int len : {0, 1, 5, 10, 20}) {
    const DzExpression d = space.eventToDz(e, len);
    const Rectangle cell = space.dzToCell(d);
    EXPECT_TRUE(cell.contains(e)) << "len=" << len;
  }
}

TEST(EventSpace, DzToCellHalvesCorrectDimension) {
  EventSpace space(2, 10);
  const Rectangle c0 = space.dzToCell(dz("0"));
  EXPECT_EQ(c0.ranges[0], (Range{0, 511}));     // first bit splits dim 0
  EXPECT_EQ(c0.ranges[1], (Range{0, 1023}));    // dim 1 untouched
  const Rectangle c11 = space.dzToCell(dz("11"));
  EXPECT_EQ(c11.ranges[0], (Range{512, 1023}));
  EXPECT_EQ(c11.ranges[1], (Range{512, 1023}));
}

TEST(EventSpace, RectangleToDzCoversRectangle) {
  EventSpace space(2, 10);
  const Rectangle rect{{Range{100, 300}, Range{0, 1023}}};
  const DzSet dzs = space.rectangleToDz(rect, 10, 16);
  // No false negatives: every corner/inner point maps inside the DZ.
  for (AttributeValue a : {100u, 200u, 300u}) {
    for (AttributeValue b : {0u, 512u, 1023u}) {
      EXPECT_TRUE(dzs.overlaps(space.eventToDz(Event{a, b}, 10)))
          << a << "," << b;
    }
  }
}

TEST(EventSpace, RectangleToDzExactForAlignedBoxes) {
  EventSpace space(2, 2);  // domain [0,3]
  // The left half of dim 0 is exactly dz "0".
  const Rectangle rect{{Range{0, 1}, Range{0, 3}}};
  EXPECT_EQ(space.rectangleToDz(rect, 4, 16), DzSet{dz("0")});
}

TEST(EventSpace, RectangleToDzFigure2Advertisement) {
  // Figure 2: Adv = {A=[50,75], B=[0,100]} over domain [0,100] maps to
  // DZ = {110, 100} — with 2 bits/dim: A in [2,3) quarter range = upper
  // half lower quarter... reproduce with the dyadic equivalent:
  // A in [512, 767] (= third quarter), B unconstrained, 10 bits.
  EventSpace space(2, 10);
  const Rectangle rect{{Range{512, 767}, Range{0, 1023}}};
  const DzSet dzs = space.rectangleToDz(rect, 3, 16);
  EXPECT_EQ(dzs, *DzSet::fromString("100,110"));
}

TEST(EventSpace, RectangleToDzRespectsMaxCells) {
  EventSpace space(3, 10);
  const Rectangle rect{{Range{1, 1022}, Range{3, 900}, Range{17, 500}}};
  const DzSet dzs = space.rectangleToDz(rect, 30, 4);
  // The budget strictly caps the set size.
  EXPECT_LE(dzs.size(), 4u);
  // And coverage must be preserved.
  EXPECT_TRUE(dzs.overlaps(space.eventToDz(Event{1, 3, 17}, 30)));
  EXPECT_TRUE(dzs.overlaps(space.eventToDz(Event{1022, 900, 500}, 30)));
}

TEST(EventSpace, RectangleToDzNeverMatchesOutsideAlignedRect) {
  EventSpace space(1, 4);  // 1 dim, domain [0,15]
  // [4,7] is exactly the dyadic cell "01".
  const Rectangle rect{{Range{4, 7}}};
  const DzSet dzs = space.rectangleToDz(rect, 4, 16);
  EXPECT_EQ(dzs, DzSet{dz("01")});
  EXPECT_FALSE(dzs.overlaps(space.eventToDz(Event{8}, 4)));
  EXPECT_FALSE(dzs.overlaps(space.eventToDz(Event{3}, 4)));
}

TEST(EventSpace, IndexedDimensionSubset) {
  EventSpace space(3, 4);
  space.setIndexedDimensions({2});  // index only the last attribute
  EXPECT_EQ(space.maxDzLength(), 4);
  const Event e1{0, 0, 15};
  const Event e2{9, 3, 15};  // same value on dim 2
  EXPECT_EQ(space.eventToDz(e1, 4), space.eventToDz(e2, 4));
}

TEST(EventSpace, UnindexedConstraintsBecomeFalsePositives) {
  EventSpace space(2, 4);
  space.setIndexedDimensions({0});
  // Subscription constrains dim 1, which is not indexed: the DZ ignores it.
  const Rectangle rect{{Range{0, 7}, Range{0, 3}}};
  const DzSet dzs = space.rectangleToDz(rect, 4, 16);
  // An event violating only dim 1 still matches the DZ (false positive).
  const Event falsePos{3, 15};
  EXPECT_TRUE(dzs.overlaps(space.eventToDz(falsePos, 4)));
  // An event violating the indexed dim does not.
  const Event trueNeg{15, 1};
  EXPECT_FALSE(dzs.overlaps(space.eventToDz(trueNeg, 4)));
}

TEST(EventSpace, IndexedDimensionOrderChangesInterleaving) {
  EventSpace forward(2, 2);
  forward.setIndexedDimensions({0, 1});
  EventSpace reversed(2, 2);
  reversed.setIndexedDimensions({1, 0});
  const Event e{3, 0};  // dim0 high, dim1 low
  EXPECT_EQ(forward.eventToDz(e, 2), dz("10"));
  EXPECT_EQ(reversed.eventToDz(e, 2), dz("01"));
}

TEST(EventSpace, OneBitDomain) {
  EventSpace space(2, 1);  // domain {0, 1} per dim
  EXPECT_EQ(space.domainMax(), 1u);
  EXPECT_EQ(space.maxDzLength(), 2);
  EXPECT_EQ(space.eventToDz(Event{1, 0}, 2), dz("10"));
  const DzSet dzs = space.rectangleToDz(Rectangle{{Range{1, 1}, Range{0, 1}}}, 2);
  EXPECT_EQ(dzs, DzSet{dz("1")});
}

TEST(EventSpace, WholeSpaceRectangle) {
  EventSpace space(2, 10);
  const DzSet dzs = space.rectangleToDz(space.wholeSpace(), 20, 16);
  ASSERT_EQ(dzs.size(), 1u);
  EXPECT_TRUE(dzs.items()[0].isWholeSpace());
}

}  // namespace
}  // namespace pleroma::dz
