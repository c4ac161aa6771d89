#include "util/stats.hpp"

#include <gtest/gtest.h>

namespace pleroma::util {
namespace {

TEST(RunningStat, Empty) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, MeanAndVariance) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStat, SingleValue) {
  RunningStat s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 3.5);
  EXPECT_EQ(s.max(), 3.5);
}

TEST(RunningStat, MergeMatchesCombined) {
  RunningStat a, b, all;
  for (double v : {1.0, 2.0, 3.0}) {
    a.add(v);
    all.add(v);
  }
  for (double v : {10.0, 20.0}) {
    b.add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a, empty;
  a.add(5.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  RunningStat b;
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(b.mean(), 5.0);
}

// Regression: an empty side's default min_/max_ of 0.0 must never leak
// into the merged extrema. With all-positive samples a leaked 0 would
// drag min down; with all-negative samples it would drag max up.
TEST(RunningStat, MergeWithEmptyPreservesExtrema) {
  RunningStat positive;
  positive.add(4.0);
  positive.add(9.0);
  RunningStat empty;
  positive.merge(empty);
  EXPECT_EQ(positive.min(), 4.0);
  EXPECT_EQ(positive.max(), 9.0);

  RunningStat intoEmpty;
  intoEmpty.merge(positive);
  EXPECT_EQ(intoEmpty.min(), 4.0);
  EXPECT_EQ(intoEmpty.max(), 9.0);

  RunningStat negative;
  negative.add(-7.0);
  negative.add(-2.0);
  RunningStat target;
  target.merge(negative);
  target.merge(RunningStat{});
  EXPECT_EQ(target.min(), -7.0);
  EXPECT_EQ(target.max(), -2.0);
  EXPECT_EQ(target.count(), 2u);
}

}  // namespace
}  // namespace pleroma::util
