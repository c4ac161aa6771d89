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

}  // namespace
}  // namespace pleroma::util
