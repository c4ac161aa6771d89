#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace pleroma::obs {
namespace {

// ---- Histogram bucket geometry --------------------------------------------

TEST(Histogram, BucketZeroAbsorbsSubUnitAndNonPositive) {
  EXPECT_EQ(Histogram::bucketIndex(0.0), 0);
  EXPECT_EQ(Histogram::bucketIndex(-5.0), 0);
  EXPECT_EQ(Histogram::bucketIndex(0.999), 0);
  EXPECT_EQ(Histogram::bucketIndex(std::nan("")), 0);
  EXPECT_EQ(Histogram::bucketLowerBound(0), 0.0);
  EXPECT_EQ(Histogram::bucketUpperBound(0), 1.0);
}

TEST(Histogram, BucketBoundsBracketTheValue) {
  for (double v : {1.0, 1.5, 2.0, 3.0, 7.9, 100.0, 1e6, 1e12}) {
    const int i = Histogram::bucketIndex(v);
    EXPECT_LE(Histogram::bucketLowerBound(i), v) << "v=" << v;
    EXPECT_LT(v, Histogram::bucketUpperBound(i)) << "v=" << v;
  }
}

TEST(Histogram, BucketIndexIsMonotonicAndContiguous) {
  // Each bucket's upper bound is the next bucket's lower bound, so the
  // geometric grid tiles [1, inf) with no gaps.
  for (int i = 1; i < 64; ++i) {
    EXPECT_EQ(Histogram::bucketUpperBound(i), Histogram::bucketLowerBound(i + 1));
    EXPECT_LT(Histogram::bucketLowerBound(i), Histogram::bucketLowerBound(i + 1));
  }
  // Powers of two start a new octave at the first sub-bucket.
  EXPECT_EQ(Histogram::bucketIndex(1.0), 1);
  EXPECT_EQ(Histogram::bucketIndex(2.0), 1 + Histogram::kSubBuckets);
  EXPECT_EQ(Histogram::bucketIndex(4.0), 1 + 2 * Histogram::kSubBuckets);
}

TEST(Histogram, RelativeResolutionWithinOneSubBucket) {
  // ~12% relative resolution: bucket width / lower bound == 1/kSubBuckets.
  for (double v : {1.0, 3.0, 10.0, 1000.0}) {
    const int i = Histogram::bucketIndex(v);
    const double lo = Histogram::bucketLowerBound(i);
    const double hi = Histogram::bucketUpperBound(i);
    EXPECT_LE((hi - lo) / lo, 1.0 / Histogram::kSubBuckets + 1e-12);
  }
}

// ---- Histogram recording / percentiles ------------------------------------

TEST(Histogram, EmptyHistogramReportsZeros) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("t.empty");
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.percentile(0.5), 0.0);
}

TEST(Histogram, PercentilesApproximateNearestRank) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("t.lat");
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 500.5);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 1000.0);
  // Log-bucketed estimates answer with a bucket upper bound, so allow the
  // grid's ~12% relative error.
  EXPECT_NEAR(h.percentile(0.50), 500.0, 500.0 / Histogram::kSubBuckets);
  EXPECT_NEAR(h.percentile(0.90), 900.0, 900.0 / Histogram::kSubBuckets);
  EXPECT_NEAR(h.percentile(0.99), 990.0, 990.0 / Histogram::kSubBuckets);
  // Estimates never escape the observed range.
  EXPECT_GE(h.percentile(0.0), h.min());
  EXPECT_LE(h.percentile(1.0), h.max());
}

TEST(Histogram, SingleValuePercentilesClampToObservation) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("t.one");
  h.record(42.0);
  EXPECT_EQ(h.percentile(0.0), 42.0);
  EXPECT_EQ(h.percentile(0.5), 42.0);
  EXPECT_EQ(h.percentile(1.0), 42.0);
}

// ---- Counters / gauges ----------------------------------------------------

TEST(MetricsRegistry, CounterHandlesAreStableAndAccumulate) {
  MetricsRegistry reg;
  Counter& c = reg.counter("ctrl.flow_mods");
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(&reg.counter("ctrl.flow_mods"), &c);
}

// ---- Rendering ------------------------------------------------------------

TEST(MetricsRegistry, ToJsonShape) {
  MetricsRegistry reg;
  reg.counter("a.n").inc(3);
  reg.gauge("a.g").set(0.5);
  reg.histogram("a.h").record(2.0);
  const JsonValue doc = reg.toJson();
  ASSERT_TRUE(doc.isObject());
  const JsonValue* counters = doc.get("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->get("a.n")->asInt(), 3);
  EXPECT_DOUBLE_EQ(doc.get("gauges")->get("a.g")->asDouble(), 0.5);
  const JsonValue* h = doc.get("histograms")->get("a.h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->get("count")->asInt(), 1);
  EXPECT_DOUBLE_EQ(h->get("mean")->asDouble(), 2.0);
  for (const char* key : {"sum", "min", "max", "p50", "p90", "p99"}) {
    EXPECT_TRUE(h->contains(key)) << key;
  }
}

TEST(MetricsRegistry, ToTextListsEveryMetric) {
  MetricsRegistry reg;
  reg.counter("t.n").inc();
  reg.gauge("t.g").set(1.0);
  reg.histogram("t.h").record(5.0);
  const std::string text = reg.toText();
  EXPECT_NE(text.find("t.n 1"), std::string::npos);
  EXPECT_NE(text.find("t.g"), std::string::npos);
  EXPECT_NE(text.find("t.h count=1"), std::string::npos);
}

}  // namespace
}  // namespace pleroma::obs
