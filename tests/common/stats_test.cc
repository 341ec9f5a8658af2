#include "common/stats.h"

#include <gtest/gtest.h>

namespace lla {
namespace {

TEST(SampleQuantileTest, ExactOrderStatistics) {
  SampleQuantile q;
  for (double x : {5.0, 1.0, 3.0, 2.0, 4.0}) q.Add(x);
  EXPECT_DOUBLE_EQ(q.Value(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.Value(0.5), 3.0);
  EXPECT_DOUBLE_EQ(q.Value(1.0), 5.0);
  EXPECT_DOUBLE_EQ(q.Value(0.25), 2.0);
  // Interpolation between order statistics.
  EXPECT_DOUBLE_EQ(q.Value(0.125), 1.5);
}

TEST(SampleQuantileTest, EmptyReturnsZero) {
  SampleQuantile q;
  EXPECT_DOUBLE_EQ(q.Value(0.5), 0.0);
}

TEST(ExponentialSmootherTest, FirstSampleInitializes) {
  ExponentialSmoother s(0.3);
  EXPECT_FALSE(s.initialized());
  EXPECT_DOUBLE_EQ(s.Add(10.0), 10.0);
  EXPECT_TRUE(s.initialized());
}

TEST(ExponentialSmootherTest, SmoothsTowardNewValues) {
  ExponentialSmoother s(0.5);
  s.Add(0.0);
  EXPECT_DOUBLE_EQ(s.Add(10.0), 5.0);
  EXPECT_DOUBLE_EQ(s.Add(10.0), 7.5);
  EXPECT_DOUBLE_EQ(s.Add(10.0), 8.75);
}

TEST(ExponentialSmootherTest, AlphaOneTracksInput) {
  ExponentialSmoother s(1.0);
  s.Add(3.0);
  EXPECT_DOUBLE_EQ(s.Add(-7.0), -7.0);
}

TEST(ExponentialSmootherTest, ConvergesToConstantInput) {
  ExponentialSmoother s(0.2);
  s.Add(100.0);
  for (int i = 0; i < 200; ++i) s.Add(4.0);
  EXPECT_NEAR(s.value(), 4.0, 1e-9);
}

}  // namespace
}  // namespace lla
