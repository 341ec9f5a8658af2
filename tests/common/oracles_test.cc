#include "common/oracles.h"

#include <cmath>

#include <gtest/gtest.h>

namespace lla {
namespace {

TEST(GoldenSectionMaxTest, FindsMaximumOfConcaveFunction) {
  const auto f = [](double x) { return -(x - 3.0) * (x - 3.0); };
  EXPECT_NEAR(GoldenSectionMax(f, 0.0, 10.0), 3.0, 1e-7);
}

TEST(GoldenSectionMaxTest, HandlesBoundaryMaximum) {
  const auto f = [](double x) { return -x; };
  EXPECT_NEAR(GoldenSectionMax(f, 2.0, 5.0), 2.0, 1e-6);
}

// The checker must reject shapes the optimizer cannot handle.
struct IncreasingUtility {
  double Value(double x) const { return x; }
  double Derivative(double) const { return 1.0; }
};

struct ConvexDecreasingUtility {
  // exp(-x): decreasing but convex.
  double Value(double x) const { return std::exp(-x); }
  double Derivative(double x) const { return -std::exp(-x); }
};

TEST(ConcavityCheckTest, RejectsIncreasing) {
  EXPECT_FALSE(CheckConcaveNonIncreasing(IncreasingUtility{}, 0.0, 10.0));
}

TEST(ConcavityCheckTest, RejectsConvex) {
  EXPECT_FALSE(
      CheckConcaveNonIncreasing(ConvexDecreasingUtility{}, 0.0, 10.0));
}

}  // namespace
}  // namespace lla
