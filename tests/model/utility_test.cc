#include "model/utility.h"

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

namespace lla {
namespace {

TEST(LinearUtilityTest, ValueAndDerivative) {
  LinearUtility u(90.0, 1.0);
  EXPECT_DOUBLE_EQ(u.Value(0.0), 90.0);
  EXPECT_DOUBLE_EQ(u.Value(45.0), 45.0);
  EXPECT_DOUBLE_EQ(u.Derivative(10.0), -1.0);
  EXPECT_DOUBLE_EQ(u.Derivative(1000.0), -1.0);
}

TEST(LinearUtilityTest, PaperSimFactory) {
  // f(x) = 2C - x with C = 45.
  auto u = MakePaperSimUtility(45.0);
  EXPECT_DOUBLE_EQ(u->Value(0.0), 90.0);
  EXPECT_DOUBLE_EQ(u->Value(45.0), 45.0);
}

TEST(LinearUtilityTest, PrototypeFactoryIsNegLatency) {
  auto u = MakePrototypeUtility();
  EXPECT_DOUBLE_EQ(u->Value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(u->Value(100.0), -100.0);
}

TEST(PowerUtilityTest, QuadraticCase) {
  PowerUtility u(100.0, 0.5, 2.0);
  EXPECT_DOUBLE_EQ(u.Value(0.0), 100.0);
  EXPECT_DOUBLE_EQ(u.Value(10.0), 50.0);
  EXPECT_DOUBLE_EQ(u.Derivative(10.0), -10.0);
}

TEST(PowerUtilityTest, ExponentOneIsLinear) {
  PowerUtility p(10.0, 2.0, 1.0);
  LinearUtility l(10.0, 2.0);
  for (double x : {0.0, 1.0, 5.5, 20.0}) {
    EXPECT_DOUBLE_EQ(p.Value(x), l.Value(x));
    EXPECT_DOUBLE_EQ(p.Derivative(x), l.Derivative(x));
  }
}

TEST(NegExpUtilityTest, ValueAndDerivative) {
  NegExpUtility u(0.0, 0.1);
  EXPECT_DOUBLE_EQ(u.Value(0.0), -10.0);  // -exp(0)/0.1
  EXPECT_DOUBLE_EQ(u.Derivative(0.0), -1.0);
  EXPECT_NEAR(u.Derivative(10.0), -std::exp(1.0), 1e-12);
}

TEST(InelasticUtilityTest, FlatThenQuadratic) {
  InelasticUtility u(50.0, 20.0, 2.0);
  EXPECT_DOUBLE_EQ(u.Value(0.0), 50.0);
  EXPECT_DOUBLE_EQ(u.Value(20.0), 50.0);
  EXPECT_DOUBLE_EQ(u.Derivative(15.0), 0.0);
  EXPECT_DOUBLE_EQ(u.Value(22.0), 50.0 - 0.5 * 2.0 * 4.0);
  EXPECT_DOUBLE_EQ(u.Derivative(22.0), -4.0);
}

TEST(InelasticUtilityTest, ContinuouslyDifferentiableAtKink) {
  InelasticUtility u(10.0, 5.0, 3.0);
  const double eps = 1e-7;
  EXPECT_NEAR(u.Value(5.0 - eps), u.Value(5.0 + eps), 1e-6);
  EXPECT_NEAR(u.Derivative(5.0 - eps), u.Derivative(5.0 + eps), 1e-5);
}

// The parameter ranges used to be asserts, compiled out of the default
// RelWithDebInfo and Release builds; every build mode now refuses them.
TEST(UtilityDeathTest, ConstructorsRejectOutOfRangeParameters) {
  const double nan = std::nan("");
  EXPECT_DEATH(LinearUtility(nan, 1.0), "LinearUtility: offset nan");
  EXPECT_DEATH(LinearUtility(80.0, -1.0), "LinearUtility: slope -1");
  EXPECT_DEATH(PowerUtility(80.0, -1.0, 2.0), "PowerUtility: coeff -1");
  EXPECT_DEATH(PowerUtility(80.0, 1.0, 0.5), "PowerUtility: exponent 0.5");
  EXPECT_DEATH(NegExpUtility(0.0, 0.0), "NegExpUtility: rate 0");
  EXPECT_DEATH(InelasticUtility(80.0, -1.0, 1.0),
               "InelasticUtility: flat_until -1");
  EXPECT_DEATH(InelasticUtility(80.0, 10.0, 0.0),
               "InelasticUtility: steepness 0");
}

// Every provided utility must pass the concavity/monotonicity property.
TEST(ConcavityCheckTest, AllProvidedUtilitiesPass) {
  std::vector<UtilityPtr> utilities = {
      std::make_shared<LinearUtility>(90.0, 1.0),
      std::make_shared<LinearUtility>(0.0, 0.0),  // constant is allowed
      std::make_shared<PowerUtility>(10.0, 0.1, 2.0),
      std::make_shared<PowerUtility>(10.0, 0.1, 1.5),
      std::make_shared<NegExpUtility>(5.0, 0.05),
      std::make_shared<InelasticUtility>(50.0, 20.0, 2.0),
      MakePaperSimUtility(76.0),
      MakePrototypeUtility(),
  };
  for (const auto& u : utilities) {
    EXPECT_TRUE(CheckConcaveNonIncreasing(*u, 0.0, 200.0)) << u->Describe();
  }
}

// The checker must reject shapes the optimizer cannot handle.
class IncreasingUtility final : public UtilityFunction {
 public:
  double Value(double x) const override { return x; }
  double Derivative(double) const override { return 1.0; }
  std::string Describe() const override { return "increasing"; }
};

class ConvexDecreasingUtility final : public UtilityFunction {
 public:
  // exp(-x): decreasing but convex.
  double Value(double x) const override { return std::exp(-x); }
  double Derivative(double x) const override { return -std::exp(-x); }
  std::string Describe() const override { return "convex-decreasing"; }
};

TEST(ConcavityCheckTest, RejectsIncreasing) {
  EXPECT_FALSE(CheckConcaveNonIncreasing(IncreasingUtility{}, 0.0, 10.0));
}

TEST(ConcavityCheckTest, RejectsConvex) {
  EXPECT_FALSE(
      CheckConcaveNonIncreasing(ConvexDecreasingUtility{}, 0.0, 10.0));
}

// Property: derivative matches a central finite difference for all shapes.
class UtilityDerivativeProperty
    : public ::testing::TestWithParam<double> {};

TEST_P(UtilityDerivativeProperty, DerivativeMatchesFiniteDifference) {
  const double x = GetParam();
  std::vector<UtilityPtr> utilities = {
      std::make_shared<LinearUtility>(90.0, 1.0),
      std::make_shared<PowerUtility>(10.0, 0.1, 2.0),
      std::make_shared<PowerUtility>(10.0, 0.3, 1.7),
      std::make_shared<NegExpUtility>(5.0, 0.05),
      std::make_shared<InelasticUtility>(50.0, 20.0, 2.0),
  };
  const double h = 1e-6 * (1.0 + x);
  for (const auto& u : utilities) {
    const double fd = (u->Value(x + h) - u->Value(x - h)) / (2.0 * h);
    EXPECT_NEAR(u->Derivative(x), fd, 1e-4 * (1.0 + std::fabs(fd)))
        << u->Describe() << " at x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(Points, UtilityDerivativeProperty,
                         ::testing::Values(0.5, 1.0, 7.0, 19.9, 20.1, 50.0,
                                           120.0));

}  // namespace
}  // namespace lla
