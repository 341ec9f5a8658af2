#include "model/utility.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/oracles.h"

namespace lla {
namespace {

TEST(LinearUtilityTest, ValueAndDerivative) {
  const Utility u = Utility::Linear(90.0, 1.0);
  EXPECT_EQ(u.Describe(), "linear(90 - 1*x)");
  EXPECT_DOUBLE_EQ(u.Value(0.0), 90.0);
  EXPECT_DOUBLE_EQ(u.Value(45.0), 45.0);
  EXPECT_DOUBLE_EQ(u.Derivative(10.0), -1.0);
  EXPECT_DOUBLE_EQ(u.Derivative(1000.0), -1.0);
}

TEST(LinearUtilityTest, PaperSimFactory) {
  // f(x) = 2C - x with C = 45.
  const Utility u = MakePaperSimUtility(45.0);
  EXPECT_DOUBLE_EQ(u.Value(0.0), 90.0);
  EXPECT_DOUBLE_EQ(u.Value(45.0), 45.0);
}

TEST(LinearUtilityTest, PrototypeFactoryIsNegLatency) {
  const Utility u = MakePrototypeUtility();
  EXPECT_DOUBLE_EQ(u.Value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(u.Value(100.0), -100.0);
}

TEST(PowerUtilityTest, QuadraticCase) {
  const Utility u = Utility::Power(100.0, 0.5, 2.0);
  EXPECT_EQ(u.Describe(), "power(100 - 0.5*x^2)");
  EXPECT_DOUBLE_EQ(u.Value(0.0), 100.0);
  EXPECT_DOUBLE_EQ(u.Value(10.0), 50.0);
  EXPECT_DOUBLE_EQ(u.Derivative(10.0), -10.0);
}

TEST(PowerUtilityTest, ExponentOneIsLinear) {
  const Utility p = Utility::Power(10.0, 2.0, 1.0);
  const Utility l = Utility::Linear(10.0, 2.0);
  for (double x : {0.0, 1.0, 5.5, 20.0}) {
    EXPECT_DOUBLE_EQ(p.Value(x), l.Value(x));
    EXPECT_DOUBLE_EQ(p.Derivative(x), l.Derivative(x));
  }
}

TEST(NegExpUtilityTest, ValueAndDerivative) {
  const Utility u = Utility::NegExp(0.0, 0.1);
  EXPECT_EQ(u.Describe(), "negexp(0 - exp(0.1*x)/0.1)");
  EXPECT_DOUBLE_EQ(u.Value(0.0), -10.0);  // -exp(0)/0.1
  EXPECT_DOUBLE_EQ(u.Derivative(0.0), -1.0);
  EXPECT_NEAR(u.Derivative(10.0), -std::exp(1.0), 1e-12);
}

TEST(InelasticUtilityTest, FlatThenQuadratic) {
  const Utility u = Utility::Inelastic(50.0, 20.0, 2.0);
  EXPECT_EQ(u.Describe(),
            "inelastic(plateau=50, flat_until=20, steepness=2)");
  EXPECT_DOUBLE_EQ(u.Value(0.0), 50.0);
  EXPECT_DOUBLE_EQ(u.Value(20.0), 50.0);
  EXPECT_DOUBLE_EQ(u.Derivative(15.0), 0.0);
  EXPECT_DOUBLE_EQ(u.Value(22.0), 50.0 - 0.5 * 2.0 * 4.0);
  EXPECT_DOUBLE_EQ(u.Derivative(22.0), -4.0);
}

TEST(InelasticUtilityTest, ContinuouslyDifferentiableAtKink) {
  const Utility u = Utility::Inelastic(10.0, 5.0, 3.0);
  const double eps = 1e-7;
  EXPECT_NEAR(u.Value(5.0 - eps), u.Value(5.0 + eps), 1e-6);
  EXPECT_NEAR(u.Derivative(5.0 - eps), u.Derivative(5.0 + eps), 1e-5);
}

// The parameter ranges used to be asserts, compiled out of the default
// RelWithDebInfo and Release builds; every build mode now refuses them.
TEST(UtilityDeathTest, ConstructorsRejectOutOfRangeParameters) {
  const double nan = std::nan("");
  EXPECT_DEATH(Utility::Linear(nan, 1.0), "utility linear: offset nan");
  EXPECT_DEATH(Utility::Linear(80.0, -1.0), "utility linear: slope -1");
  EXPECT_DEATH(Utility::Power(80.0, -1.0, 2.0), "utility power: coeff -1");
  EXPECT_DEATH(Utility::Power(80.0, 1.0, 0.5),
               "utility power: exponent 0.5");
  EXPECT_DEATH(Utility::NegExp(0.0, 0.0), "utility negexp: rate 0");
  EXPECT_DEATH(Utility::Inelastic(80.0, -1.0, 1.0),
               "utility inelastic: flat_until -1");
  EXPECT_DEATH(Utility::Inelastic(80.0, 10.0, 0.0),
               "utility inelastic: steepness 0");
}

// Every provided utility must pass the concavity/monotonicity property.
TEST(ConcavityCheckTest, AllProvidedUtilitiesPass) {
  const std::vector<Utility> utilities = {
      Utility::Linear(90.0, 1.0),
      Utility::Linear(0.0, 0.0),  // constant is allowed
      Utility::Power(10.0, 0.1, 2.0),
      Utility::Power(10.0, 0.1, 1.5),
      Utility::NegExp(5.0, 0.05),
      Utility::Inelastic(50.0, 20.0, 2.0),
      MakePaperSimUtility(76.0),
      MakePrototypeUtility(),
  };
  for (const Utility& u : utilities) {
    EXPECT_TRUE(CheckConcaveNonIncreasing(u, 0.0, 200.0)) << u.Describe();
  }
}

// Property: derivative matches a central finite difference for all shapes.
class UtilityDerivativeProperty
    : public ::testing::TestWithParam<double> {};

TEST_P(UtilityDerivativeProperty, DerivativeMatchesFiniteDifference) {
  const double x = GetParam();
  const std::vector<Utility> utilities = {
      Utility::Linear(90.0, 1.0),
      Utility::Power(10.0, 0.1, 2.0),
      Utility::Power(10.0, 0.3, 1.7),
      Utility::NegExp(5.0, 0.05),
      Utility::Inelastic(50.0, 20.0, 2.0),
  };
  const double h = 1e-6 * (1.0 + x);
  for (const Utility& u : utilities) {
    const double fd = (u.Value(x + h) - u.Value(x - h)) / (2.0 * h);
    EXPECT_NEAR(u.Derivative(x), fd, 1e-4 * (1.0 + std::fabs(fd)))
        << u.Describe() << " at x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(Points, UtilityDerivativeProperty,
                         ::testing::Values(0.5, 1.0, 7.0, 19.9, 20.1, 50.0,
                                           120.0));

}  // namespace
}  // namespace lla
