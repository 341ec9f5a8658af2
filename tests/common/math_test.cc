#include "common/math.h"

#include <gtest/gtest.h>

namespace lla {
namespace {

TEST(AlmostEqualTest, ExactAndNearValues) {
  EXPECT_TRUE(AlmostEqual(1.0, 1.0));
  EXPECT_TRUE(AlmostEqual(1.0, 1.0 + 1e-13));
  EXPECT_FALSE(AlmostEqual(1.0, 1.001));
  EXPECT_TRUE(AlmostEqual(0.0, 0.0));
  EXPECT_TRUE(AlmostEqual(1e-15, -1e-15));  // abs tolerance near zero
  EXPECT_FALSE(AlmostEqual(1.0, -1.0));
}

TEST(AlmostEqualTest, RelativeToleranceScalesWithMagnitude) {
  EXPECT_TRUE(AlmostEqual(1e12, 1e12 + 1.0, 1e-9));
  EXPECT_FALSE(AlmostEqual(1e12, 1e12 + 1e5, 1e-9));
}

TEST(ClampTest, Basics) {
  EXPECT_DOUBLE_EQ(Clamp(0.5, 0.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(Clamp(-1.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(Clamp(2.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(Clamp(3.0, 3.0, 3.0), 3.0);
}

}  // namespace
}  // namespace lla
