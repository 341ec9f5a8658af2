#include "model/percentile.h"

#include <cmath>

#include <gtest/gtest.h>

namespace lla {
namespace {

TEST(PercentileTest, PathLengthOneIsIdentity) {
  EXPECT_DOUBLE_EQ(PerSubtaskPercentile(0.9, 1), 0.9);
}

TEST(PercentileTest, PaperTwoSubtaskExample) {
  // Paper Sec. 2.1: two subtasks each at percentile p yield the p^2/100
  // percentile (percent notation), i.e. fraction p_f^2.
  EXPECT_NEAR(PerSubtaskPercentile(0.25, 2), 0.5, 1e-12);
}

TEST(PercentileTest, CompositionRoundTrips) {
  for (int n : {1, 2, 3, 5, 8}) {
    for (double p : {0.5, 0.9, 0.95, 0.99}) {
      const double q = PerSubtaskPercentile(p, n);
      // n subtasks each at q compose to the path percentile q^n.
      EXPECT_NEAR(std::pow(q, n), p, 1e-12)
          << "n=" << n << " p=" << p;
      EXPECT_GE(q, p);  // per-subtask percentile is more stringent
      EXPECT_LE(q, 1.0);
    }
  }
}

TEST(PercentileTest, PercentNotationMatchesPaperFormula) {
  // q_pct = p^(1/n) * 100^((n-1)/n).
  EXPECT_NEAR(PerSubtaskPercentilePct(99.0, 3),
              std::pow(99.0, 1.0 / 3) * std::pow(100.0, 2.0 / 3), 1e-9);
  // Consistency with the fraction API.
  for (int n : {1, 2, 4}) {
    EXPECT_NEAR(PerSubtaskPercentilePct(90.0, n) / 100.0,
                PerSubtaskPercentile(0.90, n), 1e-12);
  }
}

TEST(PercentileTest, HundredthPercentileStaysHundredth) {
  EXPECT_DOUBLE_EQ(PerSubtaskPercentile(1.0, 5), 1.0);
  EXPECT_DOUBLE_EQ(PerSubtaskPercentilePct(100.0, 5), 100.0);
}

TEST(PercentileTest, LongerPathsNeedTighterSubtaskPercentiles) {
  const double p = 0.9;
  double prev = 0.0;
  for (int n = 1; n <= 10; ++n) {
    const double q = PerSubtaskPercentile(p, n);
    EXPECT_GT(q, prev);
    prev = q;
  }
}

}  // namespace
}  // namespace lla
