#include "model/share.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/oracles.h"

namespace lla {
namespace {

// WcetLagShareTest covers the paper's Eq. 10 model (error 0, work = wcet +
// lag); CorrectedWcetLagShareTest covers the Sec. 6.3 shift by a measured
// additive error.  Both are the one ShareFunction type.

TEST(WcetLagShareTest, PaperEquation10) {
  // share = (c + l) / lat with c = 5, l = 5 (the prototype's parameters).
  ShareFunction share(5.0 + 5.0, 0.0);
  EXPECT_DOUBLE_EQ(share.work_ms(), 10.0);
  EXPECT_DOUBLE_EQ(share.Share(50.0), 0.2);
  EXPECT_DOUBLE_EQ(share.LatencyForShare(0.2), 50.0);
  EXPECT_DOUBLE_EQ(share.DShareDLat(10.0), -0.1);
}

TEST(WcetLagShareTest, InverseRoundTrips) {
  ShareFunction share(3.0 + 1.0, 0.0);
  for (double lat : {0.5, 1.0, 4.0, 40.0, 400.0}) {
    EXPECT_NEAR(share.LatencyForShare(share.Share(lat)), lat, 1e-12);
  }
}

TEST(WcetLagShareTest, PassesPropertyCheck) {
  ShareFunction share(2.0 + 1.0, 0.0);
  EXPECT_TRUE(CheckShareFunction(share, 0.1, 100.0));
}

TEST(WcetLagShareTest, NegSlopeClosedForm) {
  ShareFunction share(5.0 + 1.0, 0.0);  // work = 6
  // -share'(lat) = 6/lat^2 = 1.5 => lat = 2.
  EXPECT_DOUBLE_EQ(share.LatencyForNegSlope(1.5, 0.1, 100.0), 2.0);
  // Clamping.
  EXPECT_DOUBLE_EQ(share.LatencyForNegSlope(1.5, 3.0, 100.0), 3.0);
  EXPECT_DOUBLE_EQ(share.LatencyForNegSlope(1.5, 0.1, 1.0), 1.0);
  // g = 0 (no pressure): largest latency.
  EXPECT_DOUBLE_EQ(share.LatencyForNegSlope(0.0, 0.1, 100.0), 100.0);
}

TEST(CorrectedWcetLagShareTest, NegativeErrorShiftsLatencyDown) {
  // Uncorrected predicts 10/sigma; correction discovers actual latency is
  // ~15 ms lower (the paper's unsynchronized-release effect).
  ShareFunction corrected(5.0 + 5.0, -15.0);
  // For latency 35: share = 10 / (35 + 15) = 0.2.
  EXPECT_DOUBLE_EQ(corrected.Share(35.0), 0.2);
  EXPECT_DOUBLE_EQ(corrected.LatencyForShare(0.2), 35.0);
}

TEST(CorrectedWcetLagShareTest, ZeroErrorMatchesUncorrected) {
  // Error 0 is the uncorrected Eq. 10 arithmetic, bit for bit.
  const double work = 5.0 + 2.0;
  ShareFunction corrected(work, 0.0);
  for (double lat : {1.0, 5.0, 50.0}) {
    EXPECT_EQ(corrected.Share(lat), work / lat);
    EXPECT_EQ(corrected.DShareDLat(lat), -work / (lat * lat));
    EXPECT_EQ(corrected.LatencyForShare(work / lat), work / (work / lat));
  }
  EXPECT_EQ(corrected.MinLatency(), 0.0);
  EXPECT_EQ(corrected.LatencyForNegSlope(0.3, 0.1, 100.0),
            std::sqrt(work / 0.3));
}

TEST(CorrectedWcetLagShareTest, PositiveErrorRaisesMinLatency) {
  ShareFunction corrected(5.0 + 0.0, 3.0);
  EXPECT_DOUBLE_EQ(corrected.MinLatency(), 3.0);
  EXPECT_GT(corrected.Share(3.5), 0.0);
}

TEST(CorrectedWcetLagShareTest, PassesPropertyCheck) {
  ShareFunction negative(5.0 + 1.0, -4.0);
  EXPECT_TRUE(CheckShareFunction(negative, 0.5, 100.0));
  ShareFunction positive(5.0 + 1.0, 2.0);
  EXPECT_TRUE(CheckShareFunction(positive, 2.5, 100.0));
}

TEST(CorrectedWcetLagShareTest, NegSlopeClosedForm) {
  ShareFunction corrected(5.0 + 1.0, -2.0);  // work 6, e = -2
  // -share' = 6/(lat+2)^2 = 1.5 => lat = 0 -> clamped at lo.
  EXPECT_DOUBLE_EQ(corrected.LatencyForNegSlope(1.5, 0.5, 100.0), 0.5);
  // 6/(lat+2)^2 = 0.06 => lat + 2 = 10 => lat = 8.
  EXPECT_NEAR(corrected.LatencyForNegSlope(0.06, 0.5, 100.0), 8.0, 1e-12);
}

// Parameterized inversion property across the (wcet, lag, error) space.
struct ShareParams {
  double wcet;
  double lag;
  double error;
};

class CorrectedShareProperty
    : public ::testing::TestWithParam<ShareParams> {};

TEST_P(CorrectedShareProperty, ShareAndInverseAgree) {
  const auto& p = GetParam();
  ShareFunction share(p.wcet + p.lag, p.error);
  const double lo = share.MinLatency() + 0.5;
  for (double lat = lo; lat < lo + 200.0; lat += 7.3) {
    const double s = share.Share(lat);
    EXPECT_GT(s, 0.0);
    EXPECT_NEAR(share.LatencyForShare(s), lat, 1e-9 * lat);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Params, CorrectedShareProperty,
    ::testing::Values(ShareParams{1.0, 0.0, 0.0}, ShareParams{5.0, 5.0, -15.0},
                      ShareParams{13.0, 5.0, -20.0}, ShareParams{2.0, 1.0, 3.0},
                      ShareParams{8.0, 0.5, -0.25}));

}  // namespace
}  // namespace lla
