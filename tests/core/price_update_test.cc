#include "core/price_update.h"

#include <gtest/gtest.h>

#include "model/trigger.h"
#include "model/utility.h"

namespace lla {
namespace {

// One resource (B = 1, lag 0), one chain task of two subtasks (the second on
// a different resource so the first resource's arithmetic stays simple).
Workload MakeFixture(double capacity0 = 1.0) {
  std::vector<ResourceSpec> resources = {
      {"r0", ResourceKind::kCpu, capacity0, 0.0},
      {"r1", ResourceKind::kCpu, 1.0, 0.0}};
  TaskSpec task;
  task.name = "t";
  task.critical_time_ms = 20.0;
  task.utility = MakePaperSimUtility(20.0);
  task.trigger = TriggerSpec::Periodic(100.0);
  task.subtasks = {{"a", ResourceId(0u), 4.0, 0.0},
                   {"b", ResourceId(1u), 2.0, 0.0}};
  task.edges = {{0, 1}};
  auto workload = Workload::Create(std::move(resources), {task});
  EXPECT_TRUE(workload.ok()) << workload.error();
  return std::move(workload).value();
}

// Every resource and path steps `gamma`: a fixed schedule.
StepSchedule UniformSteps(double gamma) {
  return StepSchedule(StepPolicyKind::kFixed, gamma, 8.0, 50.0);
}

TEST(PriceUpdateTest, ResourcePriceRisesUnderCongestion) {
  const Workload w = MakeFixture();
  LatencyModel model(w);
  PriceUpdater updater(w, model);
  PriceVector prices = PriceVector::Zero(w);
  // lat_a = 2 -> share 2.0 on r0: excess 1.0.
  const Assignment lat = {2.0, 4.0};
  updater.UpdateResourcePrices(lat, UniformSteps(0.5), &prices);
  // mu = 0 - 0.5 * (1 - 2) = 0.5.
  EXPECT_DOUBLE_EQ(prices.mu[0], 0.5);
  // r1: share 0.5, slack 0.5, price stays projected at 0.
  EXPECT_DOUBLE_EQ(prices.mu[1], 0.0);
}

TEST(PriceUpdateTest, ResourcePriceDecaysWithSlack) {
  const Workload w = MakeFixture();
  LatencyModel model(w);
  PriceUpdater updater(w, model);
  PriceVector prices = PriceVector::Zero(w);
  prices.mu = {2.0, 2.0};
  const Assignment lat = {8.0, 4.0};  // shares 0.5 each, slack 0.5
  updater.UpdateResourcePrices(lat, UniformSteps(1.0), &prices);
  EXPECT_DOUBLE_EQ(prices.mu[0], 1.5);
  EXPECT_DOUBLE_EQ(prices.mu[1], 1.5);
}

TEST(PriceUpdateTest, ProjectionKeepsPricesNonNegative) {
  const Workload w = MakeFixture();
  LatencyModel model(w);
  PriceUpdater updater(w, model);
  PriceVector prices = PriceVector::Zero(w);
  prices.mu = {0.1, 0.0};
  const Assignment lat = {8.0, 4.0};  // slack 0.5 on both
  updater.UpdateResourcePrices(lat, UniformSteps(10.0), &prices);
  EXPECT_DOUBLE_EQ(prices.mu[0], 0.0);
  EXPECT_DOUBLE_EQ(prices.mu[1], 0.0);
}

TEST(PriceUpdateTest, PathPriceFollowsNormalizedSlack) {
  const Workload w = MakeFixture();
  LatencyModel model(w);
  PriceUpdater updater(w, model);
  PriceVector prices = PriceVector::Zero(w);
  // Path latency 30 vs C = 20: violation by 50%.
  const Assignment lat = {20.0, 10.0};
  updater.UpdatePathPrices(lat, UniformSteps(2.0), &prices);
  // lambda = 0 - 2 * (1 - 30/20) = 1.0.
  EXPECT_DOUBLE_EQ(prices.lambda[0], 1.0);
}

TEST(PriceUpdateTest, PathPriceDecaysWhenMeetingDeadline) {
  const Workload w = MakeFixture();
  LatencyModel model(w);
  PriceUpdater updater(w, model);
  PriceVector prices = PriceVector::Zero(w);
  prices.lambda[0] = 1.0;
  const Assignment lat = {5.0, 5.0};  // latency 10, slack 50%
  updater.UpdatePathPrices(lat, UniformSteps(1.0), &prices);
  EXPECT_DOUBLE_EQ(prices.lambda[0], 0.5);
}

TEST(PriceUpdateTest, CongestionFlags) {
  const Workload w = MakeFixture();
  LatencyModel model(w);
  PriceUpdater updater(w, model);
  const Assignment congested = {2.0, 4.0};  // r0 share 2.0 > 1
  auto flags = updater.ResourceCongestion(congested);
  EXPECT_TRUE(flags[0]);
  EXPECT_FALSE(flags[1]);
  const Assignment ok = {8.0, 4.0};
  flags = updater.ResourceCongestion(ok);
  EXPECT_FALSE(flags[0]);
  EXPECT_FALSE(flags[1]);
}

TEST(PriceUpdateTest, ExactBoundaryIsNotCongested) {
  const Workload w = MakeFixture();
  LatencyModel model(w);
  PriceUpdater updater(w, model);
  const Assignment boundary = {4.0, 4.0};  // share exactly 1.0 on r0
  EXPECT_FALSE(updater.ResourceCongestion(boundary)[0]);
  // And the price update leaves mu unchanged (zero gradient).
  PriceVector prices = PriceVector::Zero(w);
  prices.mu[0] = 3.0;
  updater.UpdateResourcePrices(boundary, UniformSteps(1.0), &prices);
  EXPECT_DOUBLE_EQ(prices.mu[0], 3.0);
}

TEST(PriceUpdateTest, RespectsReducedCapacity) {
  const Workload w = MakeFixture(/*capacity0=*/0.5);
  LatencyModel model(w);
  PriceUpdater updater(w, model);
  const Assignment lat = {8.0, 4.0};  // share 0.5 on r0 == B_r
  EXPECT_FALSE(updater.ResourceCongestion(lat)[0]);
  const Assignment over = {7.0, 4.0};  // share 4/7 > 0.5
  EXPECT_TRUE(updater.ResourceCongestion(over)[0]);
}

TEST(PriceUpdateTest, CorrectedModelChangesShareSums) {
  const Workload w = MakeFixture();
  LatencyModel model(w);
  PriceUpdater updater(w, model);
  const Assignment lat = {3.0, 4.0};  // share 4/3 > 1: congested
  EXPECT_TRUE(updater.ResourceCongestion(lat)[0]);
  // With error -3, share = 4/(3+3) = 0.67: no longer congested.
  model.SetAdditiveError(SubtaskId(0u), -3.0);
  EXPECT_FALSE(updater.ResourceCongestion(lat)[0]);
}

}  // namespace
}  // namespace lla
