#include "core/latency_solver.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/math.h"
#include "model/trigger.h"
#include "model/utility.h"
#include "workloads/paper.h"

namespace lla {
namespace {

// Single task, single subtask on one resource: the solver must reproduce the
// closed form lat = sqrt(mu * work / (w + Lambda)).
Workload OneSubtaskWorkload(Utility utility, double min_share = 0.0) {
  std::vector<ResourceSpec> resources = {{"r0", ResourceKind::kCpu, 1.0, 1.0}};
  TaskSpec task;
  task.name = "t";
  task.critical_time_ms = 100.0;
  task.utility = std::move(utility);
  task.trigger = TriggerSpec::Periodic(100.0);
  task.subtasks = {{"s", ResourceId(0u), 3.0, min_share}};  // work = 4
  auto workload = Workload::Create(std::move(resources), {task});
  EXPECT_TRUE(workload.ok()) << workload.error();
  return std::move(workload).value();
}

TEST(LatencySolverTest, ClosedFormLinearUtility) {
  const Workload w = OneSubtaskWorkload(MakePaperSimUtility(100.0));
  LatencyModel model(w);
  LatencySolver solver(w, model);
  PriceVector prices = PriceVector::Zero(w);
  prices.mu[0] = 25.0;
  prices.lambda[0] = 0.0;
  Assignment lat(1, 0.0);
  solver.SolveAll(prices, &lat);
  // lat = sqrt(mu * work / (w + Lambda)) = sqrt(25*4/1) = 10.
  EXPECT_NEAR(lat[0], 10.0, 1e-12);
}

TEST(LatencySolverTest, PathPriceEntersDenominator) {
  const Workload w = OneSubtaskWorkload(MakePaperSimUtility(100.0));
  LatencyModel model(w);
  LatencySolver solver(w, model);
  PriceVector prices = PriceVector::Zero(w);
  prices.mu[0] = 25.0;
  prices.lambda[0] = 3.0;
  Assignment lat(1, 0.0);
  solver.SolveAll(prices, &lat);
  // sqrt(25*4/(1+3)) = 5.
  EXPECT_NEAR(lat[0], 5.0, 1e-12);
}

TEST(LatencySolverTest, ZeroResourcePriceDrivesLatencyToFloor) {
  const Workload w = OneSubtaskWorkload(MakePaperSimUtility(100.0));
  LatencyModel model(w);
  LatencySolver solver(w, model);
  const PriceVector prices = PriceVector::Zero(w);
  Assignment lat(1, 0.0);
  solver.SolveAll(prices, &lat);
  // Free resource + positive pressure: grab the whole capacity.
  EXPECT_NEAR(lat[0], solver.LatLo(SubtaskId(0u)), 1e-12);
  EXPECT_NEAR(lat[0], 4.0, 1e-12);  // share = work/lat = 1.0 = capacity
}

TEST(LatencySolverTest, FlatUtilityReleasesResource) {
  // Constant utility, no path pressure: latency goes to its cap.
  const Workload w = OneSubtaskWorkload(Utility::Linear(10.0, 0.0));
  LatencyModel model(w);
  LatencySolver solver(w, model);
  PriceVector prices = PriceVector::Zero(w);
  prices.mu[0] = 25.0;
  Assignment lat(1, 0.0);
  solver.SolveAll(prices, &lat);
  EXPECT_NEAR(lat[0], solver.LatHi(SubtaskId(0u)), 1e-12);
}

TEST(LatencySolverTest, MinShareFloorCapsLatency) {
  const Workload w =
      OneSubtaskWorkload(MakePaperSimUtility(100.0), /*min_share=*/0.2);
  LatencyModel model(w);
  LatencySolver solver(w, model);
  // LatHi = work / min_share = 20.
  EXPECT_NEAR(solver.LatHi(SubtaskId(0u)), 20.0, 1e-12);
  PriceVector prices = PriceVector::Zero(w);
  prices.mu[0] = 1e6;  // enormous price wants a huge latency
  Assignment lat(1, 0.0);
  solver.SolveAll(prices, &lat);
  EXPECT_NEAR(lat[0], 20.0, 1e-12);
}

TEST(LatencySolverTest, BoundsAreOrdered) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  LatencySolver solver(w, model);
  for (const SubtaskInfo& sub : w.subtasks()) {
    EXPECT_GT(solver.LatLo(sub.id), 0.0);
    EXPECT_LE(solver.LatLo(sub.id), solver.LatHi(sub.id));
  }
}

// Stationarity property: at the solver's output, each interior latency is a
// true maximizer of the per-subtask Lagrangian term
//   L_s(lat) = w * f'(X) * lat - Lambda * lat - mu * share(lat)
// (linear utility: f'(X) constant, so the per-subtask term is exact).
class StationarityProperty : public ::testing::TestWithParam<double> {};

TEST_P(StationarityProperty, OutputMaximizesLagrangianTerm) {
  const double mu_seed = GetParam();
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  LatencySolver solver(w, model);

  PriceVector prices = PriceVector::Zero(w);
  for (std::size_t r = 0; r < prices.mu.size(); ++r) {
    prices.mu[r] = mu_seed * (1.0 + 0.3 * r);
  }
  for (std::size_t p = 0; p < prices.lambda.size(); ++p) {
    prices.lambda[p] = 0.2 * mu_seed * (p % 3);
  }
  Assignment lat(w.subtask_count(), 0.0);
  solver.SolveAll(prices, &lat);

  for (const SubtaskInfo& sub : w.subtasks()) {
    const double w_s =
        w.Weight(sub.id, UtilityVariant::kPathWeighted);
    const double lambda_sum = prices.PathPriceSum(w, sub.id);
    const double mu = prices.mu[sub.resource.value()];
    const auto term = [&](double l) {
      return -w_s * l - lambda_sum * l - mu * model.share(sub.id).Share(l);
    };
    const double lo = solver.LatLo(sub.id);
    const double hi = solver.LatHi(sub.id);
    const double best = GoldenSectionMax(term, lo, hi, 1e-9);
    EXPECT_NEAR(term(lat[sub.id.value()]), term(best),
                1e-6 * (1.0 + std::fabs(term(best))))
        << sub.name << " mu_seed=" << mu_seed;
  }
}

INSTANTIATE_TEST_SUITE_P(MuSeeds, StationarityProperty,
                         ::testing::Values(0.5, 2.0, 10.0, 60.0, 250.0));

// Nonlinear utility: the fixed point over X must satisfy the coupled
// stationarity equation.
TEST(LatencySolverTest, NonlinearUtilityFixedPoint) {
  std::vector<ResourceSpec> resources = {
      {"r0", ResourceKind::kCpu, 1.0, 1.0},
      {"r1", ResourceKind::kCpu, 1.0, 1.0}};
  TaskSpec task;
  task.name = "quad";
  task.critical_time_ms = 200.0;
  task.utility = Utility::Power(1000.0, 0.05, 2.0);
  task.trigger = TriggerSpec::Periodic(100.0);
  task.subtasks = {{"a", ResourceId(0u), 3.0, 0.0},
                   {"b", ResourceId(1u), 5.0, 0.0}};
  task.edges = {{0, 1}};
  auto workload = Workload::Create(std::move(resources), {task});
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);
  LatencySolver solver(w, model);

  PriceVector prices = PriceVector::Zero(w);
  prices.mu = {40.0, 60.0};
  prices.lambda[0] = 0.5;
  Assignment lat(2, 0.0);
  solver.SolveAll(prices, &lat);

  // Verify stationarity: w*f'(X) - Lambda - mu*share'(lat) = 0 per subtask.
  const double x = lat[0] + lat[1];
  const double slope = w.task(TaskId(0u)).utility.Derivative(x);
  for (const SubtaskInfo& sub : w.subtasks()) {
    const double residual =
        slope - prices.lambda[0] -
        prices.mu[sub.resource.value()] *
            model.share(sub.id).DShareDLat(lat[sub.id.value()]);
    EXPECT_NEAR(residual, 0.0, 1e-5) << sub.name;
  }
}

TEST(LatencySolverTest, CorrectionShiftsSolution) {
  const Workload w = OneSubtaskWorkload(MakePaperSimUtility(100.0));
  LatencyModel model(w);
  LatencySolver solver(w, model);
  PriceVector prices = PriceVector::Zero(w);
  prices.mu[0] = 25.0;
  Assignment before(1, 0.0), after(1, 0.0);
  solver.SolveAll(prices, &before);
  model.SetAdditiveError(SubtaskId(0u), -2.0);
  solver.SolveAll(prices, &after);
  // Corrected share work/(lat+2): interior solution shifts by the error:
  // sqrt(25*4/1) - 2 = 8.
  EXPECT_NEAR(after[0], before[0] - 2.0, 1e-9);
}

}  // namespace
}  // namespace lla
