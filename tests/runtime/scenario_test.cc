// Coordinator what-if scenario evaluation: EvaluateScenarios must (a) leave
// the running distributed system untouched, (b) warm-start from the agents'
// live dual state (CurrentPrices), and (c) return bit-identical results
// whether the scenarios are evaluated serially or fanned across threads.
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "runtime/coordinator.h"
#include "workloads/paper.h"

namespace lla::runtime {
namespace {

LlaConfig Scenario(double gamma) {
  LlaConfig config;
  config.step_policy = StepPolicyKind::kAdaptive;
  config.gamma0 = gamma;
  config.record_history = false;
  return config;
}

TEST(CoordinatorScenarioTest, CurrentPricesMatchesAgentState) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);

  CoordinatorConfig config;
  config.step.gamma0 = 3.0;
  config.bus.base_delay_ms = 0.0;
  Coordinator coordinator(w, model, config);
  for (int i = 0; i < 50; ++i) coordinator.RunSyncRound();

  const PriceVector prices = coordinator.CurrentPrices();
  ASSERT_EQ(prices.mu.size(), w.resource_count());
  ASSERT_EQ(prices.lambda.size(), w.path_count());
  for (const ResourceInfo& resource : w.resources()) {
    EXPECT_EQ(prices.mu[resource.id.value()],
              coordinator.shard_of(resource.id).mu(resource.id));
  }
  // After 50 congested-start rounds at least one price moved off zero.
  double total = 0.0;
  for (double mu : prices.mu) total += mu;
  for (double lambda : prices.lambda) total += lambda;
  EXPECT_GT(total, 0.0);
}

TEST(CoordinatorScenarioTest, ThreadedEvaluationBitIdenticalAndReadOnly) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);

  CoordinatorConfig config;
  config.step.gamma0 = 3.0;
  config.bus.base_delay_ms = 0.0;
  Coordinator coordinator(w, model, config);
  for (int i = 0; i < 200; ++i) coordinator.RunSyncRound();

  const PriceVector before = coordinator.CurrentPrices();
  const Assignment assignment_before = coordinator.CurrentAssignment();

  const std::vector<LlaConfig> scenarios = {Scenario(1.0), Scenario(3.0),
                                            Scenario(6.0)};
  const std::vector<RunResult> serial =
      coordinator.EvaluateScenarios(scenarios, 6000, /*num_threads=*/1);
  const std::vector<RunResult> threaded =
      coordinator.EvaluateScenarios(scenarios, 6000, /*num_threads=*/4);

  ASSERT_EQ(serial.size(), scenarios.size());
  ASSERT_EQ(threaded.size(), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_EQ(serial[i].converged, threaded[i].converged);
    EXPECT_EQ(serial[i].iterations, threaded[i].iterations);
    EXPECT_EQ(serial[i].final_utility, threaded[i].final_utility);
  }

  // Matches a hand-rolled warm-started engine (the scenario semantics).
  LlaEngine reference(w, model, scenarios[0]);
  reference.WarmStart(before);
  const RunResult expected = reference.Run(6000);
  EXPECT_EQ(serial[0].converged, expected.converged);
  EXPECT_EQ(serial[0].iterations, expected.iterations);
  EXPECT_EQ(serial[0].final_utility, expected.final_utility);

  // The running system is untouched by what-if evaluation.
  const PriceVector after = coordinator.CurrentPrices();
  EXPECT_EQ(after.MaxAbsDiff(before), 0.0);
  EXPECT_EQ(coordinator.CurrentAssignment(), assignment_before);
}

}  // namespace
}  // namespace lla::runtime
