#include "runtime/coordinator.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "workloads/paper.h"

namespace lla::runtime {
namespace {

CoordinatorConfig SyncConfig() {
  CoordinatorConfig config;
  config.step.gamma0 = 3.0;
  config.bus.base_delay_ms = 0.0;
  return config;
}

TEST(RuntimeTest, SyncRoundsMatchEngineUtility) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);

  LlaConfig engine_config;
  engine_config.step_policy = StepPolicyKind::kAdaptive;
  engine_config.gamma0 = 3.0;
  engine_config.record_history = false;
  LlaEngine engine(w, model, engine_config);
  const RunResult engine_result = engine.Run(12000);
  ASSERT_TRUE(engine_result.converged);

  Coordinator coordinator(w, model, SyncConfig());
  const RunResult runtime_result = coordinator.RunSync(12000);
  EXPECT_TRUE(runtime_result.converged);
  EXPECT_TRUE(runtime_result.final_feasibility.feasible);
  EXPECT_NEAR(runtime_result.final_utility, engine_result.final_utility,
              1e-3 * std::fabs(engine_result.final_utility));
}

TEST(RuntimeTest, SyncRoundTrafficAccounting) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  Coordinator coordinator(w, model, SyncConfig());
  coordinator.RunSyncRound();
  // Per round, at the default one shard per resource: every task sends one
  // latency update per used resource (7 + 8 + 6 = 21) and every resource
  // sends one price update per client task (3+3+3+2+3+2+3+2 = 21).
  EXPECT_EQ(coordinator.bus().stats().sent, 42u);
  EXPECT_EQ(coordinator.bus().stats().delivered, 42u);
  EXPECT_GT(coordinator.bus().stats().bytes, 0u);
}

TEST(RuntimeTest, DeterministicAcrossIdenticalRuns) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  Coordinator a(w, model, SyncConfig());
  Coordinator b(w, model, SyncConfig());
  for (int round = 0; round < 100; ++round) {
    a.RunSyncRound();
    b.RunSyncRound();
  }
  EXPECT_EQ(a.CurrentAssignment(), b.CurrentAssignment());
}

TEST(RuntimeTest, AsyncConvergesWithDelaysJitterAndDrops) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  CoordinatorConfig config;
  config.step.gamma0 = 3.0;
  config.bus.base_delay_ms = 1.0;
  config.bus.jitter_ms = 2.0;
  config.bus.drop_probability = 0.02;
  config.bus.seed = 7;
  Coordinator coordinator(w, model, config);
  coordinator.RunAsync(150000.0);  // 150 s of virtual time
  EXPECT_TRUE(coordinator.Converged());
  EXPECT_TRUE(coordinator.CurrentFeasibility().feasible);

  // Same optimum as the synchronous deployment (approximately).
  Coordinator sync(w, model, SyncConfig());
  const RunResult sync_result = sync.RunSync(12000);
  EXPECT_NEAR(coordinator.CurrentUtility(), sync_result.final_utility,
              0.02 * std::fabs(sync_result.final_utility));
}

TEST(RuntimeTest, AsyncSurvivesHeavyLoss) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  CoordinatorConfig config;
  config.step.gamma0 = 3.0;
  config.bus.base_delay_ms = 1.0;
  config.bus.drop_probability = 0.25;
  config.bus.seed = 13;
  Coordinator coordinator(w, model, config);
  coordinator.RunAsync(200000.0);
  // With 25% loss convergence detection may flap, but the allocation must
  // still be near-feasible and sane.
  const auto report = coordinator.CurrentFeasibility();
  EXPECT_LT(report.max_resource_excess, 0.05);
  EXPECT_LT(report.max_path_ratio, 1.05);
}

TEST(RuntimeTest, EnactmentsAreSparseAfterConvergence) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  Coordinator coordinator(w, model, SyncConfig());
  coordinator.RunSync(12000);
  const auto& enactments = coordinator.enactments();
  ASSERT_FALSE(enactments.empty());
  // The first enactment happens immediately; the last well before the end
  // (no thrash at convergence).
  EXPECT_LE(enactments.front().round, 1);
  EXPECT_LT(enactments.back().round, coordinator.history().back().round);
  // Enactments are far fewer than rounds.
  EXPECT_LT(enactments.size(), coordinator.history().size() / 10);
}

TEST(RuntimeTest, ControllerSeesResourcePrices) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  Coordinator coordinator(w, model, SyncConfig());
  coordinator.RunSync(200);
  // After many rounds the controllers' view of mu matches the agents'.
  for (const TaskInfo& task : w.tasks()) {
    for (SubtaskId sid : task.subtasks) {
      const ResourceId r = w.subtask(sid).resource;
      EXPECT_NEAR(coordinator.controller(task.id).mu_seen(r),
                  coordinator.shard_of(r).mu(r), 1e-9);
    }
  }
}

TEST(RuntimeTest, PrototypeWorkloadConvergesDistributed) {
  auto workload = MakePrototypeWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  Coordinator coordinator(w, model, SyncConfig());
  const RunResult result = coordinator.RunSync(12000);
  EXPECT_TRUE(result.final_feasibility.feasible);
  // Fast subtasks at the theoretical uncorrected equilibrium (~0.2857).
  const Assignment assignment = coordinator.CurrentAssignment();
  const double fast_share =
      model.share(SubtaskId(0u)).Share(assignment[0]);
  EXPECT_NEAR(fast_share, 0.2857, 0.01);
}

}  // namespace
}  // namespace lla::runtime
