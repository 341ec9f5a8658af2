// LlaEngine::WarmStartStructural semantics (DESIGN.md §7.9): the selective
// re-prime after a task join/leave.  A two-cluster workload with disjoint
// resource sets makes the dirty closure observable — the untouched
// cluster's prices must come through BIT-identical, while the changed
// cluster is re-seeded (leave) or kept as a lower bound (join).
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "model/trigger.h"
#include "model/utility.h"
#include "workloads/transform.h"

namespace lla {
namespace {

std::vector<ResourceSpec> FourCpus() {
  return {{"cpu0", ResourceKind::kCpu, 1.0, 0.0},
          {"cpu1", ResourceKind::kCpu, 1.0, 0.0},
          {"cpu2", ResourceKind::kCpu, 1.0, 0.0},
          {"cpu3", ResourceKind::kCpu, 1.0, 0.0}};
}

TaskSpec ChainTask(const std::string& name, std::size_t r0, std::size_t r1) {
  TaskSpec task;
  task.name = name;
  task.critical_time_ms = 50.0;
  task.utility = MakePaperSimUtility(50.0);
  task.trigger = TriggerSpec::Periodic(100.0);
  task.subtasks = {{"a", ResourceId(r0), 8.0, 0.0},
                   {"b", ResourceId(r1), 12.0, 0.0}};
  task.edges = {{0, 1}};
  return task;
}

LlaConfig Converging() {
  LlaConfig config;
  config.step_policy = StepPolicyKind::kAdaptive;
  config.gamma0 = 3.0;
  config.record_history = false;
  return config;
}

// Cluster A: tA alone on {cpu0, cpu1}.  Cluster B: tB, tC share {cpu2,
// cpu3}.  The closure of a change to tC is exactly cluster B.
Workload FullSystem() {
  auto built = Workload::Create(
      FourCpus(), {ChainTask("tA", 0, 1), ChainTask("tB", 2, 3),
                   ChainTask("tC", 2, 3)});
  EXPECT_TRUE(built.ok()) << built.error();
  return std::move(built).value();
}

TEST(StructuralWarmStartTest, LeaveResetsOnlyTheClosure) {
  const Workload full = FullSystem();
  LatencyModel full_model(full);
  LlaEngine incumbent(full, full_model, Converging());
  ASSERT_TRUE(incumbent.Run(12000).converged);
  const PriceVector optimum = incumbent.prices();

  auto reduced = WithoutTask(full, TaskId(2u));
  ASSERT_TRUE(reduced.ok()) << reduced.error();
  LatencyModel reduced_model(reduced.value());
  LlaEngine warm(reduced.value(), reduced_model, Converging());
  const Status seeded = warm.WarmStartStructural(
      full, optimum, StructuralChange::TaskLeave(TaskId(2u)));
  ASSERT_TRUE(seeded.ok()) << seeded.error();

  // Cluster A is outside the closure: mu and tA's path lambda BIT-identical.
  EXPECT_EQ(std::memcmp(&warm.prices().mu[0], &optimum.mu[0],
                        2 * sizeof(double)),
            0);
  EXPECT_EQ(warm.prices().lambda[0], optimum.lambda[0]);
  // Cluster B's mu re-seeded at 0.0, where a cold start begins; its lambda
  // kept mapped.
  EXPECT_EQ(warm.prices().mu[2], 0.0);
  EXPECT_EQ(warm.prices().mu[3], 0.0);
  EXPECT_EQ(warm.prices().lambda[1], optimum.lambda[1]);
  // The closure: tB plus {cpu2, cpu3}.
  EXPECT_EQ(warm.last_reprime_tasks(), 1u);
  EXPECT_EQ(warm.last_reprime_resources(), 2u);

  // And the warm restart reaches the reduced system's optimum.
  LlaEngine cold(reduced.value(), reduced_model, Converging());
  const RunResult cold_run = cold.Run(12000);
  ASSERT_TRUE(cold_run.converged);
  const RunResult warm_run = warm.Run(12000);
  EXPECT_TRUE(warm_run.converged);
  EXPECT_NEAR(warm_run.final_utility, cold_run.final_utility,
              0.01 * std::abs(cold_run.final_utility));
}

TEST(StructuralWarmStartTest, JoinKeepsMappedPricesAndSeedsNewcomer) {
  auto reduced = Workload::Create(
      FourCpus(), {ChainTask("tA", 0, 1), ChainTask("tB", 2, 3)});
  ASSERT_TRUE(reduced.ok()) << reduced.error();
  LatencyModel reduced_model(reduced.value());
  const LlaConfig config = Converging();
  LlaEngine incumbent(reduced.value(), reduced_model, config);
  ASSERT_TRUE(incumbent.Run(12000).converged);
  const PriceVector before = incumbent.prices();

  WorkloadSpecs specs = ExtractSpecs(reduced.value());
  specs.tasks.push_back(ChainTask("tC", 2, 3));
  auto grown = Workload::Create(specs.resources, specs.tasks);
  ASSERT_TRUE(grown.ok()) << grown.error();
  LatencyModel grown_model(grown.value());
  LlaEngine warm(grown.value(), grown_model, config);
  const Status seeded = warm.WarmStartStructural(
      reduced.value(), before, StructuralChange::TaskJoin(TaskId(2u)));
  ASSERT_TRUE(seeded.ok()) << seeded.error();

  // A join keeps EVERY mapped price (the old mu is a lower bound for the
  // grown system); only the newcomer's lambda is fresh.
  EXPECT_EQ(std::memcmp(warm.prices().mu.data(), before.mu.data(),
                        before.mu.size() * sizeof(double)),
            0);
  EXPECT_EQ(warm.prices().lambda[0], before.lambda[0]);
  EXPECT_EQ(warm.prices().lambda[1], before.lambda[1]);
  EXPECT_EQ(warm.prices().lambda[2], 0.0);
  // The closure still reports what must re-converge: cluster B + newcomer.
  EXPECT_EQ(warm.last_reprime_tasks(), 2u);
  EXPECT_EQ(warm.last_reprime_resources(), 2u);
  EXPECT_TRUE(warm.Run(12000).converged);
}

TEST(StructuralWarmStartTest, RejectsInconsistentArguments) {
  const Workload full = FullSystem();
  LatencyModel full_model(full);
  LlaEngine incumbent(full, full_model, Converging());
  incumbent.Run(2000);
  const PriceVector prices = incumbent.prices();

  auto reduced = WithoutTask(full, TaskId(2u));
  ASSERT_TRUE(reduced.ok());
  LatencyModel reduced_model(reduced.value());
  LlaEngine warm(reduced.value(), reduced_model, Converging());

  // Old prices whose shape does not match the old workload.
  PriceVector misshapen = prices;
  misshapen.lambda.pop_back();
  EXPECT_FALSE(warm.WarmStartStructural(
                       full, misshapen,
                       StructuralChange::TaskLeave(TaskId(2u)))
                   .ok());
  // Departed id outside the old workload.
  EXPECT_FALSE(warm.WarmStartStructural(
                       full, prices, StructuralChange::TaskLeave(TaskId(7u)))
                   .ok());
  // Workloads that do not differ by exactly one task (old == new here).
  const PriceVector reduced_prices = PriceVector::Zero(reduced.value());
  EXPECT_FALSE(warm.WarmStartStructural(
                       reduced.value(), reduced_prices,
                       StructuralChange::TaskLeave(TaskId(0u)))
                   .ok());
  // Wrong direction: a join descriptor against a shrunk workload.
  EXPECT_FALSE(warm.WarmStartStructural(
                       full, prices, StructuralChange::TaskJoin(TaskId(1u)))
                   .ok());
  // A failed call never touches the engine.
  EXPECT_EQ(warm.iteration(), 0);
}

TEST(StructuralWarmStartDeathTest, PlainWarmStartAbortsOnShapeMismatch) {
  const Workload full = FullSystem();
  LatencyModel model(full);
  LlaEngine engine(full, model, Converging());
  PriceVector bad = PriceVector::Zero(full);
  bad.lambda.pop_back();  // a structurally-transformed vector, mis-passed
  EXPECT_DEATH(engine.WarmStart(bad), "does not match the workload");
}

}  // namespace
}  // namespace lla
