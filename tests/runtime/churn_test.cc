// ChurnDriver's warm-stall fallback (DESIGN.md §7.9): when a mutation's warm
// re-convergence misses max_iterations, the driver resets the live engine
// and re-runs once from cold.  The record charges both attempts: their
// iterations, their subtask solves and the cold run's dense prime.
//
// A budget shorter than the convergence window can never converge, so every
// mutation here stalls, and the engine runs dense so each step solves every
// subtask and the expected totals are exact.
#include <cstdint>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "runtime/churn.h"
#include "workloads/random.h"
#include "workloads/transform.h"

namespace lla::runtime {
namespace {

constexpr int kBudget = 5;
static_assert(kBudget < kConvergenceWindow,
              "the budget must end every run before the window fills");

Expected<ChurnDriver> StallingDriver() {
  RandomWorkloadConfig shape;
  shape.seed = 11;
  shape.num_resources = 8;
  shape.num_tasks = 6;
  shape.target_utilization = 0.6;
  auto workload = MakeRandomWorkload(shape);
  EXPECT_TRUE(workload.ok()) << workload.error();
  const WorkloadSpecs specs = ExtractSpecs(workload.value());
  ChurnConfig config;
  config.lla.gamma0 = 3.0;
  config.lla.record_history = false;
  config.lla.active_set.enabled = false;
  config.max_iterations = kBudget;
  return ChurnDriver::Create(specs.resources, specs.tasks, config);
}

TEST(ChurnDriverTest, WcetStallRestartsColdOnce) {
  auto driver = StallingDriver();
  ASSERT_TRUE(driver.ok()) << driver.error();
  ChurnMutation perturb;
  perturb.kind = ChurnKind::kWcetPerturb;
  perturb.subtask_index = 3;
  perturb.wcet_error_ms = 0.01;

  const ChurnRecord record = driver.value().Apply(perturb);
  ASSERT_TRUE(record.applied);
  EXPECT_FALSE(record.converged);
  EXPECT_EQ(record.note, "cold restart after warm stall");
  // The warm attempt and the cold retry each spend the whole budget.
  EXPECT_EQ(record.iterations, 2 * kBudget);
  // An in-place perturbation has no structural prime; the cold retry adds
  // its dense prime to the two budgets of dense steps.
  const std::uint64_t subtasks = driver.value().workload().subtask_count();
  EXPECT_EQ(record.subtask_solves, (2 * kBudget + 1) * subtasks);
  // The live engine is the cold one.
  EXPECT_EQ(driver.value().engine().iteration(), kBudget);
}

TEST(ChurnDriverTest, LeaveStallChargesBothPrimes) {
  auto driver = StallingDriver();
  ASSERT_TRUE(driver.ok()) << driver.error();
  ChurnMutation leave;
  leave.kind = ChurnKind::kLeave;
  leave.leave_index = 2;

  const ChurnRecord record = driver.value().Apply(leave);
  ASSERT_TRUE(record.applied);
  EXPECT_FALSE(record.converged);
  EXPECT_EQ(record.note, "cold restart after warm stall");
  EXPECT_EQ(record.iterations, 2 * kBudget);
  // The structural warm start's dense prime, two budgets of dense steps and
  // the cold retry's dense prime, all on the post-leave workload.
  const std::uint64_t subtasks = driver.value().workload().subtask_count();
  EXPECT_EQ(record.subtask_solves, (2 * kBudget + 2) * subtasks);
  EXPECT_EQ(record.tasks_after, 5u);
}

}  // namespace
}  // namespace lla::runtime
