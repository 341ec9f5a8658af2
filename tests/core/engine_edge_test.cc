// Edge-case and regression tests for the engine.
#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "model/trigger.h"
#include "model/utility.h"
#include "workloads/paper.h"

namespace lla {
namespace {

// Regression: utility can plateau while prices still drift (all latencies
// pinned at their box bounds).  Before the price-stability convergence
// requirement, a warm start with absurdly high prices would "converge"
// immediately at the pinned allocation; now the engine must ride the
// prices back down to the true equilibrium.
TEST(EngineEdgeTest, DoesNotConvergeOnUtilityPlateau) {
  auto workload = MakePrototypeWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  LlaConfig config;
  config.step_policy = StepPolicyKind::kAdaptive;
  config.gamma0 = 3.0;
  config.record_history = false;
  LlaEngine engine(w, model, config);
  engine.WarmStart(PriceVector::Uniform(w, 5000.0, 0.0));
  const RunResult run = engine.Run(30000);
  ASSERT_TRUE(run.converged);
  // The true uncorrected equilibrium, not the price-pinned floor state.
  const double fast_share =
      model.share(SubtaskId(0u)).Share(engine.latencies()[0]);
  EXPECT_NEAR(fast_share, 0.2857, 0.005);
  // CPUs saturated (floors-only would leave them at 0.66).
  const FeasibilityReport report = engine.Feasibility();
  for (double sum : report.resource_share_sums) EXPECT_GT(sum, 0.85);
}

TEST(EngineEdgeTest, SingleTaskSingleResource) {
  std::vector<ResourceSpec> resources = {{"r", ResourceKind::kCpu, 1.0, 1.0}};
  TaskSpec task;
  task.name = "solo";
  task.critical_time_ms = 50.0;
  task.utility = MakePaperSimUtility(50.0);
  task.trigger = TriggerSpec::Periodic(100.0);
  task.subtasks = {{"s", ResourceId(0u), 4.0, 0.0}};
  auto workload = Workload::Create(std::move(resources), {task});
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  LlaEngine engine(w, model, LlaConfig{});
  const RunResult run = engine.Run(5000);
  EXPECT_TRUE(run.converged);
  // Sole subtask grabs the full resource: lat = work / 1.0 = 5 ms.
  EXPECT_NEAR(engine.latencies()[0], 5.0, 1e-3);
}

TEST(EngineEdgeTest, SharedResourceWithinTaskOption) {
  // Two subtasks of one task on the same CPU (allowed via Options): the
  // engine must still converge and respect capacity.
  std::vector<ResourceSpec> resources = {{"r", ResourceKind::kCpu, 1.0, 1.0}};
  TaskSpec task;
  task.name = "both";
  task.critical_time_ms = 60.0;
  task.utility = MakePaperSimUtility(60.0);
  task.trigger = TriggerSpec::Periodic(100.0);
  task.subtasks = {{"a", ResourceId(0u), 4.0, 0.0},
                   {"b", ResourceId(0u), 6.0, 0.0}};
  task.edges = {{0, 1}};
  WorkloadOptions options;
  options.allow_shared_resource_within_task = true;
  auto workload = Workload::Create(std::move(resources), {task}, options);
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);
  LlaConfig config;
  config.gamma0 = 3.0;
  LlaEngine engine(w, model, config);
  const RunResult run = engine.Run(12000);
  EXPECT_TRUE(run.converged);
  EXPECT_TRUE(run.final_feasibility.feasible);
  EXPECT_NEAR(run.final_feasibility.resource_share_sums[0], 1.0, 1e-3);
}

TEST(EngineEdgeTest, InelasticTasksConstrainWithoutTradeoff) {
  // One inelastic (hard-deadline-style) and one elastic task sharing a CPU:
  // the inelastic plateau means its utility is flat until near the
  // deadline, so the elastic task should capture most of the headroom.
  std::vector<ResourceSpec> resources = {
      {"r0", ResourceKind::kCpu, 1.0, 1.0},
      {"r1", ResourceKind::kCpu, 1.0, 1.0}};
  TaskSpec hard;
  hard.name = "hard";
  hard.critical_time_ms = 60.0;
  hard.utility = Utility::Inelastic(100.0, 40.0, 1.0);
  hard.trigger = TriggerSpec::Periodic(100.0);
  hard.subtasks = {{"h", ResourceId(0u), 4.0, 0.0}};
  TaskSpec soft;
  soft.name = "soft";
  soft.critical_time_ms = 80.0;
  soft.utility = MakePaperSimUtility(80.0);
  soft.trigger = TriggerSpec::Periodic(100.0);
  soft.subtasks = {{"s0", ResourceId(0u), 4.0, 0.0},
                   {"s1", ResourceId(1u), 3.0, 0.0}};
  soft.edges = {{0, 1}};
  auto workload = Workload::Create(std::move(resources), {hard, soft});
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  LlaConfig config;
  config.gamma0 = 3.0;
  LlaEngine engine(w, model, config);
  const RunResult run = engine.Run(12000);
  EXPECT_TRUE(run.converged);
  EXPECT_TRUE(run.final_feasibility.feasible);
  // The inelastic task is pushed toward (just inside) its plateau edge;
  // the elastic one gets the larger share of r0.
  const double hard_lat = engine.latencies()[0];
  const double soft_lat0 = engine.latencies()[1];
  EXPECT_GT(hard_lat, 20.0);   // does not hoard the resource
  EXPECT_LT(hard_lat, 60.0);   // meets its deadline
  EXPECT_LT(soft_lat0, hard_lat);
}

TEST(EngineEdgeTest, ZeroInitialPricesMatchDefault) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  LlaConfig config;
  config.initial_mu = 0.0;
  config.initial_lambda = 0.0;
  LlaEngine a(w, model, config);
  LlaEngine b(w, model, LlaConfig{});
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Step().total_utility, b.Step().total_utility);
  }
}

TEST(EngineEdgeTest, NonZeroInitialPricesStillConverge) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  LlaConfig config;
  config.gamma0 = 3.0;
  config.initial_mu = 50.0;
  config.initial_lambda = 2.0;
  LlaEngine engine(w, model, config);
  const RunResult run = engine.Run(12000);
  EXPECT_TRUE(run.converged);
  EXPECT_NEAR(run.final_utility, -76.0, 1.0);
}

// Restore reads the snapshot's counters as outside input.  An iteration
// outside [0, INT_MAX] (the engine counts steps in an int: 2^32 + 5 used to
// resume as 5) and a negative step iteration (which drives the diminishing
// schedule's 1 + t / tau through zero) are refused without touching the
// engine; a step iteration past INT_MAX is adopted whole, not narrowed
// (2^32 - 50 used to narrow to -50 and, at tau = 50, put inf in mu three
// steps later).
TEST(EngineEdgeTest, RestoreRangeChecksTheCounters) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  LlaConfig config;
  config.step_policy = StepPolicyKind::kDiminishing;
  config.gamma0 = 3.0;
  config.diminishing_tau = 50.0;
  config.record_history = false;
  LlaEngine donor(w, model, config);
  for (int i = 0; i < 20; ++i) donor.Step();
  const StateSnapshot good = donor.Checkpoint();

  LlaEngine engine(w, model, config);
  for (int i = 0; i < 5; ++i) engine.Step();
  const PriceVector before = engine.prices();
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  for (const std::int64_t iteration :
       {std::int64_t{-1}, kIntMax + 1, (std::int64_t{1} << 32) + 5}) {
    StateSnapshot bad = good;
    bad.iteration = iteration;
    const Status status = engine.Restore(bad);
    EXPECT_FALSE(status.ok()) << "iteration " << iteration;
  }
  for (const std::int64_t step_iteration :
       {std::int64_t{-1}, std::int64_t{-50}}) {
    StateSnapshot bad = good;
    bad.step_iteration = step_iteration;
    EXPECT_FALSE(engine.Restore(bad).ok()) << "step iteration "
                                           << step_iteration;
  }
  EXPECT_EQ(engine.iteration(), 5);
  EXPECT_EQ(engine.prices().mu, before.mu);
  EXPECT_EQ(engine.prices().lambda, before.lambda);

  StateSnapshot far = good;
  far.step_iteration = (std::int64_t{1} << 32) - 50;
  ASSERT_TRUE(engine.Restore(far).ok());
  for (int i = 0; i < 3; ++i) engine.Step();
  for (const double mu : engine.prices().mu) EXPECT_TRUE(std::isfinite(mu));
  for (const double lambda : engine.prices().lambda) {
    EXPECT_TRUE(std::isfinite(lambda));
  }
}

}  // namespace
}  // namespace lla
