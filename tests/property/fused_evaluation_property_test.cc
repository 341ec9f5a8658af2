// Property suite for the fused evaluation layer: on randomized workloads
// and assignments, every Fill* variant and SummarizeFeasibility must equal
// its scalar oracle bit-for-bit (EXPECT_EQ on doubles, not EXPECT_NEAR —
// the fused sweeps promise the same arithmetic, not an approximation), the
// cached solver must match the uncached reference solver, and a full engine
// run must be bit-identical for any thread count.
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/latency_solver.h"
#include "core/step_workspace.h"
#include "model/evaluation.h"
#include "model/latency_model.h"
#include "workloads/random.h"
#include "workloads/transform.h"

namespace lla {
namespace {

Workload MakeWorkload(std::uint64_t seed, int num_tasks = 6) {
  RandomWorkloadConfig config;
  config.seed = seed;
  config.num_tasks = num_tasks;
  config.target_utilization = 0.8;
  auto workload = MakeRandomWorkload(config);
  EXPECT_TRUE(workload.ok()) << workload.error();
  return std::move(workload.value());
}

// MakeWorkload(seed) with its tasks cycling through the four utility
// shapes, each scaled to the task's critical time C.
Workload FourShapeWorkload(std::uint64_t seed) {
  auto shaped = Rebuild(MakeWorkload(seed), nullptr,
                        [](TaskId task, TaskSpec& spec) {
    const double c = spec.critical_time_ms;
    const Utility shapes[] = {
        MakePaperSimUtility(c), Utility::Power(2.0 * c, 1.0 / c, 2.0),
        Utility::NegExp(2.0 * c, 1.0 / (3.0 * c)),
        Utility::Inelastic(c, 0.6 * c, 2.0 / c)};
    spec.utility = shapes[task.value() % 4];
  });
  EXPECT_TRUE(shaped.ok()) << shaped.error();
  return std::move(shaped.value());
}

Assignment RandomAssignment(const Workload& workload, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(0.5, 25.0);
  Assignment latencies(workload.subtask_count());
  for (double& lat : latencies) lat = dist(rng);
  return latencies;
}

class FusedEvaluationProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(FusedEvaluationProperty, FillsMatchScalarOraclesExactly) {
  const std::uint64_t seed = GetParam();
  const Workload w = MakeWorkload(seed);
  const LatencyModel model(w);

  // Exercise both the serial path and a real 4-wide pool with a grain of
  // one (max_concurrency overrides the hardware clamp, so single-core CI
  // still runs the parallel path).
  ParallelConfig force;
  force.min_items_per_thread = 1;
  force.max_concurrency = 4;
  ThreadPool pool(4, force);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    for (std::uint64_t round = 0; round < 4; ++round) {
      const Assignment latencies = RandomAssignment(w, seed * 131 + round);

      std::vector<double> share_sums;
      FillResourceShareSums(w, model, latencies, &share_sums, p);
      ASSERT_EQ(share_sums.size(), w.resource_count());
      for (const ResourceInfo& resource : w.resources()) {
        EXPECT_EQ(share_sums[resource.id.value()],
                  ResourceShareSum(w, model, resource.id, latencies));
      }

      std::vector<double> path_latencies;
      FillPathLatencies(w, latencies, &path_latencies, p);
      ASSERT_EQ(path_latencies.size(), w.path_count());
      for (const PathInfo& path : w.paths()) {
        EXPECT_EQ(path_latencies[path.id.value()],
                  PathLatency(w, path.id, latencies));
      }

      for (UtilityVariant variant :
           {UtilityVariant::kPathWeighted, UtilityVariant::kSum}) {
        std::vector<double> weighted, utilities;
        FillTaskAggregates(w, latencies, variant, &weighted, &utilities, p);
        ASSERT_EQ(utilities.size(), w.task_count());
        double total = 0.0;
        for (const TaskInfo& task : w.tasks()) {
          EXPECT_EQ(utilities[task.id.value()],
                    TaskUtility(w, task.id, latencies, variant));
          total += utilities[task.id.value()];
        }
        EXPECT_EQ(total, TotalUtility(w, latencies, variant));
      }

      const FeasibilityReport oracle = CheckFeasibility(w, model, latencies);
      const FeasibilitySummary summary =
          SummarizeFeasibility(w, share_sums, path_latencies);
      EXPECT_EQ(summary.feasible, oracle.feasible);
      EXPECT_EQ(summary.max_resource_excess, oracle.max_resource_excess);
      EXPECT_EQ(summary.max_path_ratio, oracle.max_path_ratio);
    }
  }
}

TEST_P(FusedEvaluationProperty, StepWorkspaceMatchesScalarOracles) {
  const std::uint64_t seed = GetParam();
  const Workload w = MakeWorkload(seed);
  const LatencyModel model(w);
  const Assignment latencies = RandomAssignment(w, seed * 977 + 5);

  StepWorkspace workspace;
  workspace.Resize(w);
  FillStepWorkspace(w, model, latencies, UtilityVariant::kPathWeighted, 1e-3,
                    nullptr, &workspace);

  EXPECT_EQ(workspace.total_utility,
            TotalUtility(w, latencies, UtilityVariant::kPathWeighted));
  const FeasibilityReport oracle = CheckFeasibility(w, model, latencies, 1e-3);
  EXPECT_EQ(workspace.feasibility.feasible, oracle.feasible);
  EXPECT_EQ(workspace.feasibility.max_resource_excess,
            oracle.max_resource_excess);
  EXPECT_EQ(workspace.feasibility.max_path_ratio, oracle.max_path_ratio);
  for (const ResourceInfo& resource : w.resources()) {
    const std::size_t r = resource.id.value();
    EXPECT_EQ(workspace.resource_share_sums[r],
              ResourceShareSum(w, model, resource.id, latencies));
    EXPECT_EQ(workspace.resource_congested[r],
              workspace.resource_share_sums[r] > resource.capacity);
  }
}

// The cached solver must match the uncached reference on `w` at random
// prices, before and after a model correction.
void ExpectCachedSolverMatchesReference(const Workload& w,
                                        std::uint64_t seed) {
  LatencyModel model(w);

  LatencySolverConfig cached_config;
  LatencySolverConfig reference_config;
  reference_config.cache_invariants = false;
  const LatencySolver cached(w, model, cached_config);
  const LatencySolver reference(w, model, reference_config);

  std::mt19937_64 rng(seed * 31 + 7);
  std::uniform_real_distribution<double> price_dist(0.0, 3.0);
  const auto check_all_prices = [&] {
    PriceVector prices = PriceVector::Uniform(w, 0.0, 0.0);
    for (double& mu : prices.mu) mu = price_dist(rng);
    for (double& lambda : prices.lambda) lambda = price_dist(rng);
    Assignment from_cached(w.subtask_count(), 0.0);
    Assignment from_reference(w.subtask_count(), 0.0);
    cached.SolveAll(prices, &from_cached);
    reference.SolveAll(prices, &from_reference);
    EXPECT_EQ(from_cached, from_reference);
    for (const SubtaskInfo& sub : w.subtasks()) {
      EXPECT_EQ(cached.LatLo(sub.id), reference.LatLo(sub.id));
      EXPECT_EQ(cached.LatHi(sub.id), reference.LatHi(sub.id));
    }
  };

  check_all_prices();
  // A model correction must reach the cached solver through the revision
  // check alone — no explicit invalidation here.
  model.SetAdditiveError(SubtaskId(std::size_t{0}), -0.4);
  model.SetAdditiveError(SubtaskId(w.subtask_count() - 1), 0.3);
  check_all_prices();
}

TEST_P(FusedEvaluationProperty, CachedSolverMatchesUncachedReference) {
  const std::uint64_t seed = GetParam();
  ExpectCachedSolverMatchesReference(MakeWorkload(seed), seed);
  // The random workloads are all linear 2C - x, solved in one closed-form
  // pass; cycling the four shapes also drives the bisection, where each h(x)
  // re-runs SolveClosedSpan in the cached solver.
  SCOPED_TRACE("four-shape workload");
  ExpectCachedSolverMatchesReference(FourShapeWorkload(seed), seed);
}

TEST_P(FusedEvaluationProperty, EngineRunBitIdenticalAcrossThreadCounts) {
  const std::uint64_t seed = GetParam();
  const Workload w = MakeWorkload(seed, /*num_tasks=*/8);
  const LatencyModel model(w);

  LlaConfig config;
  config.step_policy = StepPolicyKind::kAdaptive;
  config.gamma0 = 3.0;

  constexpr int kSteps = 400;
  std::vector<IterationStats> base_history;
  Assignment base_latencies;
  PriceVector base_prices;
  for (int num_threads : {1, 2, 8}) {
    config.num_threads = num_threads;
    config.parallel.max_concurrency = num_threads;
    config.parallel.min_items_per_thread = 1;
    LlaEngine engine(w, model, config);
    for (int i = 0; i < kSteps; ++i) engine.Step();
    if (num_threads == 1) {
      base_history = engine.history();
      base_latencies = engine.latencies();
      base_prices = engine.prices();
      continue;
    }
    ASSERT_EQ(engine.history().size(), base_history.size());
    for (int i = 0; i < kSteps; ++i) {
      EXPECT_EQ(engine.history()[i].total_utility,
                base_history[i].total_utility)
          << "threads=" << num_threads << " step=" << i;
      EXPECT_EQ(engine.history()[i].max_resource_excess,
                base_history[i].max_resource_excess);
      EXPECT_EQ(engine.history()[i].max_path_ratio,
                base_history[i].max_path_ratio);
      EXPECT_EQ(engine.history()[i].feasible, base_history[i].feasible);
    }
    EXPECT_EQ(engine.latencies(), base_latencies) << "threads=" << num_threads;
    EXPECT_EQ(engine.prices().mu, base_prices.mu);
    EXPECT_EQ(engine.prices().lambda, base_prices.lambda);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, FusedEvaluationProperty,
                         ::testing::Values(11u, 29u, 47u, 83u, 131u));

}  // namespace
}  // namespace lla
