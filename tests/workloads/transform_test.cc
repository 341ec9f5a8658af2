#include "workloads/transform.h"

#include <gtest/gtest.h>

#include "core/engine.h"
#include "workloads/paper.h"
#include "workloads/random.h"

namespace lla {
namespace {

TEST(TransformTest, ExtractRebuildRoundTrips) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& original = workload.value();
  auto rebuilt = Rebuild(original, nullptr, nullptr);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.error();
  const Workload& copy = rebuilt.value();
  ASSERT_EQ(copy.subtask_count(), original.subtask_count());
  ASSERT_EQ(copy.path_count(), original.path_count());
  for (std::size_t s = 0; s < original.subtask_count(); ++s) {
    const SubtaskInfo& a = original.subtask(SubtaskId(s));
    const SubtaskInfo& b = copy.subtask(SubtaskId(s));
    EXPECT_EQ(a.name, b.name);
    EXPECT_DOUBLE_EQ(a.wcet_ms, b.wcet_ms);
    EXPECT_EQ(a.resource, b.resource);
    EXPECT_DOUBLE_EQ(a.min_share, b.min_share);
    EXPECT_EQ(a.path_count, b.path_count);
  }
  for (std::size_t r = 0; r < original.resource_count(); ++r) {
    EXPECT_DOUBLE_EQ(original.resource(ResourceId(r)).capacity,
                     copy.resource(ResourceId(r)).capacity);
  }
}

TEST(TransformTest, WithResourceCapacity) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  auto changed = WithResourceCapacity(workload.value(), ResourceId(3u), 0.5);
  ASSERT_TRUE(changed.ok()) << changed.error();
  EXPECT_DOUBLE_EQ(changed.value().resource(ResourceId(3u)).capacity, 0.5);
  EXPECT_DOUBLE_EQ(changed.value().resource(ResourceId(0u)).capacity, 1.0);
}

TEST(TransformTest, WithResourceCapacityValidates) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  EXPECT_FALSE(
      WithResourceCapacity(workload.value(), ResourceId(3u), 0.0).ok());
  EXPECT_FALSE(
      WithResourceCapacity(workload.value(), ResourceId(3u), 1.5).ok());
}

TEST(TransformTest, WithoutTaskRemovesOne) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  auto smaller = WithoutTask(workload.value(), TaskId(1u));
  ASSERT_TRUE(smaller.ok()) << smaller.error();
  EXPECT_EQ(smaller.value().task_count(), 2u);
  EXPECT_EQ(smaller.value().task(TaskId(0u)).name, "push-multicast");
  EXPECT_EQ(smaller.value().task(TaskId(1u)).name, "client-server");
  EXPECT_EQ(smaller.value().subtask_count(), 13u);
  EXPECT_FALSE(WithoutTask(workload.value(), TaskId(9u)).ok());
  EXPECT_FALSE(WithoutTask(workload.value(), TaskId()).ok());
}

TEST(TransformTest, MapPricesWithoutTaskIsFilteredCopy) {
  // The invariant the mapping rests on: paths are ordered by task, then dag
  // order, and BOTH orders survive a removal — so the surviving tasks' old
  // lambda values, read in old path order, land on the reduced workload's
  // paths in the same order.
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  PriceVector prices = PriceVector::Zero(w);
  for (std::size_t r = 0; r < prices.mu.size(); ++r) {
    prices.mu[r] = 100.0 + static_cast<double>(r);
  }
  for (std::size_t p = 0; p < prices.lambda.size(); ++p) {
    prices.lambda[p] = 1.0 + static_cast<double>(p);
  }

  const TaskId removed(1u);  // a middle task, the order-sensitive case
  const PriceVector mapped = MapPricesWithoutTask(w, prices, removed);

  // mu is resource-indexed and the resource set is fixed: identical copy.
  ASSERT_EQ(mapped.mu.size(), prices.mu.size());
  for (std::size_t r = 0; r < prices.mu.size(); ++r) {
    EXPECT_EQ(mapped.mu[r], prices.mu[r]);
  }

  // lambda is the filtered copy: the removed task's entries drop out, the
  // rest keep their values and relative order.
  std::vector<double> expected;
  for (const TaskInfo& task : w.tasks()) {
    if (task.id == removed) continue;
    for (PathId path : task.paths) {
      expected.push_back(prices.lambda[path.value()]);
    }
  }
  ASSERT_EQ(mapped.lambda, expected);

  // And the size matches the rebuilt reduced workload exactly.
  auto reduced = WithoutTask(w, removed);
  ASSERT_TRUE(reduced.ok());
  EXPECT_EQ(mapped.lambda.size(), reduced.value().path_count());
}

TEST(TransformTest, MapPricesWithTaskInvertsRemoval) {
  // Removing a middle task and mapping back with its id reproduces the
  // original lambda layout, with the re-added task's entries at 0.0.
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  PriceVector prices = PriceVector::Zero(w);
  for (std::size_t p = 0; p < prices.lambda.size(); ++p) {
    prices.lambda[p] = 1.0 + static_cast<double>(p);
  }

  const TaskId task(1u);
  const PriceVector reduced = MapPricesWithoutTask(w, prices, task);
  const PriceVector restored = MapPricesWithTask(w, reduced, task);

  ASSERT_EQ(restored.lambda.size(), w.path_count());
  for (const TaskInfo& t : w.tasks()) {
    for (PathId path : t.paths) {
      const double expected =
          t.id == task ? 0.0 : prices.lambda[path.value()];
      EXPECT_EQ(restored.lambda[path.value()], expected)
          << "path " << path.value();
    }
  }
}

TEST(TransformTest, WarmStartReconvergesAfterCapacityChange) {
  // The adaptation story: converge on a workload with slack, degrade one
  // resource by 15%, and re-converge warm vs cold.  Warm starting lands on
  // the same optimum in no more (typically fewer) iterations.
  RandomWorkloadConfig random_config;
  random_config.seed = 42;
  random_config.target_utilization = 0.7;
  auto workload = MakeRandomWorkload(random_config);
  ASSERT_TRUE(workload.ok());
  const Workload& base = workload.value();
  LatencyModel base_model(base);
  LlaConfig config;
  config.step_policy = StepPolicyKind::kAdaptive;
  config.gamma0 = 3.0;
  config.record_history = false;
  LlaEngine engine(base, base_model, config);
  const RunResult first = engine.Run(12000);
  ASSERT_TRUE(first.converged);

  auto degraded = WithResourceCapacity(base, ResourceId(0u), 0.85);
  ASSERT_TRUE(degraded.ok());
  const Workload& changed = degraded.value();
  LatencyModel changed_model(changed);

  LlaEngine cold(changed, changed_model, config);
  const RunResult cold_run = cold.Run(12000);
  ASSERT_TRUE(cold_run.converged);

  LlaEngine warm(changed, changed_model, config);
  warm.WarmStart(engine.prices());
  const RunResult warm_run = warm.Run(12000);

  EXPECT_TRUE(warm_run.converged);
  EXPECT_TRUE(warm_run.final_feasibility.feasible);
  // Same optimum either way, and the warm start never pays more.
  EXPECT_NEAR(warm_run.final_utility, cold_run.final_utility,
              0.01 * std::abs(cold_run.final_utility));
  EXPECT_LE(warm_run.iterations, cold_run.iterations);
}

TEST(TransformTest, WarmStartFromOwnOptimumConvergesImmediately) {
  RandomWorkloadConfig random_config;
  random_config.seed = 42;
  random_config.target_utilization = 0.7;
  auto workload = MakeRandomWorkload(random_config);
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  LlaConfig config;
  config.step_policy = StepPolicyKind::kAdaptive;
  config.gamma0 = 3.0;
  config.record_history = false;
  LlaEngine engine(w, model, config);
  ASSERT_TRUE(engine.Run(12000).converged);

  LlaEngine resumed(w, model, config);
  resumed.WarmStart(engine.prices());
  const RunResult run = resumed.Run(12000);
  EXPECT_TRUE(run.converged);
  // Re-detecting convergence needs at least the detector window; allow a
  // small multiple of it.
  EXPECT_LE(run.iterations, 3 * kConvergenceWindow);
}

TEST(TransformTest, WarmStartProjectsNegativePrices) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  LlaEngine engine(w, model, LlaConfig{});
  PriceVector prices = PriceVector::Uniform(w, -1.0, -2.0);
  engine.WarmStart(prices);
  for (double mu : engine.prices().mu) EXPECT_GE(mu, 0.0);
  for (double lambda : engine.prices().lambda) EXPECT_GE(lambda, 0.0);
}

}  // namespace
}  // namespace lla
