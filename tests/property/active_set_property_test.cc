// ActiveSetConfig::enabled switches the engine's per-step work reporting
// (DESIGN.md §7.6).  The switch must never reach the trajectory: latencies
// AND dual prices at every iteration are bit-identical (memcmp, tolerance 0)
// with it on at 1, 2 and 8 threads and off at 1 thread, through warm starts
// and model corrections.
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "workloads/paper.h"
#include "workloads/random.h"

#if defined(__SANITIZE_THREAD__)
#define LLA_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LLA_TSAN 1
#endif
#endif

namespace lla {
namespace {

struct Trajectory {
  std::vector<Assignment> latencies;
  std::vector<PriceVector> prices;
};

LlaConfig BaseConfig(int num_threads, bool active) {
  LlaConfig config;
  config.step_policy = StepPolicyKind::kAdaptive;
  config.record_history = false;
  config.num_threads = num_threads;
  // Force the requested width even on single-core hosts so the parallel
  // solve and fill (not just the serial fallback) are what we pin.
  config.parallel.max_concurrency = num_threads;
  config.parallel.min_items_per_thread = 1;
  config.active_set.enabled = active;
  return config;
}

Trajectory RunEngine(const Workload& workload, const LatencyModel& model,
                     const LlaConfig& config, int steps) {
  LlaEngine engine(workload, model, config);
  Trajectory trajectory;
  for (int i = 0; i < steps; ++i) {
    engine.Step();
    trajectory.latencies.push_back(engine.latencies());
    trajectory.prices.push_back(engine.prices());
  }
  return trajectory;
}

void ExpectBitIdentical(const Trajectory& expected, const Trajectory& actual,
                        const char* label) {
  ASSERT_EQ(expected.latencies.size(), actual.latencies.size()) << label;
  for (std::size_t step = 0; step < expected.latencies.size(); ++step) {
    const Assignment& a = expected.latencies[step];
    const Assignment& b = actual.latencies[step];
    ASSERT_EQ(a.size(), b.size());
    // memcmp: bit-identity with tolerance 0 — distinguishes -0.0 and would
    // catch any stale workspace entry.
    ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << label << " latencies diverge at step " << step;
    const PriceVector& pa = expected.prices[step];
    const PriceVector& pb = actual.prices[step];
    ASSERT_EQ(std::memcmp(pa.mu.data(), pb.mu.data(),
                          pa.mu.size() * sizeof(double)),
              0)
        << label << " mu diverges at step " << step;
    ASSERT_EQ(std::memcmp(pa.lambda.data(), pb.lambda.data(),
                          pa.lambda.size() * sizeof(double)),
              0)
        << label << " lambda diverges at step " << step;
  }
}

void CheckDenseActiveIdentical(const Workload& workload, int steps) {
  LatencyModel model(workload);
  const Trajectory dense =
      RunEngine(workload, model, BaseConfig(1, /*active=*/false), steps);
  for (const int num_threads : {1, 2, 8}) {
    const Trajectory active = RunEngine(
        workload, model, BaseConfig(num_threads, /*active=*/true), steps);
    char label[64];
    std::snprintf(label, sizeof(label), "active threads=%d", num_threads);
    ExpectBitIdentical(dense, active, label);
  }
}

TEST(ActiveSetPropertyTest, Fig6WorkloadBitIdenticalToDense) {
  auto workload = MakeScaledSimWorkload(4, /*scale_critical_times=*/true);
  ASSERT_TRUE(workload.ok()) << workload.error();
  CheckDenseActiveIdentical(workload.value(), 120);
}

TEST(ActiveSetPropertyTest, RandomWorkloadsBitIdenticalToDense) {
  for (const unsigned seed : {11u, 42u, 77u}) {
    RandomWorkloadConfig config;
    config.seed = seed;
    config.num_resources = 8;
    config.num_tasks = 24;
    config.min_subtasks = 2;
    config.max_subtasks = 6;
    config.target_utilization = 0.7;
    auto workload = MakeRandomWorkload(config);
    ASSERT_TRUE(workload.ok()) << workload.error();
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    CheckDenseActiveIdentical(workload.value(), 120);
  }
}

// WarmStart must solve at the warm prices exactly like Reset: two engines,
// one stepped from Reset and one WarmStarted with the same initial prices,
// walk bit-identical trajectories.
TEST(ActiveSetPropertyTest, WarmStartPrimesSameTrajectory) {
  auto workload = MakeScaledSimWorkload(2, /*scale_critical_times=*/true);
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);
  const LlaConfig config = BaseConfig(2, /*active=*/true);

  LlaEngine reference(w, model, config);
  LlaEngine warmed(w, model, config);
  warmed.WarmStart(reference.prices());
  for (int i = 0; i < 80; ++i) {
    reference.Step();
    warmed.Step();
    const Assignment& a = reference.latencies();
    const Assignment& b = warmed.latencies();
    ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << "step " << i;
  }
}

// Steps `engine` until it converges or has taken `budget` steps, recording
// every step.
Trajectory RunToConvergence(LlaEngine* engine, std::size_t budget) {
  Trajectory trajectory;
  while (!engine->Converged() && trajectory.latencies.size() < budget) {
    engine->Step();
    trajectory.latencies.push_back(engine->latencies());
    trajectory.prices.push_back(engine->prices());
  }
  return trajectory;
}

// How many times a path price moved onto or off zero between steps.
int LambdaZeroCrossings(const Trajectory& trajectory) {
  int crossings = 0;
  for (std::size_t step = 1; step < trajectory.prices.size(); ++step) {
    const std::vector<double>& before = trajectory.prices[step - 1].lambda;
    const std::vector<double>& after = trajectory.prices[step].lambda;
    for (std::size_t p = 0; p < before.size(); ++p) {
      crossings += (before[p] == 0.0) != (after[p] == 0.0);
    }
  }
  return crossings;
}

// The benchmark's engine_solve shape and settings: 24 resources x 24 tasks
// of 3-6 subtasks, path-weighted, adaptive steps from gamma0 = 3.  Dense
// and active engines (threads 1, 2 and 8) step to convergence memcmp-equal
// at every step and converge on the same step; then one subtask's model is
// corrected and they must stay equal through the warm re-convergence.  Path
// prices move onto and off zero in both phases, so the parallel solves'
// lambda gathers see a moving zero pattern.  The TSan copy runs seed 1
// only: its code path is the same, and TSan multiplies the cost of the
// 8-wide engine's thousands of fork-joins.
TEST(ActiveSetPropertyTest, BenchmarkShapeBitIdenticalThroughCorrection) {
  constexpr std::size_t kBudget = 12000;
#if defined(LLA_TSAN)
  const std::uint64_t seeds[] = {1};
#else
  const std::uint64_t seeds[] = {1, 2, 3};
#endif
  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    RandomWorkloadConfig shape;
    shape.seed = seed;
    shape.num_resources = 24;
    shape.num_tasks = 24;
    shape.min_subtasks = 3;
    shape.max_subtasks = 6;
    auto workload = MakeRandomWorkload(shape);
    ASSERT_TRUE(workload.ok()) << workload.error();
    const Workload& w = workload.value();
    LatencyModel model(w);
    const auto config = [](int num_threads, bool active) {
      LlaConfig config = BaseConfig(num_threads, active);
      config.solver.variant = UtilityVariant::kPathWeighted;
      config.gamma0 = 3.0;
      return config;
    };
    LlaEngine dense(w, model, config(1, /*active=*/false));
    const int kThreads[] = {1, 2, 8};
    std::vector<std::unique_ptr<LlaEngine>> active;
    for (const int num_threads : kThreads) {
      active.push_back(std::make_unique<LlaEngine>(
          w, model, config(num_threads, /*active=*/true)));
    }

    for (const bool corrected : {false, true}) {
      SCOPED_TRACE(corrected ? "warm after the correction" : "cold");
      if (corrected) {
        // The first subtask of the first path priced at the cold fixed
        // point turns out one WCET slower than modeled.
        std::size_t path = 0;
        while (path < w.path_count() && dense.prices().lambda[path] == 0.0) {
          ++path;
        }
        ASSERT_LT(path, w.path_count());
        const SubtaskId sid = w.path(PathId(path)).subtasks.front();
        model.SetAdditiveError(sid, w.subtask(sid).wcet_ms);
        dense.ClearConvergenceWindow();
        for (auto& engine : active) engine->ClearConvergenceWindow();
      }
      const Trajectory expected = RunToConvergence(&dense, kBudget);
      EXPECT_TRUE(dense.Converged()) << expected.latencies.size() << " steps";
      EXPECT_GT(LambdaZeroCrossings(expected), 0);
      for (std::size_t i = 0; i < active.size(); ++i) {
        char label[64];
        std::snprintf(label, sizeof(label), "active threads=%d", kThreads[i]);
        ExpectBitIdentical(expected,
                           RunToConvergence(active[i].get(), kBudget), label);
      }
    }
  }
}

}  // namespace
}  // namespace lla
