// Determinism properties of the accelerated price dynamics (DESIGN.md §7.8).
//
// Per accelerated dynamics kind (heavy-ball, Nesterov):
//   1. THREAD INVARIANCE: the trajectory — latencies AND dual prices at
//      every iteration — is bit-identical (memcmp, tolerance 0) across
//      thread counts {1, 8}, with work reporting on and off.  Momentum
//      state is per-component and written from the same static partitioning
//      as the prices, so width must not be observable.
//   2. REPORTING IS INERT: the trajectory with ActiveSetConfig::enabled on
//      is bit-identical to the one with it off.  A parked component's
//      velocity and Nesterov base are exactly zero, so its published price
//      stays +0.0 for any step size.
#include <cstdio>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/price_dynamics.h"
#include "workloads/paper.h"
#include "workloads/random.h"

namespace lla {
namespace {

struct Trajectory {
  std::vector<Assignment> latencies;
  std::vector<PriceVector> prices;
};

LlaConfig BaseConfig(DynamicsKind kind, int num_threads, bool active) {
  LlaConfig config;
  config.step_policy = StepPolicyKind::kAdaptive;
  config.gamma0 = 3.0;
  config.record_history = false;
  config.num_threads = num_threads;
  // Force the requested width even on single-core hosts so the parallel
  // paths (not just the serial fallback) are what we pin.
  config.parallel.max_concurrency = num_threads;
  config.parallel.min_items_per_thread = 1;
  config.active_set.enabled = active;
  config.dynamics.kind = kind;
  config.dynamics.momentum = 0.9;
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

// The reference is the single-thread dense run; every other (threads,
// active) combination must reproduce it bitwise.
void CheckDeterministic(const Workload& workload, DynamicsKind kind,
                        int steps) {
  LatencyModel model(workload);
  const Trajectory reference = RunEngine(
      workload, model, BaseConfig(kind, 1, /*active=*/false), steps);
  for (const bool active : {false, true}) {
    for (const int num_threads : {1, 8}) {
      if (!active && num_threads == 1) continue;  // that's the reference
      const Trajectory run = RunEngine(
          workload, model, BaseConfig(kind, num_threads, active), steps);
      char label[80];
      std::snprintf(label, sizeof(label), "%s %s threads=%d", ToString(kind),
                    active ? "active" : "dense", num_threads);
      ExpectBitIdentical(reference, run, label);
    }
  }
}

TEST(DynamicsPropertyTest, HeavyBallPaperWorkloadDeterministic) {
  auto workload = MakeScaledSimWorkload(2, /*scale_critical_times=*/true);
  ASSERT_TRUE(workload.ok()) << workload.error();
  CheckDeterministic(workload.value(), DynamicsKind::kHeavyBall, 150);
}

TEST(DynamicsPropertyTest, NesterovPaperWorkloadDeterministic) {
  auto workload = MakeScaledSimWorkload(2, /*scale_critical_times=*/true);
  ASSERT_TRUE(workload.ok()) << workload.error();
  CheckDeterministic(workload.value(), DynamicsKind::kNesterov, 150);
}

TEST(DynamicsPropertyTest, RandomWorkloadsDeterministic) {
  for (const unsigned seed : {11u, 42u}) {
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
    CheckDeterministic(workload.value(), DynamicsKind::kHeavyBall, 120);
    CheckDeterministic(workload.value(), DynamicsKind::kNesterov, 120);
  }
}

// Run long enough to pass through convergence: late iterations are where
// multipliers park at zero and most tasks stop re-solving.  A task skipped
// on stale prices shows up here as a late-step divergence.
TEST(DynamicsPropertyTest, SparseMatchesDenseThroughConvergence) {
  auto workload = MakeScaledSimWorkload(1, /*scale_critical_times=*/true);
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);
  for (const DynamicsKind kind :
       {DynamicsKind::kHeavyBall, DynamicsKind::kNesterov}) {
    LlaEngine dense(w, model, BaseConfig(kind, 1, /*active=*/false));
    LlaEngine sparse(w, model, BaseConfig(kind, 1, /*active=*/true));
    for (int step = 0; step < 900; ++step) {
      dense.Step();
      sparse.Step();
      const PriceVector& pa = dense.prices();
      const PriceVector& pb = sparse.prices();
      ASSERT_EQ(std::memcmp(pa.mu.data(), pb.mu.data(),
                            pa.mu.size() * sizeof(double)),
                0)
          << ToString(kind) << " mu diverges at step " << step;
      ASSERT_EQ(std::memcmp(pa.lambda.data(), pb.lambda.data(),
                            pa.lambda.size() * sizeof(double)),
                0)
          << ToString(kind) << " lambda diverges at step " << step;
    }
    EXPECT_EQ(dense.momentum_restarts(), sparse.momentum_restarts())
        << ToString(kind);
  }
}

}  // namespace
}  // namespace lla
