// Properties of the incremental active-set stepping mode (DESIGN.md §7.6).
//
// EXACTNESS: the active-set engine's trajectory — latencies AND dual prices
// at every iteration — is bit-identical (memcmp, tolerance 0) to the dense
// engine's, at every thread count.  Dirty tracking must only ever skip
// recomputation of values proven bitwise-unchanged.
#include <cstdio>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "workloads/paper.h"
#include "workloads/random.h"

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
  // dirty-task solve path (not just the serial fallback) is what we pin.
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
    // catch any stale workspace entry an incorrect skip left behind.
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

// WarmStart must prime the active-set baseline exactly like Reset: two
// engines, one stepped from Reset and one WarmStarted with the same initial
// prices, walk bit-identical trajectories.
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

}  // namespace
}  // namespace lla
