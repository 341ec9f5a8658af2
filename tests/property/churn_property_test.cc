// Churn determinism properties (DESIGN.md §7.9): a FIXED mutation script
// applied through the ChurnDriver is a pure function of the script and the
// initial system.  Two pins:
//
//   1. The final prices after the whole script are memcmp bit-identical
//      (tolerance 0) across thread counts {1, 8}, work reporting on and off,
//      and admission probe widths — none of them changes the trajectory.
//   2. Checkpoint/Restore mid-churn is a pure fast-path: snapshotting the
//      live engine between mutations, deliberately wandering off with extra
//      steps, then restoring and replaying the remaining script lands on
//      bit-identical final prices (the PR-5 recovery guarantee composed
//      with structural warm starts).
//
// The TSan copy of this file in the default ctest run keeps the
// EngineBatch-backed admission probes and the parallel per-task solves
// honest under the race detector.
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "runtime/churn.h"
#include "workloads/random.h"
#include "workloads/transform.h"

namespace lla {
namespace {

using runtime::ChurnConfig;
using runtime::ChurnDriver;
using runtime::ChurnMutation;
using runtime::ChurnRecord;
using runtime::ChurnScriptConfig;
using runtime::MakeChurnScript;

constexpr int kMaxIterations = 8000;

WorkloadSpecs BaseSpecs() {
  RandomWorkloadConfig config;
  config.seed = 11;
  config.num_resources = 8;
  config.num_tasks = 6;
  config.target_utilization = 0.6;
  auto workload = MakeRandomWorkload(config);
  EXPECT_TRUE(workload.ok()) << workload.error();
  return ExtractSpecs(workload.value());
}

std::vector<ChurnMutation> Script(std::size_t mutations) {
  ChurnScriptConfig config;
  config.seed = 3;
  config.mutations = mutations;
  config.num_resources = 8;
  config.donor_tasks = 6;
  auto script = MakeChurnScript(config);
  EXPECT_TRUE(script.ok()) << script.error();
  return std::move(script).value();
}

ChurnConfig DriverConfig(int num_threads, bool active, int probe_threads) {
  ChurnConfig config;
  config.lla.step_policy = StepPolicyKind::kAdaptive;
  config.lla.gamma0 = 3.0;
  config.lla.record_history = false;
  config.lla.num_threads = num_threads;
  // Force the requested width even on single-core hosts so the parallel
  // solve path participates in the bit-identity claim.
  config.lla.parallel.max_concurrency = num_threads;
  config.lla.parallel.min_items_per_thread = 1;
  config.lla.active_set.enabled = active;
  config.max_iterations = kMaxIterations;
  config.min_tasks = 2;
  config.admission.lla = config.lla;
  config.admission.max_iterations = kMaxIterations;
  config.admission.probe_threads = probe_threads;
  return config;
}

void ExpectPricesBitIdentical(const PriceVector& expected,
                              const PriceVector& actual, const char* label) {
  ASSERT_EQ(expected.mu.size(), actual.mu.size()) << label;
  ASSERT_EQ(expected.lambda.size(), actual.lambda.size()) << label;
  EXPECT_EQ(std::memcmp(expected.mu.data(), actual.mu.data(),
                        expected.mu.size() * sizeof(double)),
            0)
      << label << ": mu diverges";
  EXPECT_EQ(std::memcmp(expected.lambda.data(), actual.lambda.data(),
                        expected.lambda.size() * sizeof(double)),
            0)
      << label << ": lambda diverges";
}

TEST(ChurnPropertyTest, FixedScriptBitIdenticalAcrossThreadsAndModes) {
  const WorkloadSpecs specs = BaseSpecs();
  const std::vector<ChurnMutation> script = Script(16);

  struct Variant {
    int num_threads;
    bool active;
    int probe_threads;
    const char* label;
  };
  const Variant variants[] = {
      {1, false, 1, "dense x1 probes 1"},
      {1, true, 1, "active x1 probes 1"},
      {8, false, 3, "dense x8 probes 3"},
      {8, true, 4, "active x8 probes 4"},
  };

  bool have_reference = false;
  PriceVector reference_prices;
  std::vector<ChurnRecord> reference_records;
  std::size_t reference_tasks = 0;
  for (const Variant& variant : variants) {
    auto driver = ChurnDriver::Create(
        specs.resources, specs.tasks,
        DriverConfig(variant.num_threads, variant.active,
                     variant.probe_threads));
    ASSERT_TRUE(driver.ok()) << variant.label << ": " << driver.error();
    const std::vector<ChurnRecord> records =
        driver.value().ApplyAll(script);
    ASSERT_EQ(records.size(), script.size()) << variant.label;
    if (!have_reference) {
      have_reference = true;
      reference_prices = driver.value().engine().prices();
      reference_records = records;
      reference_tasks = driver.value().workload().task_count();
      // The script must exercise every mutation kind to mean anything.
      std::size_t applied_structural = 0, applied_perturbs = 0;
      for (const ChurnRecord& record : records) {
        if (!record.applied) continue;
        if (record.kind == runtime::ChurnKind::kWcetPerturb) {
          ++applied_perturbs;
        } else {
          ++applied_structural;
        }
      }
      EXPECT_GT(applied_structural, 0u);
      EXPECT_GT(applied_perturbs, 0u);
      continue;
    }
    EXPECT_EQ(driver.value().workload().task_count(), reference_tasks)
        << variant.label;
    ExpectPricesBitIdentical(reference_prices,
                             driver.value().engine().prices(),
                             variant.label);
    // The whole record stream matches: same admissions, same skips, same
    // per-mutation re-convergence trajectory lengths.
    for (std::size_t m = 0; m < records.size(); ++m) {
      EXPECT_EQ(records[m].kind, reference_records[m].kind)
          << variant.label << " mutation " << m;
      EXPECT_EQ(records[m].applied, reference_records[m].applied)
          << variant.label << " mutation " << m;
      EXPECT_EQ(records[m].converged, reference_records[m].converged)
          << variant.label << " mutation " << m;
      EXPECT_EQ(records[m].iterations, reference_records[m].iterations)
          << variant.label << " mutation " << m;
      EXPECT_EQ(records[m].tasks_after, reference_records[m].tasks_after)
          << variant.label << " mutation " << m;
    }
  }
}

TEST(ChurnPropertyTest, CheckpointRestoreMidChurnResumesBitIdentically) {
  const WorkloadSpecs specs = BaseSpecs();
  const std::vector<ChurnMutation> script = Script(16);
  const std::size_t split = script.size() / 2;
  const ChurnConfig config = DriverConfig(2, true, 2);

  // Reference: the uninterrupted run, snapshotted at the split point.
  auto reference = ChurnDriver::Create(specs.resources, specs.tasks, config);
  ASSERT_TRUE(reference.ok()) << reference.error();
  for (std::size_t m = 0; m < split; ++m) {
    reference.value().Apply(script[m]);
  }
  const StateSnapshot snapshot = reference.value().engine().Checkpoint();
  for (std::size_t m = split; m < script.size(); ++m) {
    reference.value().Apply(script[m]);
  }
  const PriceVector expected = reference.value().engine().prices();

  // Victim: same prefix, then wander off (extra un-scripted iterations),
  // then restore the snapshot and replay the suffix.
  auto victim = ChurnDriver::Create(specs.resources, specs.tasks, config);
  ASSERT_TRUE(victim.ok()) << victim.error();
  for (std::size_t m = 0; m < split; ++m) {
    victim.value().Apply(script[m]);
  }
  victim.value().engine().ClearConvergenceWindow();
  for (int i = 0; i < 25; ++i) victim.value().engine().Step();
  const Status restored = victim.value().engine().Restore(snapshot);
  ASSERT_TRUE(restored.ok()) << restored.error();
  for (std::size_t m = split; m < script.size(); ++m) {
    victim.value().Apply(script[m]);
  }

  EXPECT_EQ(victim.value().workload().task_count(),
            reference.value().workload().task_count());
  ExpectPricesBitIdentical(expected, victim.value().engine().prices(),
                           "restore-mid-churn");
}

}  // namespace
}  // namespace lla
