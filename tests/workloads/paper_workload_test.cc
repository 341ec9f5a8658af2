#include "workloads/paper.h"

#include <gtest/gtest.h>

#include "model/evaluation.h"
#include "model/latency_model.h"

namespace lla {
namespace {

TEST(PaperWorkloadTest, StructureMatchesTable1) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  EXPECT_EQ(w.task_count(), 3u);
  EXPECT_EQ(w.resource_count(), 8u);
  EXPECT_EQ(w.subtask_count(), 21u);  // 7 + 8 + 6
  EXPECT_EQ(w.path_count(), 9u);      // 5 + 3 + 1
  EXPECT_DOUBLE_EQ(w.task(TaskId(0u)).critical_time_ms, 45.0);
  EXPECT_DOUBLE_EQ(w.task(TaskId(1u)).critical_time_ms, 76.0);
  EXPECT_DOUBLE_EQ(w.task(TaskId(2u)).critical_time_ms, 53.0);
}

TEST(PaperWorkloadTest, ExecTimesMatchTable1) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  const double expected_wcet[] = {2, 3, 4, 5, 4, 3, 2,     // task 1
                                  2, 4, 3, 6, 7, 5, 2, 3,  // task 2
                                  3, 2, 2, 3, 4, 4};       // task 3
  const unsigned expected_resource[] = {0, 1, 2, 3, 4, 5, 6,     //
                                        0, 1, 2, 4, 5, 6, 3, 7,  //
                                        0, 1, 2, 4, 6, 7};
  for (std::size_t s = 0; s < w.subtask_count(); ++s) {
    EXPECT_DOUBLE_EQ(w.subtask(SubtaskId(s)).wcet_ms, expected_wcet[s]) << s;
    EXPECT_EQ(w.subtask(SubtaskId(s)).resource.value(), expected_resource[s])
        << s;
  }
}

// The key reconstruction check: at Table 1's published latencies, every
// resource's share sum is ~1.0 (all "close to congestion") and the critical
// paths match the published values.  This validates the recovered B_r = 1,
// l_r = 1 ms and the reconstructed graphs.
TEST(PaperWorkloadTest, Table1LatenciesSaturateAllResources) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  const Assignment& ref = GetTable1Reference().latencies_ms;
  ASSERT_EQ(ref.size(), w.subtask_count());
  for (const ResourceInfo& resource : w.resources()) {
    const double sum = ResourceShareSum(w, model, resource.id, ref);
    EXPECT_NEAR(sum, 1.0, 0.01) << resource.name;
  }
}

TEST(PaperWorkloadTest, Table1CriticalPathsMatch) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  const Table1Reference& ref = GetTable1Reference();
  for (std::size_t t = 0; t < 3; ++t) {
    const double crit =
        CriticalPathLatency(w, TaskId(t), ref.latencies_ms);
    EXPECT_NEAR(crit, ref.critical_paths_ms[t], 0.15) << "task " << t;
    EXPECT_LT(crit, ref.critical_times_ms[t]);
  }
}

TEST(PaperWorkloadTest, PathWeightedWeights) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  // Task 1: T11, T12 on all 5 paths; leaves on 1.
  EXPECT_DOUBLE_EQ(w.Weight(SubtaskId(0u), UtilityVariant::kPathWeighted), 5);
  EXPECT_DOUBLE_EQ(w.Weight(SubtaskId(1u), UtilityVariant::kPathWeighted), 5);
  EXPECT_DOUBLE_EQ(w.Weight(SubtaskId(2u), UtilityVariant::kPathWeighted), 1);
  // Task 2: T21, T22 on 3 paths; T24 on 2.
  EXPECT_DOUBLE_EQ(w.Weight(SubtaskId(7u), UtilityVariant::kPathWeighted), 3);
  EXPECT_DOUBLE_EQ(w.Weight(SubtaskId(8u), UtilityVariant::kPathWeighted), 3);
  EXPECT_DOUBLE_EQ(w.Weight(SubtaskId(10u), UtilityVariant::kPathWeighted),
                   2);
  // Task 3 chain: all weights 1.
  for (unsigned s = 15; s < 21; ++s) {
    EXPECT_DOUBLE_EQ(
        w.Weight(SubtaskId(std::size_t{s}), UtilityVariant::kPathWeighted),
        1);
  }
}

TEST(PaperWorkloadTest, ScalingReplicatesTasks) {
  auto workload = MakeScaledSimWorkload(4, true);
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  EXPECT_EQ(w.task_count(), 12u);
  EXPECT_EQ(w.subtask_count(), 84u);
  // Critical times scaled by 4.
  EXPECT_DOUBLE_EQ(w.task(TaskId(0u)).critical_time_ms, 180.0);
  // Unscaled variant keeps the originals.
  auto unscaled = MakeScaledSimWorkload(4, false);
  ASSERT_TRUE(unscaled.ok());
  EXPECT_DOUBLE_EQ(unscaled.value().task(TaskId(0u)).critical_time_ms, 45.0);
}

TEST(PaperWorkloadTest, PrototypeWorkloadShape) {
  auto workload = MakePrototypeWorkload();
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  EXPECT_EQ(w.task_count(), 4u);
  EXPECT_EQ(w.resource_count(), 3u);
  EXPECT_EQ(w.subtask_count(), 12u);
  // Every CPU hosts one subtask of each task.
  for (const ResourceInfo& resource : w.resources()) {
    EXPECT_EQ(resource.subtasks.size(), 4u);
    EXPECT_DOUBLE_EQ(resource.capacity, 0.9);  // 0.1 reserved for the GC
    EXPECT_DOUBLE_EQ(resource.lag_ms, 5.0);
  }
  // Sustainable minimum shares: 0.2 fast, 0.13 slow; total 0.66.
  EXPECT_NEAR(w.subtask(SubtaskId(0u)).min_share, 0.2, 1e-12);
  EXPECT_NEAR(w.subtask(SubtaskId(6u)).min_share, 0.13, 1e-12);
  EXPECT_NEAR(w.MinShareDemand(ResourceId(0u)), 0.66, 1e-12);
  // Critical times.
  EXPECT_DOUBLE_EQ(w.task(TaskId(0u)).critical_time_ms, 105.0);
  EXPECT_DOUBLE_EQ(w.task(TaskId(3u)).critical_time_ms, 800.0);
  // Utility is f(lat) = -lat.
  EXPECT_DOUBLE_EQ(w.task(TaskId(0u)).utility.Value(10.0), -10.0);
}

TEST(PaperWorkloadTest, Table1ReferenceInternallyConsistent) {
  const Table1Reference& ref = GetTable1Reference();
  EXPECT_EQ(ref.latencies_ms.size(), 21u);
  for (double lat : ref.latencies_ms) EXPECT_GT(lat, 0.0);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_LT(ref.critical_paths_ms[t], ref.critical_times_ms[t]);
  }
}

}  // namespace
}  // namespace lla
