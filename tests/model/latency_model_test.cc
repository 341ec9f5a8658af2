#include "model/latency_model.h"

#include <gtest/gtest.h>

#include "workloads/paper.h"

namespace lla {
namespace {

TEST(LatencyModelTest, DefaultsToPaperShareFunction) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  ASSERT_EQ(model.size(), w.subtask_count());
  // T11: wcet 2, lag 1 -> share(9.7) = 3/9.7.
  EXPECT_DOUBLE_EQ(model.share(SubtaskId(0u)).Share(9.7), 3.0 / 9.7);
  EXPECT_DOUBLE_EQ(model.AdditiveError(SubtaskId(0u)), 0.0);
}

TEST(LatencyModelTest, SetAdditiveErrorInstallsCorrectedModel) {
  auto workload = MakePrototypeWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  model.SetAdditiveError(SubtaskId(0u), -15.0);
  EXPECT_DOUBLE_EQ(model.AdditiveError(SubtaskId(0u)), -15.0);
  // fast subtask: wcet 5, lag 5: share(35) = 10/(35+15) = 0.2.
  EXPECT_DOUBLE_EQ(model.share(SubtaskId(0u)).Share(35.0), 0.2);
  // Other subtasks untouched.
  EXPECT_DOUBLE_EQ(model.AdditiveError(SubtaskId(1u)), 0.0);
}

TEST(LatencyModelTest, SetShareFunctionReplaces) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  LatencyModel model(workload.value());
  model.SetShareFunction(SubtaskId(2u), ShareFunction(10.0 + 0.0, 0.0));
  EXPECT_DOUBLE_EQ(model.share(SubtaskId(2u)).Share(20.0), 0.5);
}

TEST(LatencyModelTest, ErrorUpdateOverwritesPrevious) {
  auto workload = MakePrototypeWorkload();
  ASSERT_TRUE(workload.ok());
  LatencyModel model(workload.value());
  model.SetAdditiveError(SubtaskId(3u), -10.0);
  model.SetAdditiveError(SubtaskId(3u), -12.5);
  EXPECT_DOUBLE_EQ(model.AdditiveError(SubtaskId(3u)), -12.5);
}

}  // namespace
}  // namespace lla
