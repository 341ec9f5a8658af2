#include "core/step_size.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "workloads/paper.h"
#include "workloads/transform.h"

namespace lla {
namespace {

class StepSizeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto workload = MakeSimWorkload();
    ASSERT_TRUE(workload.ok()) << workload.error();
    workload_ = std::make_unique<Workload>(std::move(workload).value());
  }
  const Workload& workload() const { return *workload_; }
  std::unique_ptr<Workload> workload_;
};

TEST_F(StepSizeTest, FixedIsConstant) {
  FixedStepSize policy(2.5);
  policy.Reset(workload());
  StepSizes steps;
  std::vector<bool> congested(workload().resource_count(), true);
  policy.Update(workload(), congested, &steps);
  for (double g : steps.resource) EXPECT_DOUBLE_EQ(g, 2.5);
  for (double g : steps.path) EXPECT_DOUBLE_EQ(g, 2.5);
  // Congestion has no effect.
  policy.Update(workload(), congested, &steps);
  for (double g : steps.resource) EXPECT_DOUBLE_EQ(g, 2.5);
}

TEST_F(StepSizeTest, AdaptiveDoublesWhileCongested) {
  AdaptiveStepSize policy(1.0, /*max_multiplier=*/64.0);
  policy.Reset(workload());
  StepSizes steps;
  std::vector<bool> congested(workload().resource_count(), false);
  congested[0] = true;

  policy.Update(workload(), congested, &steps);
  EXPECT_DOUBLE_EQ(steps.resource[0], 2.0);
  EXPECT_DOUBLE_EQ(steps.resource[1], 1.0);
  policy.Update(workload(), congested, &steps);
  EXPECT_DOUBLE_EQ(steps.resource[0], 4.0);
  policy.Update(workload(), congested, &steps);
  EXPECT_DOUBLE_EQ(steps.resource[0], 8.0);
}

TEST_F(StepSizeTest, AdaptiveRevertsOnUncongestion) {
  AdaptiveStepSize policy(1.0, 64.0);
  policy.Reset(workload());
  StepSizes steps;
  std::vector<bool> congested(workload().resource_count(), false);
  congested[0] = true;
  policy.Update(workload(), congested, &steps);
  policy.Update(workload(), congested, &steps);
  EXPECT_DOUBLE_EQ(steps.resource[0], 4.0);
  congested[0] = false;
  policy.Update(workload(), congested, &steps);
  EXPECT_DOUBLE_EQ(steps.resource[0], 1.0);
}

TEST_F(StepSizeTest, AdaptiveHonorsCap) {
  AdaptiveStepSize policy(1.0, 8.0);
  policy.Reset(workload());
  StepSizes steps;
  std::vector<bool> congested(workload().resource_count(), true);
  for (int i = 0; i < 20; ++i) policy.Update(workload(), congested, &steps);
  for (double g : steps.resource) EXPECT_DOUBLE_EQ(g, 8.0);
  for (double g : steps.path) EXPECT_DOUBLE_EQ(g, 8.0);
}

TEST_F(StepSizeTest, AdaptivePathsFollowTraversedResources) {
  AdaptiveStepSize policy(1.0, 64.0);
  policy.Reset(workload());
  StepSizes steps;
  std::vector<bool> congested(workload().resource_count(), false);
  // Resource 7 is used only by task 2 (T28) and task 3 (T36): the paths of
  // task 1 must not double.
  congested[7] = true;
  policy.Update(workload(), congested, &steps);
  const Workload& w = workload();
  for (const PathInfo& path : w.paths()) {
    bool traverses = false;
    for (SubtaskId sid : path.subtasks) {
      if (w.subtask(sid).resource.value() == 7u) traverses = true;
    }
    EXPECT_DOUBLE_EQ(steps.path[path.id.value()], traverses ? 2.0 : 1.0)
        << "path " << path.id;
  }
}

// Regression: Update() used to rebuild its per-resource/per-path state only
// when the *resource* vector size mismatched.  A workload transform that
// changes the path count but keeps the resource count (task removal on a
// fixed resource set) then left path_multiplier_ stale — or, in the growing
// direction, undersized and written out of bounds.
TEST_F(StepSizeTest, AdaptiveRebuildsWhenPathCountShrinks) {
  auto removed = WithoutTask(workload(), TaskId(1u));
  ASSERT_TRUE(removed.ok()) << removed.error();
  const Workload& smaller = removed.value();
  ASSERT_EQ(smaller.resource_count(), workload().resource_count());
  ASSERT_LT(smaller.path_count(), workload().path_count());

  AdaptiveStepSize policy(1.0, 64.0);
  policy.Reset(workload());
  StepSizes steps;
  // Congestion streak on the full workload: every multiplier climbs to 8x.
  std::vector<bool> congested(workload().resource_count(), true);
  for (int i = 0; i < 3; ++i) policy.Update(workload(), congested, &steps);
  for (double g : steps.path) EXPECT_DOUBLE_EQ(g, 8.0);

  // Mid-run transform to the path-shrunk workload: the first update must
  // start from fresh multipliers (one doubling from 1.0), not resume the
  // stale 8x streak.
  policy.Update(smaller, congested, &steps);
  ASSERT_EQ(steps.path.size(), smaller.path_count());
  for (double g : steps.path) EXPECT_DOUBLE_EQ(g, 2.0);
  for (double g : steps.resource) EXPECT_DOUBLE_EQ(g, 2.0);
}

TEST_F(StepSizeTest, AdaptiveRebuildsWhenPathCountGrows) {
  auto removed = WithoutTask(workload(), TaskId(2u));
  ASSERT_TRUE(removed.ok()) << removed.error();
  const Workload& smaller = removed.value();
  ASSERT_EQ(smaller.resource_count(), workload().resource_count());

  AdaptiveStepSize policy(1.0, 64.0);
  policy.Reset(smaller);
  StepSizes steps;
  std::vector<bool> congested(workload().resource_count(), true);
  policy.Update(smaller, congested, &steps);

  // Task re-admission: more paths than the policy's state.  Without the
  // rebuild this wrote past the end of path_multiplier_.
  policy.Update(workload(), congested, &steps);
  ASSERT_EQ(steps.path.size(), workload().path_count());
  for (double g : steps.path) EXPECT_DOUBLE_EQ(g, 2.0);
}

TEST_F(StepSizeTest, DiminishingSchedule) {
  DiminishingStepSize policy(10.0, 5.0);
  policy.Reset(workload());
  StepSizes steps;
  std::vector<bool> congested(workload().resource_count(), false);
  policy.Update(workload(), congested, &steps);
  EXPECT_DOUBLE_EQ(steps.resource[0], 10.0);  // t = 0
  policy.Update(workload(), congested, &steps);
  EXPECT_DOUBLE_EQ(steps.resource[0], 10.0 / (1.0 + 1.0 / 5.0));
  for (int i = 0; i < 48; ++i) policy.Update(workload(), congested, &steps);
  EXPECT_NEAR(steps.resource[0], 10.0 / (1.0 + 49.0 / 5.0), 1e-12);
}

TEST_F(StepSizeTest, DiminishingResetRestartsSchedule) {
  DiminishingStepSize policy(10.0, 5.0);
  policy.Reset(workload());
  StepSizes steps;
  std::vector<bool> congested(workload().resource_count(), false);
  policy.Update(workload(), congested, &steps);
  policy.Update(workload(), congested, &steps);
  policy.Reset(workload());
  policy.Update(workload(), congested, &steps);
  EXPECT_DOUBLE_EQ(steps.resource[0], 10.0);
}

TEST_F(StepSizeTest, DescribeMentionsParameters) {
  EXPECT_NE(FixedStepSize(2.0).Describe().find("2"), std::string::npos);
  EXPECT_NE(AdaptiveStepSize(1.0, 8.0).Describe().find("adaptive"),
            std::string::npos);
  EXPECT_NE(DiminishingStepSize(1.0, 9.0).Describe().find("diminishing"),
            std::string::npos);
}

constexpr double kInf = std::numeric_limits<double>::infinity();

// A zero, negative, infinite or NaN step, or a doubling cap below 1, used to
// pass the policy constructors' asserts silently in NDEBUG builds (the
// default RelWithDebInfo and Release).  Every build mode now refuses them.
TEST(StepSizeDeathTest, PoliciesRejectInvalidParameters) {
  for (const double bad : {0.0, -1.0, kInf, std::nan("")}) {
    EXPECT_DEATH(FixedStepSize{bad},
                 "FixedStepSize: step parameter gamma = .* must be finite "
                 "and > 0")
        << bad;
    EXPECT_DEATH((AdaptiveStepSize{bad, 8.0}),
                 "AdaptiveStepSize: step parameter gamma0 = .* must be "
                 "finite and > 0")
        << bad;
    EXPECT_DEATH((DiminishingStepSize{1.0, bad}),
                 "DiminishingStepSize: step parameter tau = .* must be "
                 "finite and > 0")
        << bad;
  }
  for (const double bad : {0.5, 0.0, kInf, std::nan("")}) {
    EXPECT_DEATH((AdaptiveStepSize{1.0, bad}),
                 "AdaptiveStepSize: step parameter max_multiplier = .* must "
                 "be finite and >= 1")
        << bad;
  }
}

// The engine checks every step parameter of its config, whichever policy
// it selects, before building the policy.
TEST(StepSizeDeathTest, EngineRejectsInvalidStepConfig) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok()) << workload.error();
  const LatencyModel model(workload.value());
  for (const StepPolicyKind policy :
       {StepPolicyKind::kFixed, StepPolicyKind::kAdaptive,
        StepPolicyKind::kDiminishing}) {
    for (const double bad : {0.0, -3.0, kInf, std::nan("")}) {
      LlaConfig config;
      config.step_policy = policy;
      config.gamma0 = bad;
      EXPECT_DEATH(LlaEngine(workload.value(), model, config),
                   "LlaEngine: step parameter gamma0 = .* must be finite "
                   "and > 0")
          << ToString(policy) << " gamma0 " << bad;
      config.gamma0 = 1.0;
      config.diminishing_tau = bad;
      EXPECT_DEATH(LlaEngine(workload.value(), model, config),
                   "LlaEngine: step parameter diminishing_tau = .* must be "
                   "finite and > 0")
          << ToString(policy) << " tau " << bad;
    }
    for (const double bad : {0.5, -kInf, kInf, std::nan("")}) {
      LlaConfig config;
      config.step_policy = policy;
      config.adaptive_max_multiplier = bad;
      EXPECT_DEATH(LlaEngine(workload.value(), model, config),
                   "LlaEngine: step parameter adaptive_max_multiplier = .* "
                   "must be finite and >= 1")
          << ToString(policy) << " cap " << bad;
    }
  }
}

}  // namespace
}  // namespace lla
