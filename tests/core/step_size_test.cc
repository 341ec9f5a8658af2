#include "core/step_size.h"

#include <cmath>
#include <limits>
#include <vector>

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

// The steps the schedule hands the price update, as vectors.
std::vector<double> ResourceSteps(const StepSchedule& schedule,
                                  const Workload& w) {
  std::vector<double> steps;
  for (std::size_t r = 0; r < w.resource_count(); ++r) {
    steps.push_back(schedule.resource_step(r));
  }
  return steps;
}

std::vector<double> PathSteps(const StepSchedule& schedule,
                              const Workload& w) {
  std::vector<double> steps;
  for (std::size_t p = 0; p < w.path_count(); ++p) {
    steps.push_back(schedule.path_step(p));
  }
  return steps;
}

StepSchedule Fixed(double gamma) {
  return StepSchedule(StepPolicyKind::kFixed, gamma, 8.0, 50.0);
}
StepSchedule Adaptive(double gamma0, double cap) {
  return StepSchedule(StepPolicyKind::kAdaptive, gamma0, cap, 50.0);
}
StepSchedule Diminishing(double gamma0, double tau) {
  return StepSchedule(StepPolicyKind::kDiminishing, gamma0, 8.0, tau);
}

TEST_F(StepSizeTest, FixedIsConstant) {
  StepSchedule schedule = Fixed(2.5);
  schedule.Reset(workload());
  std::vector<bool> congested(workload().resource_count(), true);
  schedule.Advance(workload(), congested);
  for (double g : ResourceSteps(schedule, workload())) EXPECT_DOUBLE_EQ(g, 2.5);
  for (double g : PathSteps(schedule, workload())) EXPECT_DOUBLE_EQ(g, 2.5);
  // Congestion has no effect.
  schedule.Advance(workload(), congested);
  for (double g : ResourceSteps(schedule, workload())) EXPECT_DOUBLE_EQ(g, 2.5);
}

TEST_F(StepSizeTest, AdaptiveDoublesWhileCongested) {
  StepSchedule schedule = Adaptive(1.0, /*cap=*/64.0);
  schedule.Reset(workload());
  std::vector<bool> congested(workload().resource_count(), false);
  congested[0] = true;

  schedule.Advance(workload(), congested);
  EXPECT_DOUBLE_EQ(schedule.resource_step(0), 2.0);
  EXPECT_DOUBLE_EQ(schedule.resource_step(1), 1.0);
  schedule.Advance(workload(), congested);
  EXPECT_DOUBLE_EQ(schedule.resource_step(0), 4.0);
  schedule.Advance(workload(), congested);
  EXPECT_DOUBLE_EQ(schedule.resource_step(0), 8.0);
}

TEST_F(StepSizeTest, AdaptiveRevertsOnUncongestion) {
  StepSchedule schedule = Adaptive(1.0, 64.0);
  schedule.Reset(workload());
  std::vector<bool> congested(workload().resource_count(), false);
  congested[0] = true;
  schedule.Advance(workload(), congested);
  schedule.Advance(workload(), congested);
  EXPECT_DOUBLE_EQ(schedule.resource_step(0), 4.0);
  congested[0] = false;
  schedule.Advance(workload(), congested);
  EXPECT_DOUBLE_EQ(schedule.resource_step(0), 1.0);
}

TEST_F(StepSizeTest, AdaptiveHonorsCap) {
  StepSchedule schedule = Adaptive(1.0, 8.0);
  schedule.Reset(workload());
  std::vector<bool> congested(workload().resource_count(), true);
  for (int i = 0; i < 20; ++i) schedule.Advance(workload(), congested);
  for (double g : ResourceSteps(schedule, workload())) EXPECT_DOUBLE_EQ(g, 8.0);
  for (double g : PathSteps(schedule, workload())) EXPECT_DOUBLE_EQ(g, 8.0);
}

TEST_F(StepSizeTest, AdaptivePathsFollowTraversedResources) {
  StepSchedule schedule = Adaptive(1.0, 64.0);
  schedule.Reset(workload());
  std::vector<bool> congested(workload().resource_count(), false);
  // Resource 7 is used only by task 2 (T28) and task 3 (T36): the paths of
  // task 1 must not double.
  congested[7] = true;
  schedule.Advance(workload(), congested);
  const Workload& w = workload();
  for (const PathInfo& path : w.paths()) {
    bool traverses = false;
    for (SubtaskId sid : path.subtasks) {
      if (w.subtask(sid).resource.value() == 7u) traverses = true;
    }
    EXPECT_DOUBLE_EQ(schedule.path_step(path.id.value()),
                     traverses ? 2.0 : 1.0)
        << "path " << path.id;
  }
}

// A schedule moves to a workload of another path count only through
// Reset(), which rebuilds the multipliers fresh for the new shape; Advance
// alone refuses the move (StepSizeDeathTest.AdvanceRejectsAnotherWorkloadShape).
TEST_F(StepSizeTest, AdaptiveRebuildsWhenPathCountGrows) {
  auto removed = WithoutTask(workload(), TaskId(2u));
  ASSERT_TRUE(removed.ok()) << removed.error();
  const Workload& smaller = removed.value();
  ASSERT_EQ(smaller.resource_count(), workload().resource_count());
  ASSERT_LT(smaller.path_count(), workload().path_count());

  StepSchedule schedule = Adaptive(1.0, 64.0);
  schedule.Reset(smaller);
  std::vector<bool> congested(workload().resource_count(), true);
  schedule.Advance(smaller, congested);

  // Task re-admission: more paths than the schedule was sized for.
  schedule.Reset(workload());
  ASSERT_EQ(schedule.path_multiplier().size(), workload().path_count());
  schedule.Advance(workload(), congested);
  for (double g : PathSteps(schedule, workload())) EXPECT_DOUBLE_EQ(g, 2.0);
}

TEST_F(StepSizeTest, AdaptiveRebuildsWhenPathCountShrinks) {
  auto removed = WithoutTask(workload(), TaskId(1u));
  ASSERT_TRUE(removed.ok()) << removed.error();
  const Workload& smaller = removed.value();
  ASSERT_EQ(smaller.resource_count(), workload().resource_count());
  ASSERT_LT(smaller.path_count(), workload().path_count());

  StepSchedule schedule = Adaptive(1.0, 64.0);
  schedule.Reset(workload());
  // Congestion streak on the full workload: every multiplier climbs to 8x.
  std::vector<bool> congested(workload().resource_count(), true);
  for (int i = 0; i < 3; ++i) schedule.Advance(workload(), congested);
  for (double g : PathSteps(schedule, workload())) EXPECT_DOUBLE_EQ(g, 8.0);

  // Moving to the path-shrunk workload starts from fresh multipliers (one
  // doubling from 1.0), not the stale 8x streak.
  schedule.Reset(smaller);
  ASSERT_EQ(schedule.path_multiplier().size(), smaller.path_count());
  schedule.Advance(smaller, congested);
  for (double g : PathSteps(schedule, smaller)) EXPECT_DOUBLE_EQ(g, 2.0);
  for (double g : ResourceSteps(schedule, smaller)) EXPECT_DOUBLE_EQ(g, 2.0);
}

// The per-component form is Advance split by component: stepping every
// resource and path through AdvanceResource / AdvancePath with the flags
// Advance derives reproduces Advance's multipliers exactly.
TEST_F(StepSizeTest, PerComponentFormMatchesAdvance) {
  const Workload& w = workload();
  StepSchedule whole = Adaptive(1.0, 8.0);
  StepSchedule split = Adaptive(1.0, 8.0);
  whole.Reset(w);
  split.Reset(w);
  for (std::size_t step = 0; step < 40; ++step) {
    std::vector<bool> congested(w.resource_count());
    for (std::size_t r = 0; r < congested.size(); ++r) {
      congested[r] = (step * 7 + r * 3) % 5 < 2;
      split.AdvanceResource(r, congested[r]);
    }
    whole.Advance(w, congested);
    for (const PathInfo& path : w.paths()) {
      bool any_congested = false;
      for (const SubtaskId sid : path.subtasks) {
        any_congested = any_congested ||
                        congested[w.subtask(sid).resource.value()];
      }
      split.AdvancePath(path.id.value(), any_congested);
    }
    ASSERT_EQ(split.resource_multiplier(), whole.resource_multiplier())
        << "step " << step;
    ASSERT_EQ(split.path_multiplier(), whole.path_multiplier())
        << "step " << step;
  }
  split.AdoptResource(2, 4.0);
  split.AdoptPath(3, 4.0);
  EXPECT_DOUBLE_EQ(split.resource_step(2), 4.0);
  EXPECT_DOUBLE_EQ(split.path_step(3), 4.0);
  split.ResetResource(2);
  split.ResetPath(3);
  EXPECT_DOUBLE_EQ(split.resource_step(2), 1.0);
  EXPECT_DOUBLE_EQ(split.path_step(3), 1.0);
}

// Kinds that keep no multipliers ignore the per-component calls, and no
// per-component call moves gamma_t or t: lanes call them concurrently.
TEST_F(StepSizeTest, PerComponentFormLeavesTheSharedScalars) {
  const Workload& w = workload();
  std::vector<bool> congested(w.resource_count(), true);
  StepSchedule fixed = Fixed(2.5);
  fixed.Reset(w);
  StepSchedule diminishing = Diminishing(10.0, 5.0);
  diminishing.Reset(w);
  diminishing.Advance(w, congested);
  diminishing.Advance(w, congested);
  for (StepSchedule* schedule : {&fixed, &diminishing}) {
    const double step = schedule->resource_step(0);
    schedule->AdvanceResource(0, true);
    schedule->AdvancePath(0, true);
    schedule->AdoptResource(1, 4.0);
    schedule->AdoptPath(1, 4.0);
    schedule->ResetResource(0);
    schedule->ResetPath(0);
    EXPECT_TRUE(schedule->resource_multiplier().empty());
    EXPECT_TRUE(schedule->path_multiplier().empty());
    for (double g : ResourceSteps(*schedule, w)) EXPECT_EQ(g, step);
    for (double g : PathSteps(*schedule, w)) EXPECT_EQ(g, step);
  }
  EXPECT_EQ(diminishing.iteration(), 2);

  StepSchedule adaptive = Adaptive(2.0, 8.0);
  adaptive.Reset(w);
  adaptive.AdvanceResource(0, true);
  adaptive.AdvancePath(0, true);
  EXPECT_EQ(adaptive.iteration(), 0);
  EXPECT_DOUBLE_EQ(adaptive.resource_step(0), 4.0);
  EXPECT_DOUBLE_EQ(adaptive.path_step(0), 4.0);
  EXPECT_DOUBLE_EQ(adaptive.resource_step(1), 2.0);
  EXPECT_DOUBLE_EQ(adaptive.path_step(1), 2.0);
}

TEST_F(StepSizeTest, DiminishingSchedule) {
  StepSchedule schedule = Diminishing(10.0, 5.0);
  schedule.Reset(workload());
  std::vector<bool> congested(workload().resource_count(), false);
  schedule.Advance(workload(), congested);
  EXPECT_DOUBLE_EQ(schedule.resource_step(0), 10.0);  // t = 0
  schedule.Advance(workload(), congested);
  EXPECT_DOUBLE_EQ(schedule.resource_step(0), 10.0 / (1.0 + 1.0 / 5.0));
  for (int i = 0; i < 48; ++i) schedule.Advance(workload(), congested);
  EXPECT_NEAR(schedule.resource_step(0), 10.0 / (1.0 + 49.0 / 5.0), 1e-12);
}

TEST_F(StepSizeTest, DiminishingResetRestartsSchedule) {
  StepSchedule schedule = Diminishing(10.0, 5.0);
  schedule.Reset(workload());
  std::vector<bool> congested(workload().resource_count(), false);
  schedule.Advance(workload(), congested);
  schedule.Advance(workload(), congested);
  schedule.Reset(workload());
  schedule.Advance(workload(), congested);
  EXPECT_DOUBLE_EQ(schedule.resource_step(0), 10.0);
}

constexpr double kInf = std::numeric_limits<double>::infinity();

// A zero, negative, infinite or NaN step, or a doubling cap below 1, used to
// pass the policy constructors' asserts silently in NDEBUG builds (the
// default RelWithDebInfo and Release).  Every build mode now refuses them,
// whatever kind the schedule selects.
TEST(StepSizeDeathTest, PoliciesRejectInvalidParameters) {
  for (const double bad : {0.0, -1.0, kInf, std::nan("")}) {
    EXPECT_DEATH(Fixed(bad),
                 "StepSchedule: step parameter gamma0 = .* must be finite "
                 "and > 0")
        << bad;
    EXPECT_DEATH(Adaptive(bad, 8.0),
                 "StepSchedule: step parameter gamma0 = .* must be "
                 "finite and > 0")
        << bad;
    EXPECT_DEATH(Diminishing(1.0, bad),
                 "StepSchedule: step parameter diminishing_tau = .* must be "
                 "finite and > 0")
        << bad;
  }
  for (const double bad : {0.5, 0.0, kInf, std::nan("")}) {
    EXPECT_DEATH(Adaptive(1.0, bad),
                 "StepSchedule: step parameter adaptive_max_multiplier = .* "
                 "must be finite and >= 1")
        << bad;
  }
}

// Every engine binds one workload for life, so an adaptive schedule handed
// a workload of another shape is a caller bug: Advance aborts in every
// build mode instead of resizing its multipliers (which resumed a stale
// streak, or wrote out of bounds, when the path count changed under a fixed
// resource count).
TEST(StepSizeDeathTest, AdvanceRejectsAnotherWorkloadShape) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& full = workload.value();
  for (const unsigned task : {1u, 2u}) {
    auto removed = WithoutTask(full, TaskId(task));
    ASSERT_TRUE(removed.ok()) << removed.error();
    const Workload& smaller = removed.value();
    ASSERT_EQ(smaller.resource_count(), full.resource_count());
    ASSERT_LT(smaller.path_count(), full.path_count());
    const std::vector<bool> congested(full.resource_count(), true);

    StepSchedule grown = Adaptive(1.0, 64.0);
    grown.Reset(smaller);
    EXPECT_DEATH(grown.Advance(full, congested),
                 "StepSchedule::Advance: workload shape .* does not match");
    StepSchedule shrunk = Adaptive(1.0, 64.0);
    shrunk.Reset(full);
    EXPECT_DEATH(shrunk.Advance(smaller, congested),
                 "StepSchedule::Advance: workload shape .* does not match");
  }
}

// The engine checks every step parameter of its config, whichever policy
// it selects, as it builds its schedule.
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
