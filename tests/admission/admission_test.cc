#include "admission/admission.h"

#include <gtest/gtest.h>

#include "model/trigger.h"
#include "model/utility.h"

namespace lla::admission {
namespace {

std::vector<ResourceSpec> TwoCpus() {
  return {{"cpu0", ResourceKind::kCpu, 1.0, 1.0},
          {"cpu1", ResourceKind::kCpu, 1.0, 1.0}};
}

/// A chain task over both CPUs with the given demand level.
TaskSpec MakeTask(const std::string& name, double wcet_ms,
                  double critical_ms, double rate_per_s = 10.0,
                  double slope = 1.0) {
  TaskSpec task;
  task.name = name;
  task.critical_time_ms = critical_ms;
  task.utility = Utility::Linear(2.0 * critical_ms * slope, slope);
  task.trigger = TriggerSpec::Periodic(1000.0 / rate_per_s);
  const double min_share = rate_per_s * wcet_ms / 1000.0;
  task.subtasks = {{"a", ResourceId(0u), wcet_ms, min_share},
                   {"b", ResourceId(1u), wcet_ms, min_share}};
  task.edges = {{0, 1}};
  return task;
}

AdmissionConfig TestConfig() {
  AdmissionConfig config;
  config.lla.step_policy = StepPolicyKind::kAdaptive;
  config.lla.gamma0 = 3.0;
  return config;
}

TEST(AdmissionTest, AdmitsFeasibleTasks) {
  AdmissionController controller(TwoCpus(), TestConfig());
  const auto first = controller.TryAdmit(MakeTask("t1", 5.0, 100.0));
  EXPECT_EQ(first.decision, Decision::kAdmitted) << first.reason;
  const auto second = controller.TryAdmit(MakeTask("t2", 5.0, 100.0));
  EXPECT_EQ(second.decision, Decision::kAdmitted) << second.reason;
  EXPECT_EQ(controller.task_count(), 2u);
  EXPECT_GT(second.utility_after, second.utility_before);
}

TEST(AdmissionTest, RejectsOverloadingTask) {
  AdmissionController controller(TwoCpus(), TestConfig());
  ASSERT_EQ(controller.TryAdmit(MakeTask("t1", 5.0, 50.0, 40.0)).decision,
            Decision::kAdmitted);  // min share 0.2 per cpu
  ASSERT_EQ(controller.TryAdmit(MakeTask("t2", 5.0, 50.0, 40.0)).decision,
            Decision::kAdmitted);  // 0.4 total
  // A task demanding 0.7 sustainable share per CPU cannot fit on top.
  const auto report = controller.TryAdmit(MakeTask("hog", 7.0, 60.0, 100.0));
  EXPECT_EQ(report.decision, Decision::kRejectedInfeasible) << report.reason;
  EXPECT_EQ(controller.task_count(), 2u);  // incumbents untouched
}

TEST(AdmissionTest, RejectsImpossibleDeadline) {
  AdmissionController controller(TwoCpus(), TestConfig());
  // Two 5 ms subtasks (plus 1 ms lag each) can never finish within 5 ms.
  const auto report = controller.TryAdmit(MakeTask("tight", 5.0, 5.0));
  EXPECT_EQ(report.decision, Decision::kRejectedInfeasible) << report.reason;
}

TEST(AdmissionTest, RejectsInvalidSpec) {
  AdmissionController controller(TwoCpus(), TestConfig());
  TaskSpec bad = MakeTask("bad", 5.0, 100.0);
  bad.utility = std::nullopt;
  EXPECT_EQ(controller.TryAdmit(bad).decision, Decision::kRejectedInvalid);
  TaskSpec cyclic = MakeTask("cyclic", 5.0, 100.0);
  cyclic.edges = {{0, 1}, {1, 0}};
  EXPECT_EQ(controller.TryAdmit(cyclic).decision,
            Decision::kRejectedInvalid);
}

TEST(AdmissionTest, RemoveFreesCapacity) {
  AdmissionController controller(TwoCpus(), TestConfig());
  ASSERT_EQ(controller.TryAdmit(MakeTask("t1", 5.0, 60.0, 60.0)).decision,
            Decision::kAdmitted);  // 0.3 per cpu sustainable
  ASSERT_EQ(controller.TryAdmit(MakeTask("t2", 5.0, 60.0, 60.0)).decision,
            Decision::kAdmitted);  // 0.6
  const auto rejected =
      controller.TryAdmit(MakeTask("t3", 5.0, 60.0, 100.0));  // 0.5 more
  ASSERT_EQ(rejected.decision, Decision::kRejectedInfeasible);
  EXPECT_TRUE(controller.Remove("t1"));
  EXPECT_FALSE(controller.Remove("t1"));  // already gone
  const auto retried =
      controller.TryAdmit(MakeTask("t3", 5.0, 60.0, 100.0));
  EXPECT_EQ(retried.decision, Decision::kAdmitted) << retried.reason;
  const auto names = controller.TaskNames();
  EXPECT_EQ(names, (std::vector<std::string>{"t2", "t3"}));
}

TEST(AdmissionTest, NetBenefitPolicyRejectsHarmfulTask) {
  AdmissionConfig config = TestConfig();
  config.policy = Policy::kNetBenefit;
  // Demand a material gain: a low-value newcomer squeezing a high-value
  // incumbent must be rejected even though it is schedulable.
  config.min_net_benefit = 100.0;
  AdmissionController controller(TwoCpus(), config);
  ASSERT_EQ(controller
                .TryAdmit(MakeTask("vip", 5.0, 40.0, 40.0, /*slope=*/5.0))
                .decision,
            Decision::kAdmitted);
  const auto report =
      controller.TryAdmit(MakeTask("lowvalue", 5.0, 60.0, 40.0,
                                   /*slope=*/1.0));
  EXPECT_EQ(report.decision, Decision::kRejectedNetBenefit) << report.reason;
  EXPECT_EQ(controller.task_count(), 1u);
}

}  // namespace
}  // namespace lla::admission
