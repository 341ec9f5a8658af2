#include "model/workload.h"

#include <limits>

#include <gtest/gtest.h>

#include "model/trigger.h"
#include "model/utility.h"

namespace lla {
namespace {

std::vector<ResourceSpec> TwoResources() {
  return {{"cpu0", ResourceKind::kCpu, 1.0, 1.0},
          {"link0", ResourceKind::kNetworkLink, 0.8, 0.5}};
}

TaskSpec SimpleChainTask(const std::string& name = "t") {
  TaskSpec task;
  task.name = name;
  task.critical_time_ms = 50.0;
  task.utility = MakePaperSimUtility(50.0);
  task.trigger = TriggerSpec::Periodic(100.0);
  task.subtasks = {{"a", ResourceId(0u), 2.0, 0.0},
                   {"b", ResourceId(1u), 3.0, 0.1}};
  task.edges = {{0, 1}};
  return task;
}

TEST(WorkloadTest, BuildsValidWorkload) {
  auto workload = Workload::Create(TwoResources(), {SimpleChainTask()});
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  EXPECT_EQ(w.resource_count(), 2u);
  EXPECT_EQ(w.task_count(), 1u);
  EXPECT_EQ(w.subtask_count(), 2u);
  EXPECT_EQ(w.path_count(), 1u);

  const SubtaskInfo& a = w.subtask(SubtaskId(0u));
  EXPECT_EQ(a.name, "a");
  EXPECT_DOUBLE_EQ(a.wcet_ms, 2.0);
  EXPECT_DOUBLE_EQ(a.work_ms, 3.0);  // wcet + cpu0 lag 1.0
  const SubtaskInfo& b = w.subtask(SubtaskId(1u));
  EXPECT_DOUBLE_EQ(b.work_ms, 3.5);  // wcet + link0 lag 0.5
  EXPECT_DOUBLE_EQ(b.min_share, 0.1);

  EXPECT_EQ(w.resource(ResourceId(0u)).subtasks.size(), 1u);
  EXPECT_EQ(w.path(PathId(0u)).subtasks.size(), 2u);
  EXPECT_DOUBLE_EQ(w.path(PathId(0u)).critical_time_ms, 50.0);
}

TEST(WorkloadTest, WeightsFollowVariant) {
  // Fan-out: root on cpu0, two leaves on link0 + a third resource.
  std::vector<ResourceSpec> resources = TwoResources();
  resources.push_back({"cpu1", ResourceKind::kCpu, 1.0, 0.0});
  TaskSpec task;
  task.name = "fan";
  task.critical_time_ms = 40.0;
  task.utility = MakePaperSimUtility(40.0);
  task.subtasks = {{"root", ResourceId(0u), 1.0, 0.0},
                   {"leaf1", ResourceId(1u), 1.0, 0.0},
                   {"leaf2", ResourceId(2u), 1.0, 0.0}};
  task.edges = {{0, 1}, {0, 2}};
  auto workload = Workload::Create(std::move(resources), {task});
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  EXPECT_DOUBLE_EQ(w.Weight(SubtaskId(0u), UtilityVariant::kSum), 1.0);
  EXPECT_DOUBLE_EQ(w.Weight(SubtaskId(0u), UtilityVariant::kPathWeighted),
                   2.0);
  EXPECT_DOUBLE_EQ(w.Weight(SubtaskId(1u), UtilityVariant::kPathWeighted),
                   1.0);
  EXPECT_EQ(w.subtask(SubtaskId(0u)).paths.size(), 2u);
}

TEST(WorkloadTest, RejectsEmptyInputs) {
  EXPECT_FALSE(Workload::Create({}, {SimpleChainTask()}).ok());
  EXPECT_FALSE(Workload::Create(TwoResources(), {}).ok());
}

TEST(WorkloadTest, RejectsBadCapacity) {
  auto resources = TwoResources();
  resources[0].capacity = 0.0;
  EXPECT_FALSE(Workload::Create(resources, {SimpleChainTask()}).ok());
  resources[0].capacity = 1.5;
  EXPECT_FALSE(Workload::Create(resources, {SimpleChainTask()}).ok());
}

TEST(WorkloadTest, RejectsNegativeLag) {
  auto resources = TwoResources();
  resources[1].lag_ms = -0.1;
  EXPECT_FALSE(Workload::Create(resources, {SimpleChainTask()}).ok());
}

TEST(WorkloadTest, RejectsBadCriticalTime) {
  auto task = SimpleChainTask();
  task.critical_time_ms = 0.0;
  EXPECT_FALSE(Workload::Create(TwoResources(), {task}).ok());
}

// NaN fails every ordered comparison, so a check written `x <= 0.0` lets it
// through; +inf passes the one-sided checks.  Every numeric field must be
// finite.
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(WorkloadTest, RejectsNonFiniteCapacity) {
  for (const double capacity : {kNaN, kInf, -kInf}) {
    auto resources = TwoResources();
    resources[0].capacity = capacity;
    EXPECT_FALSE(Workload::Create(resources, {SimpleChainTask()}).ok())
        << capacity;
  }
}

TEST(WorkloadTest, RejectsNonFiniteLag) {
  for (const double lag : {kNaN, kInf, -kInf}) {
    auto resources = TwoResources();
    resources[1].lag_ms = lag;
    EXPECT_FALSE(Workload::Create(resources, {SimpleChainTask()}).ok())
        << lag;
  }
}

TEST(WorkloadTest, RejectsNonFiniteCriticalTime) {
  for (const double critical_time : {kNaN, kInf}) {
    auto task = SimpleChainTask();
    task.critical_time_ms = critical_time;
    EXPECT_FALSE(Workload::Create(TwoResources(), {task}).ok())
        << critical_time;
  }
}

TEST(WorkloadTest, RejectsNonFiniteWcet) {
  for (const double wcet : {kNaN, kInf}) {
    auto task = SimpleChainTask();
    task.subtasks[0].wcet_ms = wcet;
    EXPECT_FALSE(Workload::Create(TwoResources(), {task}).ok()) << wcet;
  }
}

TEST(WorkloadTest, RejectsNonFiniteMinShare) {
  for (const double min_share : {kNaN, kInf}) {
    auto task = SimpleChainTask();
    task.subtasks[1].min_share = min_share;
    EXPECT_FALSE(Workload::Create(TwoResources(), {task}).ok()) << min_share;
  }
}

TEST(WorkloadTest, RejectsBadTriggerPeriod) {
  for (const double period : {0.0, -5.0, kNaN, kInf}) {
    auto periodic = SimpleChainTask();
    periodic.trigger = TriggerSpec::Periodic(period);
    EXPECT_FALSE(Workload::Create(TwoResources(), {periodic}).ok()) << period;
    auto bursty = SimpleChainTask();
    bursty.trigger = TriggerSpec::Bursty(period, 2, 1.0);
    EXPECT_FALSE(Workload::Create(TwoResources(), {bursty}).ok()) << period;
  }
}

TEST(WorkloadTest, RejectsNonFiniteTriggerPhase) {
  for (const double phase : {kNaN, kInf, -kInf}) {
    auto task = SimpleChainTask();
    task.trigger = TriggerSpec::Periodic(100.0, phase);
    EXPECT_FALSE(Workload::Create(TwoResources(), {task}).ok()) << phase;
  }
}

TEST(WorkloadTest, RejectsBadTriggerRate) {
  for (const double rate : {0.0, -1.0, kNaN, kInf}) {
    auto task = SimpleChainTask();
    task.trigger = TriggerSpec::Poisson(rate);
    EXPECT_FALSE(Workload::Create(TwoResources(), {task}).ok()) << rate;
  }
}

TEST(WorkloadTest, RejectsBadBurstSize) {
  for (const int burst_size : {0, -3}) {
    auto task = SimpleChainTask();
    task.trigger = TriggerSpec::Bursty(100.0, burst_size, 1.0);
    EXPECT_FALSE(Workload::Create(TwoResources(), {task}).ok()) << burst_size;
  }
}

TEST(WorkloadTest, RejectsBadBurstSpread) {
  for (const double spread : {-1.0, kNaN, kInf}) {
    auto task = SimpleChainTask();
    task.trigger = TriggerSpec::Bursty(100.0, 2, spread);
    EXPECT_FALSE(Workload::Create(TwoResources(), {task}).ok()) << spread;
  }
}

TEST(WorkloadTest, AcceptsEveryValidTriggerKind) {
  for (const TriggerSpec& trigger :
       {TriggerSpec::Periodic(100.0, 2.5), TriggerSpec::Poisson(10.0),
        TriggerSpec::Bursty(100.0, 3, 0.0)}) {
    auto task = SimpleChainTask();
    task.trigger = trigger;
    auto workload = Workload::Create(TwoResources(), {task});
    EXPECT_TRUE(workload.ok()) << workload.error();
  }
}

TEST(WorkloadTest, RejectsMissingUtility) {
  auto task = SimpleChainTask();
  task.utility = std::nullopt;
  EXPECT_FALSE(Workload::Create(TwoResources(), {task}).ok());
}

TEST(WorkloadTest, RejectsInvalidResourceReference) {
  auto task = SimpleChainTask();
  task.subtasks[1].resource = ResourceId(9u);
  EXPECT_FALSE(Workload::Create(TwoResources(), {task}).ok());
  task.subtasks[1].resource = ResourceId();  // invalid sentinel
  EXPECT_FALSE(Workload::Create(TwoResources(), {task}).ok());
}

TEST(WorkloadTest, RejectsNonPositiveWcet) {
  auto task = SimpleChainTask();
  task.subtasks[0].wcet_ms = 0.0;
  EXPECT_FALSE(Workload::Create(TwoResources(), {task}).ok());
}

TEST(WorkloadTest, RejectsMinShareAboveCapacity) {
  auto task = SimpleChainTask();
  task.subtasks[1].min_share = 0.9;  // link capacity is 0.8
  EXPECT_FALSE(Workload::Create(TwoResources(), {task}).ok());
}

TEST(WorkloadTest, RejectsSharedResourceWithinTaskByDefault) {
  auto task = SimpleChainTask();
  task.subtasks[1].resource = ResourceId(0u);
  auto rejected = Workload::Create(TwoResources(), {task});
  ASSERT_FALSE(rejected.ok());
  WorkloadOptions options;
  options.allow_shared_resource_within_task = true;
  auto allowed = Workload::Create(TwoResources(), {task}, options);
  EXPECT_TRUE(allowed.ok()) << allowed.error();
}

TEST(WorkloadTest, RejectsMalformedDag) {
  auto task = SimpleChainTask();
  task.edges = {{0, 1}, {1, 0}};
  EXPECT_FALSE(Workload::Create(TwoResources(), {task}).ok());
}

TEST(WorkloadTest, MinShareDemandSums) {
  auto workload = Workload::Create(
      TwoResources(), {SimpleChainTask("t1"), SimpleChainTask("t2")});
  ASSERT_TRUE(workload.ok()) << workload.error();
  EXPECT_DOUBLE_EQ(workload.value().MinShareDemand(ResourceId(0u)), 0.0);
  EXPECT_DOUBLE_EQ(workload.value().MinShareDemand(ResourceId(1u)), 0.2);
}

TEST(WorkloadTest, NamesDefaultWhenEmpty) {
  auto task = SimpleChainTask();
  task.name.clear();
  task.subtasks[0].name.clear();
  auto workload = Workload::Create(TwoResources(), {task});
  ASSERT_TRUE(workload.ok()) << workload.error();
  EXPECT_EQ(workload.value().task(TaskId(0u)).name, "task0");
  EXPECT_EQ(workload.value().subtask(SubtaskId(0u)).name, "task0.0");
}

TEST(TriggerSpecTest, MeanRates) {
  EXPECT_DOUBLE_EQ(TriggerSpec::Periodic(100.0).MeanRatePerSecond(), 10.0);
  EXPECT_DOUBLE_EQ(TriggerSpec::Poisson(40.0).MeanRatePerSecond(), 40.0);
  EXPECT_DOUBLE_EQ(TriggerSpec::Bursty(100.0, 5, 1.0).MeanRatePerSecond(),
                   50.0);
}

}  // namespace
}  // namespace lla
