#include "sim/ps_scheduler.h"

#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

namespace lla::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(GpsSchedulerTest, SingleFlowRunsAtFullCapacity) {
  GpsScheduler gps(1.0);
  const int flow = gps.AddFlow(0.25);
  gps.Enqueue(flow, {1, 10.0, 0.0});
  // Work-conserving: the only backlogged flow gets everything.
  EXPECT_DOUBLE_EQ(gps.NextCompletionMs(), 10.0);
  std::vector<double> completions;
  gps.AdvanceTo(20.0, [&](std::uint64_t, double t) { completions.push_back(t); });
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_NEAR(completions[0], 10.0, 1e-9);
}

TEST(GpsSchedulerTest, TwoFlowsShareProportionally) {
  GpsScheduler gps(1.0);
  const int a = gps.AddFlow(2.0);
  const int b = gps.AddFlow(1.0);
  gps.Enqueue(a, {1, 10.0, 0.0});
  gps.Enqueue(b, {2, 10.0, 0.0});
  std::map<std::uint64_t, double> done;
  gps.AdvanceTo(100.0, [&](std::uint64_t id, double t) { done[id] = t; });
  // Flow a at rate 2/3 finishes at 15; then flow b alone: remaining
  // 10 - 15/3 = 5 at full speed -> completes at 20.
  EXPECT_NEAR(done[1], 15.0, 1e-9);
  EXPECT_NEAR(done[2], 20.0, 1e-9);
}

TEST(GpsSchedulerTest, AlwaysBackloggedFlowConsumesItsShare) {
  GpsScheduler gps(1.0);
  const int gc = gps.AddFlow(0.1, /*always_backlogged=*/true);
  (void)gc;
  const int a = gps.AddFlow(0.9);
  gps.Enqueue(a, {1, 9.0, 0.0});
  std::vector<double> completions;
  gps.AdvanceTo(100.0, [&](std::uint64_t, double t) { completions.push_back(t); });
  // Flow a gets 0.9 of the capacity: 9 / 0.9 = 10 ms.
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_NEAR(completions[0], 10.0, 1e-9);
}

TEST(GpsSchedulerTest, FifoWithinFlow) {
  GpsScheduler gps(1.0);
  const int a = gps.AddFlow(1.0);
  gps.Enqueue(a, {1, 5.0, 0.0});
  gps.Enqueue(a, {2, 5.0, 0.0});
  std::vector<std::uint64_t> order;
  gps.AdvanceTo(20.0, [&](std::uint64_t id, double) { order.push_back(id); });
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2}));
}

TEST(GpsSchedulerTest, IdleWhenNoJobs) {
  GpsScheduler gps(1.0);
  gps.AddFlow(1.0);
  EXPECT_EQ(gps.NextCompletionMs(), kInf);
  gps.AdvanceTo(50.0, nullptr);
  EXPECT_DOUBLE_EQ(gps.now_ms(), 50.0);
}

TEST(GpsSchedulerTest, ManyFlowsConserveWork) {
  GpsScheduler gps(1.0);
  std::vector<int> flows;
  const int n = 10;
  double total_work = 0.0;
  for (int i = 0; i < n; ++i) {
    flows.push_back(gps.AddFlow(1.0 + i));
  }
  for (int i = 0; i < n; ++i) {
    const double work = 3.0 + i;
    total_work += work;
    gps.Enqueue(flows[i], {static_cast<std::uint64_t>(i), work, 0.0});
  }
  double last_completion = 0.0;
  int completed = 0;
  gps.AdvanceTo(1000.0, [&](std::uint64_t, double t) {
    last_completion = std::max(last_completion, t);
    ++completed;
  });
  EXPECT_EQ(completed, n);
  // Work conservation: the busy period ends exactly at total work.
  EXPECT_NEAR(last_completion, total_work, 1e-6);
}

TEST(SfsSchedulerTest, SingleFlowMatchesGps) {
  SfsScheduler sfs(1.0, 1.0);
  const int a = sfs.AddFlow(0.5);
  sfs.Enqueue(a, {1, 7.0, 0.0});
  std::vector<double> completions;
  sfs.AdvanceTo(50.0, [&](std::uint64_t, double t) { completions.push_back(t); });
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_NEAR(completions[0], 7.0, 1.0 + 1e-9);  // within one quantum
}

TEST(SfsSchedulerTest, LongRunServiceProportionalToWeights) {
  SfsScheduler sfs(1.0, 1.0);
  const int a = sfs.AddFlow(3.0);
  const int b = sfs.AddFlow(1.0);
  // Keep both flows saturated with many jobs.
  std::uint64_t id = 0;
  for (int i = 0; i < 400; ++i) {
    sfs.Enqueue(a, {id++, 1.0, 0.0});
    sfs.Enqueue(b, {id++, 1.0, 0.0});
  }
  int done_a = 0, done_b = 0;
  sfs.AdvanceTo(400.0, [&](std::uint64_t job, double) {
    (job % 2 == 0 ? done_a : done_b) += 1;
  });
  // 400 ms of service split 3:1 -> ~300 vs ~100 jobs of 1 ms.
  EXPECT_NEAR(static_cast<double>(done_a) / done_b, 3.0, 0.2);
}

TEST(SfsSchedulerTest, AlwaysBackloggedStealsShare) {
  SfsScheduler sfs(1.0, 1.0);
  const int gc = sfs.AddFlow(1.0, /*always_backlogged=*/true);
  (void)gc;
  const int a = sfs.AddFlow(1.0);
  std::uint64_t id = 0;
  for (int i = 0; i < 100; ++i) sfs.Enqueue(a, {id++, 1.0, 0.0});
  int done = 0;
  sfs.AdvanceTo(100.0, [&](std::uint64_t, double) { ++done; });
  // Equal weights: flow a gets ~half the 100 ms.
  EXPECT_NEAR(done, 50, 2);
}

TEST(SfsSchedulerTest, NewlyBackloggedFlowCannotClaimPastService) {
  SfsScheduler sfs(1.0, 1.0);
  const int a = sfs.AddFlow(1.0);
  const int b = sfs.AddFlow(1.0);
  std::uint64_t id = 0;
  for (int i = 0; i < 50; ++i) sfs.Enqueue(a, {id++, 1.0, 0.0});
  sfs.AdvanceTo(30.0, nullptr);  // a alone consumed 30 ms
  // b wakes up; it must not monopolize to "catch up" the missed 30 ms.
  for (int i = 0; i < 50; ++i) sfs.Enqueue(b, {1000 + id++, 1.0, 0.0});
  int done_a = 0, done_b = 0;
  sfs.AdvanceTo(50.0, [&](std::uint64_t job, double) {
    (job >= 1000 ? done_b : done_a) += 1;
  });
  // The next 20 ms should split roughly evenly.
  EXPECT_NEAR(done_a, 10, 2);
  EXPECT_NEAR(done_b, 10, 2);
}

// Property: GPS latencies are bounded by work/guaranteed-rate when the
// system is fully loaded with equal weights.
class GpsLatencyBound : public ::testing::TestWithParam<int> {};

TEST_P(GpsLatencyBound, HeadLatencyWithinGuarantee) {
  const int flows = GetParam();
  GpsScheduler gps(1.0);
  std::vector<int> ids;
  for (int i = 0; i < flows; ++i) ids.push_back(gps.AddFlow(1.0));
  for (int i = 0; i < flows; ++i) {
    gps.Enqueue(ids[i], {static_cast<std::uint64_t>(i), 4.0, 0.0});
  }
  std::vector<double> completions(flows, 0.0);
  gps.AdvanceTo(1000.0, [&](std::uint64_t id, double t) {
    completions[id] = t;
  });
  for (int i = 0; i < flows; ++i) {
    // Guaranteed rate 1/flows: latency <= work * flows.
    EXPECT_LE(completions[i], 4.0 * flows + 1e-6);
    EXPECT_GT(completions[i], 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(FlowCounts, GpsLatencyBound,
                         ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace lla::sim
