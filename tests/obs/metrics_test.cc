#include "obs/metrics.h"

#include <gtest/gtest.h>

namespace lla::obs {
namespace {

TEST(MetricsTest, CounterStartsAtZeroAndAccumulates) {
  MetricRegistry registry;
  Counter* c = registry.GetCounter("engine.steps");
  EXPECT_EQ(c->value(), 0u);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->value(), 42u);
}

TEST(MetricsTest, SameNameReturnsSameHandle) {
  MetricRegistry registry;
  Counter* a = registry.GetCounter("bus.sent");
  Counter* b = registry.GetCounter("bus.sent");
  EXPECT_EQ(a, b);
  Timer* ta = registry.GetTimer("engine.solve");
  Timer* tb = registry.GetTimer("engine.solve");
  EXPECT_EQ(ta, tb);
  // Counters and timers are separate namespaces.
  registry.GetTimer("bus.sent");
  EXPECT_EQ(registry.GetCounter("bus.sent"), a);
}

TEST(MetricsTest, HandlesStableUnderRegistryGrowth) {
  MetricRegistry registry;
  Counter* first = registry.GetCounter("first");
  for (int i = 0; i < 1000; ++i) {
    registry.GetCounter("bulk." + std::to_string(i));
  }
  first->Increment(7);
  EXPECT_EQ(registry.GetCounter("first"), first);
  EXPECT_EQ(first->value(), 7u);
}

TEST(MetricsTest, TimerStatistics) {
  Timer timer;
  EXPECT_EQ(timer.count(), 0u);
  EXPECT_DOUBLE_EQ(timer.mean_ms(), 0.0);
  timer.RecordMs(2.0);
  timer.RecordMs(4.0);
  timer.RecordMs(3.0);
  EXPECT_EQ(timer.count(), 3u);
  EXPECT_DOUBLE_EQ(timer.total_ms(), 9.0);
  EXPECT_DOUBLE_EQ(timer.mean_ms(), 3.0);
  EXPECT_DOUBLE_EQ(timer.max_ms(), 4.0);
}

TEST(MetricsTest, ScopedTimerRecordsOnceAndNullIsSafe) {
  Timer timer;
  { ScopedTimer scope(&timer); }
  EXPECT_EQ(timer.count(), 1u);
  EXPECT_GE(timer.total_ms(), 0.0);
  { ScopedTimer scope(nullptr); }  // must not crash nor record anywhere
}

TEST(MetricsTest, SnapshotPreservesRegistrationOrder) {
  MetricRegistry registry;
  registry.GetCounter("z.last")->Increment(3);
  registry.GetCounter("a.first")->Increment(1);
  registry.GetTimer("t.one")->RecordMs(1.5);
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].name, "z.last");
  EXPECT_EQ(snapshot.counters[0].value, 3u);
  EXPECT_EQ(snapshot.counters[1].name, "a.first");
  ASSERT_EQ(snapshot.timers.size(), 1u);
  EXPECT_EQ(snapshot.timers[0].name, "t.one");
  EXPECT_EQ(snapshot.timers[0].count, 1u);
  EXPECT_DOUBLE_EQ(snapshot.timers[0].total_ms, 1.5);
}

TEST(MetricsTest, RenderTextListsEveryMetric) {
  MetricRegistry registry;
  registry.GetCounter("engine.steps")->Increment(12);
  registry.GetTimer("engine.solve")->RecordMs(0.5);
  const std::string text = registry.Snapshot().RenderText();
  EXPECT_NE(text.find("engine.steps"), std::string::npos);
  EXPECT_NE(text.find("12"), std::string::npos);
  EXPECT_NE(text.find("engine.solve"), std::string::npos);
  EXPECT_NE(text.find("count=1"), std::string::npos);
}

TEST(MetricsTest, EmptyRegistrySnapshotsCleanly) {
  MetricRegistry registry;
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_TRUE(snapshot.counters.empty());
  EXPECT_TRUE(snapshot.timers.empty());
  EXPECT_EQ(snapshot.RenderText(), "");
}

}  // namespace
}  // namespace lla::obs
