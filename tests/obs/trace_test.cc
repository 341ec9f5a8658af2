#include "obs/trace.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace lla::obs {
namespace {

IterationTrace MakeTrace(int iteration) {
  IterationTrace trace;
  trace.iteration = iteration;
  trace.total_utility = -70.0 - iteration;
  trace.feasible = iteration % 2 == 0;
  trace.max_resource_excess = 0.25;
  trace.max_path_ratio = 0.5;
  trace.resource_share_sums = {0.5, 1.5};
  trace.resource_mu = {0.0, 3.25};
  trace.resource_step = {4.0, 8.0};
  trace.path_latencies = {10.0, 20.0, 30.0};
  trace.path_lambda = {0.0, 0.0, 1.0};
  trace.path_step = {4.0, 4.0, 8.0};
  return trace;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(JsonlTraceSinkTest, WritesBracketedRun) {
  const std::string path = ::testing::TempDir() + "/trace_run.jsonl";
  {
    JsonlTraceSink sink(path);
    ASSERT_TRUE(sink.ok());
    RunInfo info;
    info.label = "gamma=1";
    info.resource_count = 2;
    info.path_count = 3;
    sink.OnRunBegin(info);
    sink.OnIteration(MakeTrace(1));
    sink.OnIteration(MakeTrace(2));
    sink.OnRunEnd();
  }
  const std::string jsonl = ReadFile(path);
  std::istringstream lines(jsonl);
  std::string line;
  std::vector<std::string> records;
  while (std::getline(lines, line)) records.push_back(line);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0],
            "{\"type\":\"run_begin\",\"run\":\"gamma=1\",\"resources\":2,"
            "\"paths\":3}");
  EXPECT_NE(records[1].find("\"type\":\"iteration\""), std::string::npos);
  EXPECT_NE(records[1].find("\"run\":\"gamma=1\""), std::string::npos);
  EXPECT_NE(records[1].find("\"iteration\":1"), std::string::npos);
  EXPECT_NE(records[1].find("\"total_utility\":-71"), std::string::npos);
  EXPECT_NE(records[1].find("\"resource_share_sums\":[0.5,1.5]"),
            std::string::npos);
  EXPECT_NE(records[1].find("\"path_step\":[4,4,8]"), std::string::npos);
  // The engine's at_ms sentinel (< 0) is omitted from the record.
  EXPECT_EQ(records[1].find("at_ms"), std::string::npos);
  EXPECT_EQ(records[3], "{\"type\":\"run_end\",\"run\":\"gamma=1\"}");
  std::remove(path.c_str());
}

TEST(JsonlTraceSinkTest, IncludesVirtualTimeWhenSet) {
  const std::string path = ::testing::TempDir() + "/trace_at_ms.jsonl";
  {
    JsonlTraceSink sink(path);
    IterationTrace trace = MakeTrace(1);
    trace.at_ms = 125.5;
    sink.OnIteration(trace);
  }
  EXPECT_NE(ReadFile(path).find("\"at_ms\":125.5"), std::string::npos);
  std::remove(path.c_str());
}

TEST(JsonlTraceSinkTest, EventsCarryTypeAndFields) {
  const std::string path = ::testing::TempDir() + "/trace_event.jsonl";
  {
    JsonlTraceSink sink(path);
    RunInfo info;
    info.label = "fig8";
    sink.OnRunBegin(info);
    TraceEvent event;
    event.type = "epoch";
    event.fields = {{"epoch", 3.0}, {"fast_share", 0.25}};
    sink.OnEvent(event);
  }
  const std::string jsonl = ReadFile(path);
  EXPECT_NE(jsonl.find("{\"type\":\"event\",\"event\":\"epoch\","
                       "\"run\":\"fig8\",\"epoch\":3,\"fast_share\":0.25}"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(JsonlTraceSinkTest, BadPathReportsNotOkAndDropsRecords) {
  JsonlTraceSink sink("/nonexistent-dir/trace.jsonl");
  EXPECT_FALSE(sink.ok());
  sink.OnRunBegin(RunInfo{});
  sink.OnIteration(MakeTrace(1));  // must not crash
  sink.OnRunEnd();
}

TEST(JsonlTraceSinkTest, RoundTripsDoublesExactly) {
  const std::string path = ::testing::TempDir() + "/trace_prec.jsonl";
  const double value = 1.0 / 3.0;
  {
    JsonlTraceSink sink(path);
    IterationTrace trace = MakeTrace(1);
    trace.total_utility = value;
    sink.OnIteration(trace);
  }
  const std::string jsonl = ReadFile(path);
  const auto pos = jsonl.find("\"total_utility\":");
  ASSERT_NE(pos, std::string::npos);
  // %.17g preserves the bit pattern through a parse round-trip.
  const double parsed =
      std::strtod(jsonl.c_str() + pos + std::strlen("\"total_utility\":"),
                  nullptr);
  EXPECT_EQ(parsed, value);
  std::remove(path.c_str());
}

TEST(RingBufferTraceSinkTest, KeepsDeepCopies) {
  RingBufferTraceSink sink(4);
  IterationTrace trace = MakeTrace(1);
  sink.OnIteration(trace);
  // Mutate the producer's buffer after the fact; the sink must have copied.
  trace.total_utility = 999.0;
  trace.resource_mu[0] = 999.0;
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_DOUBLE_EQ(sink.at(0).total_utility, -71.0);
  EXPECT_DOUBLE_EQ(sink.at(0).resource_mu[0], 0.0);
}

TEST(RingBufferTraceSinkTest, OverwritesOldestWhenFull) {
  RingBufferTraceSink sink(3);
  for (int i = 1; i <= 5; ++i) sink.OnIteration(MakeTrace(i));
  EXPECT_EQ(sink.size(), 3u);
  EXPECT_EQ(sink.total_received(), 5u);
  EXPECT_EQ(sink.at(0).iteration, 3);
  EXPECT_EQ(sink.at(1).iteration, 4);
  EXPECT_EQ(sink.at(2).iteration, 5);
}

}  // namespace
}  // namespace lla::obs
