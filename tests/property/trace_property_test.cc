// Observability must be read-only: an attached sink or metric registry must
// leave the engine's trajectory bit-identical to an uninstrumented run, for
// serial and thread-pooled execution alike (DESIGN.md §7.4).
#include <gtest/gtest.h>

#include "core/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workloads/paper.h"
#include "workloads/random.h"

namespace lla {
namespace {

struct Trajectory {
  std::vector<double> latencies;
  std::vector<double> mu;
  std::vector<double> lambda;
  double utility = 0.0;
};

Trajectory RunEngine(const Workload& w, int num_threads,
                     obs::TraceSink* sink, obs::MetricRegistry* metrics,
                     int iterations) {
  LatencyModel model(w);
  LlaConfig config;
  config.gamma0 = 3.0;
  config.num_threads = num_threads;
  config.record_history = false;
  config.trace_sink = sink;
  config.metrics = metrics;
  LlaEngine engine(w, model, config);
  for (int i = 0; i < iterations; ++i) engine.Step();
  Trajectory t;
  t.latencies = engine.latencies();
  t.mu = engine.prices().mu;
  t.lambda = engine.prices().lambda;
  t.utility = engine.TotalUtilityNow();
  return t;
}

void ExpectBitIdentical(const Trajectory& a, const Trajectory& b) {
  ASSERT_EQ(a.latencies.size(), b.latencies.size());
  for (std::size_t i = 0; i < a.latencies.size(); ++i) {
    EXPECT_EQ(a.latencies[i], b.latencies[i]) << "latency " << i;
  }
  ASSERT_EQ(a.mu.size(), b.mu.size());
  for (std::size_t i = 0; i < a.mu.size(); ++i) {
    EXPECT_EQ(a.mu[i], b.mu[i]) << "mu " << i;
  }
  ASSERT_EQ(a.lambda.size(), b.lambda.size());
  for (std::size_t i = 0; i < a.lambda.size(); ++i) {
    EXPECT_EQ(a.lambda[i], b.lambda[i]) << "lambda " << i;
  }
  EXPECT_EQ(a.utility, b.utility);
}

class TraceNonInterference : public ::testing::TestWithParam<int> {};

TEST_P(TraceNonInterference, PaperWorkloadTrajectoryUnchanged) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  const int threads = GetParam();
  const int iterations = 500;

  const Trajectory plain =
      RunEngine(w, threads, nullptr, nullptr, iterations);

  obs::RingBufferTraceSink sink(64);
  obs::MetricRegistry metrics;
  const Trajectory traced =
      RunEngine(w, threads, &sink, &metrics, iterations);

  ExpectBitIdentical(plain, traced);
  EXPECT_EQ(sink.total_received(), static_cast<std::uint64_t>(iterations));
  // engine.steps, the five engine.active.* work counters, and the
  // two engine.reprime.* structural warm-start counters.
  EXPECT_EQ(metrics.Snapshot().counters.size(), 8u);
  // The newest retained record reflects the final engine state exactly.
  const obs::IterationTrace& last = sink.at(sink.size() - 1);
  EXPECT_EQ(last.iteration, iterations);
  EXPECT_EQ(last.total_utility, plain.utility);
  for (std::size_t r = 0; r < plain.mu.size(); ++r) {
    EXPECT_EQ(last.resource_mu[r], plain.mu[r]);
  }
}

TEST_P(TraceNonInterference, RandomWorkloadTrajectoryUnchanged) {
  RandomWorkloadConfig workload_config;
  workload_config.seed = 7001;
  workload_config.target_utilization = 0.8;
  auto workload = MakeRandomWorkload(workload_config);
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  const int threads = GetParam();
  const int iterations = 300;

  const Trajectory plain =
      RunEngine(w, threads, nullptr, nullptr, iterations);
  obs::RingBufferTraceSink sink(16);
  obs::MetricRegistry metrics;
  const Trajectory traced =
      RunEngine(w, threads, &sink, &metrics, iterations);
  ExpectBitIdentical(plain, traced);
}

INSTANTIATE_TEST_SUITE_P(Threads, TraceNonInterference,
                         ::testing::Values(1, 8));

}  // namespace
}  // namespace lla
