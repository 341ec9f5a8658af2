// Pins the DESIGN.md §8 calibration finding: on the paper workload the
// synchronous distributed deployment matches the single-process engine to
// 6e-5 in final utility.  The only semantic difference between the two is
// that the distributed path step sizes see one-round-stale congestion flags,
// so a regression here means the runtime's update order drifted from the
// engine's.
#include <cmath>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/coordinator.h"
#include "workloads/paper.h"

namespace lla::runtime {
namespace {

TEST(EngineRuntimeEquivalence, SyncRoundsMatchEngineToDocumentedBound) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);

  LlaConfig engine_config;
  engine_config.step_policy = StepPolicyKind::kAdaptive;
  engine_config.gamma0 = 3.0;
  engine_config.record_history = false;
  LlaEngine engine(w, model, engine_config);
  const RunResult engine_run = engine.Run(12000);
  ASSERT_TRUE(engine_run.converged);
  ASSERT_TRUE(engine_run.final_feasibility.feasible);

  CoordinatorConfig coordinator_config;
  coordinator_config.step.gamma0 = 3.0;
  coordinator_config.bus.base_delay_ms = 0.0;
  Coordinator coordinator(w, model, coordinator_config);
  const RunResult sync_run = coordinator.RunSync(12000);
  ASSERT_TRUE(sync_run.converged);
  ASSERT_TRUE(sync_run.final_feasibility.feasible);

  // DESIGN.md §8: 6e-5 relative on final utility.  Tightening the runtime
  // further is welcome; getting worse is a regression.
  const double bound =
      6e-5 * std::max(1.0, std::fabs(engine_run.final_utility));
  EXPECT_NEAR(sync_run.final_utility, engine_run.final_utility, bound);
}

// Coordinator-side observability: attaching a sink and registry must not
// change the distributed result, traces must carry the bus's virtual clock,
// and the round/message counters must reflect the run.
TEST(EngineRuntimeEquivalence, CoordinatorObservabilityIsReadOnly) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);

  CoordinatorConfig plain_config;
  plain_config.step.gamma0 = 3.0;
  plain_config.bus.base_delay_ms = 0.0;
  Coordinator plain(w, model, plain_config);
  const RunResult plain_run = plain.RunSync(2000);

  obs::RingBufferTraceSink sink(32);
  obs::MetricRegistry metrics;
  CoordinatorConfig traced_config = plain_config;
  traced_config.trace_sink = &sink;
  traced_config.metrics = &metrics;
  traced_config.bus.metrics = &metrics;
  Coordinator traced(w, model, traced_config);
  const RunResult traced_run = traced.RunSync(2000);

  EXPECT_EQ(traced_run.final_utility, plain_run.final_utility);
  EXPECT_EQ(traced_run.iterations, plain_run.iterations);

  ASSERT_GT(sink.total_received(), 0u);
  const obs::IterationTrace& last = sink.at(sink.size() - 1);
  EXPECT_GE(last.at_ms, 0.0);  // distributed traces carry virtual time
  EXPECT_EQ(last.resource_mu.size(), w.resource_count());
  EXPECT_EQ(last.path_lambda.size(), w.path_count());
  EXPECT_EQ(last.total_utility, traced_run.final_utility);

  EXPECT_EQ(metrics.GetCounter("coordinator.rounds")->value(),
            static_cast<std::uint64_t>(traced_run.iterations));
  EXPECT_GT(metrics.GetCounter("bus.sent")->value(), 0u);
  EXPECT_EQ(metrics.GetCounter("bus.sent")->value(),
            metrics.GetCounter("bus.delivered")->value() +
                metrics.GetCounter("bus.dropped")->value());
}

}  // namespace
}  // namespace lla::runtime
