// Quickstart: define a tiny distributed real-time workload, run LLA, and
// read out the optimal latency assignment and resource shares.
//
//   cmake -B build -G Ninja && cmake --build build --target quickstart
//   ./build/examples/quickstart
//
// The scenario: a two-stage pipeline (parse on cpu0, publish over link0)
// and an analytics task sharing cpu0, both triggered periodically.
#include <cinttypes>
#include <cstdio>

#include "core/engine.h"
#include "model/evaluation.h"
#include "workloads/paper.h"  // only for style reference; not required

using namespace lla;

int main() {
  // 1. Describe the resources.  Capacity is the fraction available to the
  //    managed tasks; lag is the proportional-share scheduling overhead.
  std::vector<ResourceSpec> resources = {
      {"cpu0", ResourceKind::kCpu, /*capacity=*/0.9, /*lag_ms=*/1.0},
      {"link0", ResourceKind::kNetworkLink, 1.0, 0.5},
  };

  // 2. Describe the tasks.  Each subtask names the resource it consumes and
  //    its worst-case execution (or transmission) time.  min_share is the
  //    sustainable floor (arrival rate x WCET) that keeps queues bounded.
  TaskSpec pipeline;
  pipeline.name = "market-pipeline";
  pipeline.critical_time_ms = 40.0;
  pipeline.subtasks = {
      {"parse", ResourceId(0u), /*wcet_ms=*/4.0, /*min_share=*/0.08},
      {"publish", ResourceId(1u), 6.0, 0.12},
  };
  pipeline.edges = {{0, 1}};  // parse -> publish
  // Utility: how much a given end-to-end latency is worth.  f(x) = 2C - x
  // is the paper's elastic shape: every millisecond saved adds benefit.
  pipeline.utility = MakePaperSimUtility(pipeline.critical_time_ms);
  pipeline.trigger = TriggerSpec::Periodic(50.0);

  TaskSpec analytics;
  analytics.name = "analytics";
  analytics.critical_time_ms = 200.0;
  analytics.subtasks = {{"model-update", ResourceId(0u), 9.0, 0.09}};
  analytics.utility = MakePaperSimUtility(analytics.critical_time_ms);
  analytics.trigger = TriggerSpec::Periodic(100.0);

  // 3. Validate and build the workload.
  auto workload = Workload::Create(resources, {pipeline, analytics});
  if (!workload.ok()) {
    std::printf("invalid workload: %s\n", workload.error().c_str());
    return 1;
  }
  const Workload& w = workload.value();

  // 4. Run the optimizer.  LatencyModel holds the share model (Eq. 10);
  //    the engine iterates latency allocation + price computation until
  //    the utility settles.
  LatencyModel model(w);
  LlaConfig config;  // adaptive step sizes by default
  LlaEngine engine(w, model, config);
  const RunResult result = engine.Run(/*max_iterations=*/5000);

  std::printf("converged: %s (after %" PRId64 " iterations)\n",
              result.converged ? "yes" : "no", result.iterations);
  std::printf("total utility: %.2f\n\n", result.final_utility);

  // 5. Read the assignment: per-subtask latency budgets and the shares to
  //    enact in the proportional-share schedulers.
  std::printf("%-28s %12s %10s\n", "subtask", "latency(ms)", "share");
  for (const SubtaskInfo& sub : w.subtasks()) {
    const double latency = engine.latencies()[sub.id.value()];
    std::printf("%-28s %12.2f %10.3f\n", sub.name.c_str(), latency,
                model.share(sub.id).Share(latency));
  }

  std::printf("\n%-28s %14s %14s\n", "task", "end-to-end(ms)",
              "critical time");
  for (const TaskInfo& task : w.tasks()) {
    std::printf("%-28s %14.2f %14.1f\n", task.name.c_str(),
                CriticalPathLatency(w, task.id, engine.latencies()),
                task.critical_time_ms);
  }

  std::printf("\n%-28s %12s\n", "resource", "share sum");
  const FeasibilityReport report = engine.Feasibility();
  for (const ResourceInfo& resource : w.resources()) {
    std::printf("%-28s %9.3f / %.2f\n", resource.name.c_str(),
                report.resource_share_sums[resource.id.value()],
                resource.capacity);
  }
  return 0;
}
