// Reproduces Table 1: converged subtask latencies and critical paths for the
// 3-task simulation workload, next to the paper's published values.
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "core/engine.h"
#include "model/evaluation.h"
#include "solver/kkt.h"
#include "workloads/paper.h"

using namespace lla;

int main() {
  bench::PrintHeader(
      "bench_table1 — converged latency assignment",
      "Table 1 (task parameters and optimization results)",
      "all 8 resources saturate (share sums ~1.0); every critical path lands "
      "within 1% of its critical time; latencies in the same range as the "
      "published ones");

  auto workload = MakeSimWorkload();
  if (!workload.ok()) {
    std::printf("workload error: %s\n", workload.error().c_str());
    return 1;
  }
  const Workload& w = workload.value();
  LatencyModel model(w);
  LlaConfig config = bench::PaperLlaConfig();
  config.convergence.rel_tol = 1e-6;
  LlaEngine engine(w, model, config);
  const RunResult run = engine.Run(12000);

  std::printf("\nconverged=%s after %" PRId64 " iterations, total utility %.3f "
              "(path-weighted)\n\n",
              run.converged ? "yes" : "no", run.iterations,
              run.final_utility);

  std::printf("%-20s %10s %12s %12s\n", "subtask", "exec(ms)", "lat LLA(ms)",
              "lat paper(ms)");
  const auto& reference = GetTable1Reference();
  for (const SubtaskInfo& sub : w.subtasks()) {
    std::printf("%-20s %10.1f %12.2f %12.2f\n", sub.name.c_str(), sub.wcet_ms,
                engine.latencies()[sub.id.value()],
                reference.latencies_ms[sub.id.value()]);
  }

  std::printf("\n%-20s %12s %14s %16s\n", "task", "crit time",
              "crit path LLA", "crit path paper");
  for (const TaskInfo& task : w.tasks()) {
    const double crit = CriticalPathLatency(w, task.id, engine.latencies());
    std::printf("%-20s %12.1f %14.2f %16.1f   (%.2f%% below deadline)\n",
                task.name.c_str(), task.critical_time_ms, crit,
                reference.critical_paths_ms[task.id.value()],
                100.0 * (1.0 - crit / task.critical_time_ms));
  }

  std::printf("\n%-12s %12s %10s\n", "resource", "share sum", "price mu");
  const FeasibilityReport report = engine.Feasibility();
  for (const ResourceInfo& resource : w.resources()) {
    std::printf("%-12s %12.4f %10.2f\n", resource.name.c_str(),
                report.resource_share_sums[resource.id.value()],
                engine.prices().mu[resource.id.value()]);
  }

  LatencySolver solver(w, model, config.solver);
  const KktReport kkt = CheckKkt(w, model, solver, engine.latencies(),
                                 engine.prices(), config.solver.variant);
  std::printf("\nKKT residuals: %s\n", kkt.Summary().c_str());
  return 0;
}
