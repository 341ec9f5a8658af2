// Ablation: the two tractable utility variants of Sec. 3.2 (sum vs
// path-weighted) and the Sec. 5.2 claim that both converge equivalently,
// with the critical path landing within 1% of the critical time.  Also
// sweeps the utility *shape* (linear / quadratic / neg-exponential) as an
// extension beyond the paper's linear-only experiments.
#include <cstdio>

#include "bench_util.h"
#include "core/engine.h"
#include "model/utility.h"
#include "workloads/paper.h"
#include "workloads/transform.h"

using namespace lla;

namespace {

void RunVariant(const char* label, const Workload& w, LlaConfig config) {
  LatencyModel model(w);
  config.record_history = true;
  LlaEngine engine(w, model, config);
  const RunResult run = engine.Run(12000);
  double worst_gap = 0.0;
  for (const TaskInfo& task : w.tasks()) {
    const double crit = CriticalPathLatency(w, task.id, engine.latencies());
    worst_gap =
        std::max(worst_gap, 1.0 - crit / task.critical_time_ms);
  }
  std::printf("%-34s conv=%-3s iters=%6d utility=%10.2f feas=%-3s "
              "max crit-path gap=%.3f%%\n",
              label, run.converged ? "yes" : "no", run.iterations,
              run.final_utility,
              run.final_feasibility.feasible ? "yes" : "no",
              100.0 * worst_gap);
}

}  // namespace

int main() {
  bench::PrintHeader(
      "bench_ablation_utility — sum vs path-weighted, utility shapes",
      "Sec. 3.2 / 5.2 (variants; critical path within 1% of critical time)",
      "both variants converge to feasible optima; critical paths within ~1% "
      "of the deadlines; nonlinear concave shapes also converge (extension)");

  auto workload = MakeSimWorkload();
  const Workload& w = workload.value();

  std::printf("\nvariant ablation (linear utility f = 2C - x):\n");
  {
    LlaConfig config = bench::PaperLlaConfig();
    config.gamma0 = 3.0;
    config.solver.variant = UtilityVariant::kPathWeighted;
    RunVariant("path-weighted", w, config);
  }
  {
    LlaConfig config = bench::PaperLlaConfig();
    config.gamma0 = 3.0;
    config.solver.variant = UtilityVariant::kSum;
    RunVariant("sum", w, config);
  }

  std::printf("\nutility shape extension (path-weighted):\n");
  // Rebuild the workload with different concave shapes per task.
  struct ShapeCase {
    const char* label;
    Utility (*make)(double critical);
  };
  const ShapeCase shapes[] = {
      {"linear f = 2C - x",
       [](double critical) { return MakePaperSimUtility(critical); }},
      {"quadratic f = 2C - x^2/C",
       [](double critical) {
         return Utility::Power(2.0 * critical, 1.0 / critical, 2.0);
       }},
      {"neg-exp f = 2C - e^(x/3C)*3C",
       [](double critical) {
         // A rate of 1/C is numerically explosive over the solver's full
         // latency bracket (slope ~ e^40 far from the optimum destabilizes
         // the price dynamics); 1/(3C) keeps the same qualitative shape.
         return Utility::NegExp(2.0 * critical, 1.0 / (3.0 * critical));
       }},
      {"inelastic plateau to 0.6C",
       [](double critical) {
         return Utility::Inelastic(critical, 0.6 * critical, 2.0 / critical);
       }},
  };
  for (const ShapeCase& shape : shapes) {
    // Replace each task's utility with the shaped one.  Rebuilding from
    // specs keeps validation in force.
    auto shaped = Rebuild(w, nullptr, [&](TaskId, TaskSpec& spec) {
      spec.utility = shape.make(spec.critical_time_ms);
    });
    if (!shaped.ok()) {
      std::printf("%-34s workload error: %s\n", shape.label,
                  shaped.error().c_str());
      continue;
    }
    LlaConfig config = bench::PaperLlaConfig();
    config.gamma0 = 3.0;
    RunVariant(shape.label, shaped.value(), config);
  }
  return 0;
}
