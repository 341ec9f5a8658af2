// Reproduces Figure 8 / Sec. 6: the prototype experiment with online model
// error correction, on the discrete-event substrate.
//
// 4 linear tasks x 3 subtasks over 3 CPUs (capacity 0.9 each; 0.1 modeled
// as an always-backlogged garbage-collector flow).  Fast tasks: WCET 5 ms,
// 40/s, C=105 ms.  Slow tasks: WCET 13 ms, 10/s, C=800 ms.  f(lat) = -lat.
//
// Paper observations to reproduce in shape:
//   * uncorrected optimizer holds fast shares above their sustainable
//     minimum to meet the 105 ms deadline under the conservative model
//     (paper observed 0.26; the exact theoretical equilibrium is 0.2857);
//   * once error correction learns the (negative) prediction error, fast
//     shares drop to the 0.2 minimum and slow shares absorb the surplus
//     (0.25); paper: -23% / +32%.
#include <cstdio>
#include <cstring>

#include "bench_util.h"
#include "correction/closed_loop.h"
#include "obs/trace.h"
#include "workloads/paper.h"

using namespace lla;
using namespace lla::correction;

int main(int argc, char** argv) {
  std::string trace_path = "BENCH_fig8_prototype.jsonl";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_path = argv[i] + 12;
    } else {
      std::fprintf(stderr, "usage: %s [--trace-out=path.jsonl]\n", argv[0]);
      return 2;
    }
  }

  bench::PrintHeader(
      "bench_fig8_prototype — online model error correction",
      "Figure 8 / Sec. 6.4 (system experiment with model error correction)",
      "fast share: ~0.286 uncorrected -> 0.20 corrected (paper 0.26 -> "
      "0.20); slow share: ~0.164 -> 0.25 (paper 0.19 -> 0.25); errors "
      "negative, mean-stable after convergence");

  auto workload = MakePrototypeWorkload();
  if (!workload.ok()) {
    std::printf("workload error: %s\n", workload.error().c_str());
    return 1;
  }
  const Workload& w = workload.value();

  ClosedLoopConfig config;
  config.lla = bench::PaperLlaConfig();
  config.lla.gamma0 = 3.0;
  config.lla.record_history = false;
  config.sim.duration_ms = 20000.0;
  config.epochs = 16;
  config.enable_correction_at_epoch = 5;
  ClosedLoop loop(w, config);
  const auto records = loop.Run();

  // The Figure 8 series (per-epoch shares, prediction errors, measured vs
  // predicted latency) stream to the trace file as "epoch" events instead of
  // an ad-hoc table; the console keeps only the derived summary.
  obs::JsonlTraceSink sink(trace_path);
  if (!sink.ok()) {
    std::fprintf(stderr, "cannot open %s for writing\n", trace_path.c_str());
    return 1;
  }
  obs::RunInfo info;
  info.label = "fig8 additive correction";
  info.resource_count = w.resource_count();
  info.path_count = w.path_count();
  sink.OnRunBegin(info);
  for (const auto& r : records) {
    obs::TraceEvent event;
    event.type = "epoch";
    event.fields = {{"epoch", static_cast<double>(r.epoch)},
                    {"correction_active", r.correction_active ? 1.0 : 0.0},
                    {"fast_share", r.shares[0]},
                    {"slow_share", r.shares[6]},
                    {"fast_error_ms", r.errors_ms[0]},
                    {"slow_error_ms", r.errors_ms[6]},
                    {"fast_measured_ms", r.measured_ms[0]},
                    {"fast_predicted_ms", r.predicted_ms[0]}};
    sink.OnEvent(event);
  }
  sink.OnRunEnd();
  if (!sink.ok()) {
    std::fprintf(stderr, "error writing %s\n", trace_path.c_str());
    return 1;
  }

  std::printf("\n(one epoch = one 20 s observation window; correction "
              "enabled at epoch %d; per-epoch series written to %s)\n",
              config.enable_correction_at_epoch, trace_path.c_str());

  const auto& before = records[config.enable_correction_at_epoch - 1];
  const auto& after = records.back();
  const double fast_change =
      100.0 * (after.shares[0] - before.shares[0]) / before.shares[0];
  const double slow_change =
      100.0 * (after.shares[6] - before.shares[6]) / before.shares[6];
  std::printf("\nsummary:\n");
  std::printf("  fast subtask share: %.4f -> %.4f  (%+.0f%%; paper: 0.26 -> "
              "0.20, -23%%)\n",
              before.shares[0], after.shares[0], fast_change);
  std::printf("  slow subtask share: %.4f -> %.4f  (%+.0f%%; paper: 0.19 -> "
              "0.25, +32%%)\n",
              before.shares[6], after.shares[6], slow_change);
  std::printf("  fast tasks end at their sustainable minimum share "
              "(0.2 = 40/s x 5 ms), as in the paper.\n");

  // Extension ablation: additive correction (the paper's Sec. 6.3) vs full
  // online model fitting (RLS over (share, latency) pairs).  The fitter
  // learns the true effective work, under which the fast deadline no longer
  // binds and the optimizer saturates the CPUs at a distinct equilibrium.
  {
    ClosedLoopConfig fitted_config = config;
    fitted_config.mode = CorrectionMode::kFitted;
    fitted_config.fitter.min_samples = 2;
    fitted_config.fitter.min_regressor_spread = 0.02;
    ClosedLoop fitted_loop(w, fitted_config);
    const auto fitted_records = fitted_loop.Run();
    const auto& fit_after = fitted_records.back();
    const auto model_error = [](const EpochRecord& r, int s) {
      return 100.0 * (r.predicted_ms[s] - r.measured_ms[s]) /
             r.measured_ms[s];
    };
    std::printf("\ncorrection-strategy ablation (final epoch):\n");
    std::printf("%-22s %10s %10s %18s %18s\n", "strategy", "fast sh",
                "slow sh", "fast pred-vs-meas", "slow pred-vs-meas");
    std::printf("%-22s %10.4f %10.4f %17.1f%% %17.1f%%\n",
                "additive (paper)", after.shares[0], after.shares[6],
                model_error(after, 0), model_error(after, 6));
    std::printf("%-22s %10.4f %10.4f %17.1f%% %17.1f%%\n",
                "fitted (extension)", fit_after.shares[0],
                fit_after.shares[6], model_error(fit_after, 0),
                model_error(fit_after, 6));
    std::printf("(the fitted model predicts measured latency almost "
                "exactly, so the optimizer\n stops over-protecting the fast "
                "tasks and balances marginal latencies instead)\n");
  }

  // Deadline check under the corrected allocation: simulate once more and
  // report the end-to-end percentiles.
  sim::SimConfig sim_config = config.sim;
  sim_config.seed = 999;
  sim::SystemSimulator simulator(w, sim_config);
  const sim::SimResult result = simulator.Run(after.shares);
  std::printf("\nmeasured end-to-end latency under the corrected allocation "
              "(p50 / p95 / p99 vs critical time):\n");
  for (const TaskInfo& task : w.tasks()) {
    const auto& q = result.task_latencies[task.id.value()];
    std::printf("  %-8s %7.1f / %7.1f / %7.1f ms  (C = %.0f ms)\n",
                task.name.c_str(), q.Value(0.50), q.Value(0.95),
                q.Value(0.99), task.critical_time_ms);
  }
  return 0;
}
