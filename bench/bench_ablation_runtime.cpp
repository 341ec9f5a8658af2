// Ablation of the distributed deployment (Sec. 4.1 / 4.4 claims):
//   * synchronous rounds vs the single-process engine (identical optimum);
//   * asynchronous execution under growing network delay, jitter and loss
//     (robustness of the price protocol);
//   * enactment policy: how few allocation changes the executing system
//     actually sees, and the message/byte cost of the protocol.
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "core/engine.h"
#include "runtime/coordinator.h"
#include "workloads/paper.h"

using namespace lla;
using namespace lla::runtime;

int main() {
  bench::PrintHeader(
      "bench_ablation_runtime — distributed deployment ablation",
      "Sec. 4.1 (distributed protocol), Sec. 4.4 (enactment/batch, "
      "overhead)",
      "sync rounds match the single-process optimum; async converges to the "
      "same value under delay/jitter/loss; enactments are sparse after "
      "convergence");

  auto workload = MakeSimWorkload();
  const Workload& w = workload.value();

  // Reference: single-process engine.
  double engine_utility = 0.0;
  {
    LatencyModel model(w);
    LlaConfig config = bench::PaperLlaConfig();
    config.gamma0 = 3.0;
    config.record_history = false;
    LlaEngine engine(w, model, config);
    engine_utility = engine.Run(12000).final_utility;
    std::printf("\nsingle-process engine utility: %.4f\n", engine_utility);
  }

  // Synchronous distributed rounds.
  {
    LatencyModel model(w);
    CoordinatorConfig config;
    config.step.gamma0 = 3.0;
    config.bus.base_delay_ms = 0.0;
    Coordinator coordinator(w, model, config);
    const RunResult run = coordinator.RunSync(12000);
    const auto& stats = coordinator.bus().stats();
    std::printf("\nsync distributed:  rounds=%" PRId64 " utility=%.4f "
                "(gap to engine %.5f)\n",
                run.iterations, run.final_utility,
                std::fabs(run.final_utility - engine_utility));
    std::printf("  traffic: %llu msgs, %.1f KiB total, %.1f B/round; "
                "enactments=%zu of %zu samples\n",
                static_cast<unsigned long long>(stats.delivered),
                stats.bytes / 1024.0,
                static_cast<double>(stats.bytes) / run.iterations,
                coordinator.enactments().size(),
                coordinator.history().size());
  }

  // Asynchronous under increasing network badness.
  std::printf("\nasync distributed (10 ms agent periods, 150 s virtual "
              "time):\n");
  std::printf("%-34s %12s %10s %10s %12s\n", "network", "utility",
              "converged", "feasible", "msgs dropped");
  struct NetCase {
    const char* label;
    double delay, jitter, drop;
  };
  const NetCase cases[] = {
      {"ideal (0 delay)", 0.0, 0.0, 0.0},
      {"LAN (1 ms +- 2)", 1.0, 2.0, 0.0},
      {"lossy LAN (2% loss)", 1.0, 2.0, 0.02},
      {"WAN (20 ms +- 10)", 20.0, 10.0, 0.0},
      {"bad WAN (20 ms, 10% loss)", 20.0, 10.0, 0.10},
  };
  for (const NetCase& net : cases) {
    LatencyModel model(w);
    CoordinatorConfig config;
    config.step.gamma0 = 3.0;
    config.bus.base_delay_ms = net.delay;
    config.bus.jitter_ms = net.jitter;
    config.bus.drop_probability = net.drop;
    config.bus.seed = 17;
    Coordinator coordinator(w, model, config);
    coordinator.RunAsync(150000.0);
    std::printf("%-34s %12.4f %10s %10s %12llu\n", net.label,
                coordinator.CurrentUtility(),
                coordinator.Converged() ? "yes" : "no",
                coordinator.CurrentFeasibility().feasible ? "yes" : "no",
                static_cast<unsigned long long>(
                    coordinator.bus().stats().dropped));
  }

  std::printf("\n(The protocol tolerates delay and loss because prices and "
              "latencies are\nabsolute state, not deltas: a dropped update "
              "is repaired by the next one.)\n");
  return 0;
}
