// Program trading (the paper's motivating application, Sec. 1): market data
// fan-out, strategy analysis and order submission compete for CPUs and
// network links.  Demonstrates LLA's adaptivity: when a link degrades at
// runtime, the continuously-running optimizer re-prices it and shifts
// latency budgets — the elastic analytics task absorbs the loss, the
// order path keeps its deadline.
#include <cstdio>

#include "core/engine.h"
#include "model/evaluation.h"
#include "model/workload.h"

using namespace lla;

namespace {

Expected<Workload> BuildTradingSystem(double feed_link_capacity) {
  std::vector<ResourceSpec> resources = {
      {"feed-handler-cpu", ResourceKind::kCpu, 0.95, 1.0},   // r0
      {"feed-link", ResourceKind::kNetworkLink, feed_link_capacity, 0.5},
      {"strategy-cpu", ResourceKind::kCpu, 0.95, 1.0},       // r2
      {"order-link", ResourceKind::kNetworkLink, 1.0, 0.5},  // r3
      {"gateway-cpu", ResourceKind::kCpu, 0.9, 1.0},         // r4
  };

  // Market data task: decode ticks, multicast to strategy + risk engines.
  TaskSpec market_data;
  market_data.name = "market-data";
  market_data.critical_time_ms = 20.0;
  market_data.subtasks = {
      {"decode", ResourceId(0u), 2.0, 0.10},
      {"fanout", ResourceId(1u), 3.0, 0.15},
      {"strategy-ingest", ResourceId(2u), 2.5, 0.12},
  };
  market_data.edges = {{0, 1}, {1, 2}};
  market_data.utility = MakePaperSimUtility(20.0);
  market_data.trigger = TriggerSpec::Poisson(50.0);

  // Order path: strategy decision -> order link -> exchange gateway.
  TaskSpec orders;
  orders.name = "order-path";
  orders.critical_time_ms = 15.0;
  orders.subtasks = {
      {"decision", ResourceId(2u), 2.0, 0.10},
      {"order-wire", ResourceId(3u), 2.0, 0.08},
      {"gateway", ResourceId(4u), 2.5, 0.10},
  };
  orders.edges = {{0, 1}, {1, 2}};
  // Orders are the most valuable traffic: steeper slope.
  orders.utility = Utility::Linear(4.0 * 15.0, 3.0);
  orders.trigger = TriggerSpec::Bursty(100.0, 4, 2.0);

  // Risk/analytics: elastic background consumer of the same fabric.
  TaskSpec analytics;
  analytics.name = "risk-analytics";
  analytics.critical_time_ms = 120.0;
  analytics.subtasks = {
      {"risk-ingest", ResourceId(1u), 2.0, 0.05},
      {"risk-model", ResourceId(4u), 8.0, 0.08},
  };
  analytics.edges = {{0, 1}};
  analytics.utility = MakePaperSimUtility(120.0);
  analytics.trigger = TriggerSpec::Periodic(100.0);

  return Workload::Create(std::move(resources),
                          {market_data, orders, analytics});
}

void Report(const Workload& w, const LatencyModel& model,
            const LlaEngine& engine) {
  std::printf("%-22s %10s %8s   %-18s %12s\n", "subtask", "lat(ms)", "share",
              "task", "e2e/deadline");
  for (const TaskInfo& task : w.tasks()) {
    for (SubtaskId sid : task.subtasks) {
      const SubtaskInfo& sub = w.subtask(sid);
      const double latency = engine.latencies()[sid.value()];
      const bool first = sid == task.subtasks.front();
      char e2e[48] = "";
      if (first) {
        std::snprintf(e2e, sizeof(e2e), "%.1f / %.0f ms",
                      CriticalPathLatency(w, task.id, engine.latencies()),
                      task.critical_time_ms);
      }
      std::printf("%-22s %10.2f %8.3f   %-18s %12s\n", sub.name.c_str(),
                  latency, model.share(sid).Share(latency),
                  first ? task.name.c_str() : "", e2e);
    }
  }
}

}  // namespace

int main() {
  std::printf("== program trading: latency assignment across a trading "
              "fabric ==\n\n");

  auto workload = BuildTradingSystem(/*feed_link_capacity=*/1.0);
  if (!workload.ok()) {
    std::printf("workload error: %s\n", workload.error().c_str());
    return 1;
  }
  {
    const Workload& w = workload.value();
    LatencyModel model(w);
    LlaEngine engine(w, model, LlaConfig{});
    const RunResult result = engine.Run(8000);
    std::printf("healthy fabric (feed link at 100%%), utility %.2f, "
                "converged=%s:\n\n",
                result.final_utility, result.converged ? "yes" : "no");
    Report(w, model, engine);
  }

  // The feed link loses 40% of its capacity (failover onto a backup with
  // less headroom).  LLA runs continuously; here we simply rebuild and
  // re-optimize — in the distributed runtime the resource agent would just
  // report a smaller B_r and prices would adapt in place.
  auto degraded = BuildTradingSystem(/*feed_link_capacity=*/0.6);
  {
    const Workload& w = degraded.value();
    LatencyModel model(w);
    LlaEngine engine(w, model, LlaConfig{});
    const RunResult result = engine.Run(8000);
    std::printf("\ndegraded feed link (60%% capacity), utility %.2f, "
                "converged=%s:\n\n",
                result.final_utility, result.converged ? "yes" : "no");
    Report(w, model, engine);
    std::printf(
        "\nNote how the fan-out and risk-ingest latencies grew (the link is "
        "now\nexpensive) while the order path kept its budget — its utility "
        "slope is\nsteepest, so LLA protects it.\n");
  }
  return 0;
}
