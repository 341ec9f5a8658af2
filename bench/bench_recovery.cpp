// Measures crash-restart recovery cost (DESIGN.md §7.7): how many protocol
// rounds the optimizer needs to get back to the converged operating point
// after a node loses its dual state, comparing
//   * a COLD restart — total state loss, re-convergence from zero prices
//     (distributed: plus the peer repair exchange) — against
//   * a CHECKPOINTED restart — the dual state is restored from the last
//     periodic StateSnapshot, so re-convergence only has to replay the
//     trajectory from the snapshot's iteration (bounded staleness).
//
// Two layers:
//   1. Engine: a twin run checkpoints every kCheckpointInterval iterations
//      through the durable b1 serialization; at convergence the engine
//      "crashes" and the last snapshot restores into a fresh engine.
//      Because Restore resumes the dense trajectory bit-identically, the
//      restarted run re-converges in exactly (staleness) rounds versus the
//      full cold iteration count.
//   2. Distributed runtime: a resource of the async deployment (one shard
//      agent per resource) is crashed inside its shard and restarted cold
//      (repair exchange, incarnation-gated stale rejection) vs. from a
//      CheckpointResource snapshot; recovery is counted in monitor periods
//      until the resource's price is back at its pre-crash value.
//
// Acceptance bar: the checkpointed restart re-converges in STRICTLY fewer
// rounds than the cold restart, in every scenario of both layers.
//
// Writes BENCH_recovery.json for the perf trajectory.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "model/serialization.h"
#include "obs/metrics.h"
#include "runtime/coordinator.h"
#include "workloads/paper.h"
#include "workloads/random.h"

using namespace lla;

namespace {

constexpr int kMaxIterations = 12000;
/// The engine layer's periodic checkpoint cadence — the bounded staleness a
/// restarted node can lose is at most this many rounds of progress.
constexpr int kCheckpointInterval = 50;

/// The proven converging configuration (same as bench_convergence): the
/// recovery comparison needs runs that actually terminate at the criterion.
LlaConfig ConvergingConfig() {
  LlaConfig config;
  config.step_policy = StepPolicyKind::kAdaptive;
  config.gamma0 = 3.0;
  config.record_history = false;
  config.active_set.enabled = true;
  return config;
}

struct RestartRun {
  bool converged = false;
  int rounds = 0;  ///< iterations executed AFTER the restart
  double wall_ms = 0.0;
  double final_utility = 0.0;
};

void PrintRestart(const char* label, const RestartRun& run) {
  std::printf("  %-26s %6d rounds  %8.2f ms  utility %.6f%s\n", label,
              run.rounds, run.wall_ms, run.final_utility,
              run.converged ? "" : "  [DID NOT CONVERGE]");
}

bench::JsonValue RestartJson(const RestartRun& run) {
  return bench::JsonValue::Object()
      .Add("converged", bench::JsonValue::Bool(run.converged))
      .Add("rounds", bench::JsonValue::Number(static_cast<double>(run.rounds)))
      .Add("wall_ms", bench::JsonValue::Number(run.wall_ms))
      .Add("final_utility", bench::JsonValue::Number(run.final_utility));
}

/// Engine layer: cold re-convergence vs. restore-from-last-checkpoint.
/// Returns false when the scenario misses the acceptance bar.
bool RunEngineScenario(const std::string& name, const Workload& workload,
                       bench::JsonValue* results) {
  std::printf("\n%s: %zu tasks, %zu subtasks, %zu resources\n", name.c_str(),
              workload.task_count(), workload.subtask_count(),
              workload.resource_count());
  LatencyModel model(workload);

  // Cold restart: the node lost everything and no snapshot exists, so the
  // whole convergence is paid again.
  RestartRun cold;
  {
    LlaEngine engine(workload, model, ConvergingConfig());
    const auto start = std::chrono::steady_clock::now();
    const RunResult result = engine.Run(kMaxIterations);
    const auto stop = std::chrono::steady_clock::now();
    cold.converged = result.converged;
    cold.rounds = result.iterations;
    cold.wall_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    cold.final_utility = result.final_utility;
  }
  PrintRestart("cold restart", cold);

  // Checkpoint discipline: a twin run snapshots every kCheckpointInterval
  // iterations through the durable b1 format (what a real deployment would
  // fsync), then crashes at convergence and restores the last one.
  LlaEngine primary(workload, model, ConvergingConfig());
  StateSnapshot last_checkpoint = primary.Checkpoint();
  while (!primary.Converged() && primary.iteration() < kMaxIterations) {
    primary.Step();
    if (primary.iteration() % kCheckpointInterval == 0) {
      last_checkpoint = primary.Checkpoint();
    }
  }
  const int crash_iteration = primary.iteration();
  const int staleness = crash_iteration - last_checkpoint.iteration;

  auto bytes = SaveSnapshotToString(last_checkpoint);
  if (!bytes.ok()) {
    std::printf("  snapshot serialization failed: %s\n",
                bytes.error().c_str());
    return false;
  }
  const std::size_t snapshot_bytes = bytes.value().size();

  RestartRun checkpointed;
  {
    const auto start = std::chrono::steady_clock::now();
    auto loaded = LoadSnapshotFromString(bytes.value(), workload);
    if (!loaded.ok()) {
      std::printf("  snapshot load failed: %s\n", loaded.error().c_str());
      return false;
    }
    LlaEngine restored(workload, model, ConvergingConfig());
    const Status status = restored.Restore(std::move(loaded).value());
    if (!status.ok()) {
      std::printf("  restore failed: %s\n", status.error().c_str());
      return false;
    }
    const RunResult result = restored.Run(kMaxIterations);
    const auto stop = std::chrono::steady_clock::now();
    checkpointed.converged = result.converged;
    checkpointed.rounds = result.iterations - last_checkpoint.iteration;
    checkpointed.wall_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    checkpointed.final_utility = result.final_utility;
  }
  PrintRestart("checkpointed restart", checkpointed);
  std::printf("  checkpoint every %d rounds, staleness at crash %d rounds, "
              "snapshot %zu bytes\n",
              kCheckpointInterval, staleness, snapshot_bytes);

  // Restore resumes bit-identically, so the restarted run must land on the
  // exact utility of the uninterrupted one, not just nearby.
  const bool bit_identical =
      checkpointed.final_utility == cold.final_utility;
  if (!bit_identical) {
    std::printf("  MISMATCH: restored run diverged from cold trajectory "
                "(utility %.17g vs %.17g)\n",
                checkpointed.final_utility, cold.final_utility);
  }
  const bool pass = cold.converged && checkpointed.converged &&
                    bit_identical && checkpointed.rounds < cold.rounds;
  std::printf("  checkpointed %d < cold %d rounds: %s\n", checkpointed.rounds,
              cold.rounds, pass ? "yes" : "NO");

  results->Push(
      bench::JsonValue::Object()
          .Add("workload", bench::JsonValue::String(name))
          .Add("checkpoint_interval",
               bench::JsonValue::Number(kCheckpointInterval))
          .Add("staleness_rounds",
               bench::JsonValue::Number(static_cast<double>(staleness)))
          .Add("snapshot_bytes",
               bench::JsonValue::Number(static_cast<double>(snapshot_bytes)))
          .Add("bit_identical_resume", bench::JsonValue::Bool(bit_identical))
          .Add("cold", RestartJson(cold))
          .Add("checkpointed", RestartJson(checkpointed)));
  return pass;
}

/// Distributed layer configuration, mirroring the crash-restart tests: a
/// grace window covering the repair round trip under heavy jitter, so the
/// cold restart's repair exchange (and the stale rejection it triggers) is
/// actually exercised.
runtime::CoordinatorConfig AsyncRecoveryConfig(obs::MetricRegistry* metrics) {
  runtime::CoordinatorConfig config;
  config.step.gamma0 = 3.0;
  config.step.repair_grace_ticks = 12;
  config.bus.base_delay_ms = 1.0;
  config.bus.jitter_ms = 60.0;
  config.bus.seed = 13;
  config.metrics = metrics;
  return config;
}

struct DistributedRun {
  bool recovered = false;
  int monitor_rounds = 0;  ///< monitor periods until the price is back
  double ms_to_recovery = 0.0;
  std::uint64_t repair_rounds = 0;
  std::uint64_t stale_rejected = 0;
  bool reconverged = false;
  double utility_rel_err = 0.0;
};

bench::JsonValue DistributedJson(const DistributedRun& run) {
  return bench::JsonValue::Object()
      .Add("recovered", bench::JsonValue::Bool(run.recovered))
      .Add("monitor_rounds",
           bench::JsonValue::Number(static_cast<double>(run.monitor_rounds)))
      .Add("ms_to_recovery", bench::JsonValue::Number(run.ms_to_recovery))
      .Add("repair_rounds",
           bench::JsonValue::Number(static_cast<double>(run.repair_rounds)))
      .Add("stale_rejected",
           bench::JsonValue::Number(static_cast<double>(run.stale_rejected)))
      .Add("reconverged", bench::JsonValue::Bool(run.reconverged))
      .Add("utility_rel_err", bench::JsonValue::Number(run.utility_rel_err));
}

/// Crashes resource 0 of a converged async deployment and restarts it cold
/// or from a snapshot; recovery is counted in monitor periods until the
/// resource's published price is back within 1e-6 of its pre-crash value.
DistributedRun RunDistributed(const Workload& workload,
                              const LatencyModel& model, bool checkpointed) {
  obs::MetricRegistry metrics;
  runtime::Coordinator coordinator(workload, model,
                                   AsyncRecoveryConfig(&metrics));
  coordinator.RunAsync(250000.0);
  DistributedRun run;
  if (!coordinator.Converged()) return run;

  const ResourceId victim(0u);
  const double utility_before = coordinator.CurrentUtility();
  const runtime::ShardAgent& host = coordinator.shard_of(victim);
  const double mu_before = host.mu(victim);
  const runtime::ResourceAgentSnapshot snapshot =
      coordinator.CheckpointResource(victim);

  coordinator.CrashEndpoint(victim);
  // Short outage: pre-crash prices are still in flight at restart, so the
  // cold path also pays the incarnation-gated stale rejection.
  coordinator.RunAsync(2.0);
  if (checkpointed) {
    coordinator.RestartEndpoint(victim, snapshot);
  } else {
    coordinator.RestartEndpoint(victim);
  }

  const double monitor_period = runtime::kMonitorPeriodMs;
  const int max_rounds = 1000;
  const auto price_recovered = [&] {
    return !host.resource_crashed(victim) &&
           !host.resource_awaiting_repair(victim) &&
           std::fabs(host.mu(victim) - mu_before) <=
               1e-6 * std::max(1.0, std::fabs(mu_before));
  };
  while (run.monitor_rounds < max_rounds && !price_recovered()) {
    coordinator.RunAsync(monitor_period);
    ++run.monitor_rounds;
  }
  run.recovered = price_recovered();
  run.ms_to_recovery = run.monitor_rounds * monitor_period;
  run.repair_rounds = metrics.GetCounter("recovery.repair_rounds")->value();
  run.stale_rejected = metrics.GetCounter("recovery.stale_rejected")->value();

  // Let the deployment settle again and verify the fault left no residue.
  coordinator.RunAsync(250000.0);
  run.reconverged = coordinator.Converged();
  run.utility_rel_err =
      std::fabs(coordinator.CurrentUtility() - utility_before) /
      std::max(1.0, std::fabs(utility_before));
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  bench::PrintHeader(
      "bench_recovery — rounds to re-converge after a crash-restart",
      "crash-restart recovery: durable checkpoints + incarnation-stamped "
      "repair (DESIGN.md §7.7)",
      "checkpointed restart re-converges in strictly fewer rounds than cold "
      "restart, in every scenario (engine and distributed layers)");

  bool pass = true;

  // --- Engine layer.
  bench::JsonValue engine_results = bench::JsonValue::Array();
  auto paper = MakeScaledSimWorkload(1, /*scale_critical_times=*/true);
  if (!paper.ok()) {
    std::printf("workload error: %s\n", paper.error().c_str());
    return 1;
  }
  pass &= RunEngineScenario("paper_3task", paper.value(), &engine_results);

  if (!quick) {
    RandomWorkloadConfig random_config;
    random_config.seed = 42;
    random_config.target_utilization = 0.7;
    auto random_workload = MakeRandomWorkload(random_config);
    if (!random_workload.ok()) {
      std::printf("workload error: %s\n", random_workload.error().c_str());
      return 1;
    }
    pass &= RunEngineScenario("random_default", random_workload.value(),
                              &engine_results);
  }

  // --- Distributed layer: async deployment, resource 0 crash-restart.
  auto sim = MakeSimWorkload();
  if (!sim.ok()) {
    std::printf("workload error: %s\n", sim.error().c_str());
    return 1;
  }
  LatencyModel sim_model(sim.value());
  std::printf("\npaper_sim (async deployment): crash + restart of resource 0\n");
  const DistributedRun cold = RunDistributed(sim.value(), sim_model, false);
  const DistributedRun ckpt = RunDistributed(sim.value(), sim_model, true);
  std::printf("  %-26s %6d monitor rounds (%.0f ms)  repair_rounds %llu  "
              "stale_rejected %llu  rel_err %.2e%s\n",
              "cold restart", cold.monitor_rounds, cold.ms_to_recovery,
              static_cast<unsigned long long>(cold.repair_rounds),
              static_cast<unsigned long long>(cold.stale_rejected),
              cold.utility_rel_err,
              cold.recovered && cold.reconverged ? "" : "  [DID NOT RECOVER]");
  std::printf("  %-26s %6d monitor rounds (%.0f ms)  repair_rounds %llu  "
              "stale_rejected %llu  rel_err %.2e%s\n",
              "checkpointed restart", ckpt.monitor_rounds, ckpt.ms_to_recovery,
              static_cast<unsigned long long>(ckpt.repair_rounds),
              static_cast<unsigned long long>(ckpt.stale_rejected),
              ckpt.utility_rel_err,
              ckpt.recovered && ckpt.reconverged ? "" : "  [DID NOT RECOVER]");
  const bool distributed_pass = cold.recovered && cold.reconverged &&
                                ckpt.recovered && ckpt.reconverged &&
                                ckpt.monitor_rounds < cold.monitor_rounds;
  std::printf("  checkpointed %d < cold %d monitor rounds: %s\n",
              ckpt.monitor_rounds, cold.monitor_rounds,
              distributed_pass ? "yes" : "NO");
  pass &= distributed_pass;

  std::printf("\nacceptance gate (checkpointed < cold in every scenario): %s\n",
              pass ? "PASS" : "FAIL");

  bench::JsonValue root =
      bench::BenchReportRoot("recovery", "rounds_to_reconverge", quick);
  root.Add("checkpoint_beats_cold", bench::JsonValue::Bool(pass));
  root.Add("results",
           bench::JsonValue::Object()
               .Add("engine", std::move(engine_results))
               .Add("distributed",
                    bench::JsonValue::Object()
                        .Add("workload", bench::JsonValue::String("paper_sim"))
                        .Add("cold", DistributedJson(cold))
                        .Add("checkpointed", DistributedJson(ckpt))));
  if (bench::EmitBenchReport("BENCH_recovery.json", root) != 0) return 1;
  return pass ? 0 : 1;
}
