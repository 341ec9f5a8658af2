// Measures convergence WORK, not per-step throughput: how many subtask
// solves (and how much wall time) the optimizer needs to reach convergence,
// comparing
//   * a cold run with work reporting off (active_set.enabled = false)
//     against
//   * a cold run with it on (the same trajectory bit for bit and the same
//     solve count: every step solves every subtask) and
//   * warm restarts after realistic online events — a single subtask's WCET
//     estimate moving (error correction), a task leaving the system, and a
//     resource capacity change — where WarmStart carries the previous
//     optimum's prices, so re-convergence takes fewer steps, and
//   * the accelerated price dynamics axis (DESIGN.md §7.8): plain vs.
//     heavy-ball vs. Nesterov momentum on the same workloads, cold and
//     across a warm WCET restart.  Two numbers per run: iterations to the
//     run's OWN convergence, and iterations to reach the PLAIN baseline's
//     final utility (quality-matched).  The distinction matters: momentum
//     keeps the utility moving past the plateau detector's epsilon, so an
//     accelerated run often stops later but at a measurably BETTER feasible
//     utility than plain — e.g. the paper warm restart surpasses plain's
//     final utility within a handful of iterations and then spends ~200
//     more improving on it.  Raw iterations-to-converge would book that
//     extra progress as a regression, so the divergence / regression gates
//     compare quality-matched iterations: a run DIVERGES if it never
//     reaches plain's quality or needs > 2x the plain iterations to get
//     there (exits 1 so CI fails); > 1.2x is recorded honestly as a
//     regression.  The headline acceleration gate stays on the stricter raw
//     count: at least one accelerated policy must fully converge cold in
//     >= 1.5x fewer iterations than plain on the paper workload.
//
// This is the paper's online story (Sec. 1 "adapts to both workload and
// resource variations") made quantitative: the acceptance bar is that the
// warm restart after a single-subtask WCET perturbation performs at least
// 5x fewer subtask solves than re-running the dense optimizer from cold.
//
// Accounting: LlaEngine's Reset/WarmStart prime (one dense solve of every
// subtask) is not part of RunResult::subtask_solves, so every scenario here
// adds workload.subtask_count() once — cold and warm runs pay the same
// prime, keeping the comparison symmetric.
//
// Writes BENCH_convergence.json for the perf trajectory.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "runtime/coordinator.h"
#include "workloads/paper.h"
#include "workloads/random.h"
#include "workloads/transform.h"

using namespace lla;

namespace {

constexpr int kMaxIterations = 12000;

struct ConvergenceRun {
  bool converged = false;
  int iterations = 0;
  std::uint64_t subtask_solves = 0;  ///< includes the prime
  double wall_ms = 0.0;
  double final_utility = 0.0;
};

/// Runs `engine` to convergence and charges the prime on top.
ConvergenceRun RunToConvergence(LlaEngine& engine, std::size_t prime_solves) {
  const auto start = std::chrono::steady_clock::now();
  const RunResult result = engine.Run(kMaxIterations);
  const auto stop = std::chrono::steady_clock::now();
  ConvergenceRun run;
  run.converged = result.converged;
  run.iterations = result.iterations;
  run.subtask_solves = prime_solves + result.subtask_solves;
  run.wall_ms = std::chrono::duration<double, std::milli>(stop - start).count();
  run.final_utility = result.final_utility;
  return run;
}

// Not PaperLlaConfig: its adaptive_max_multiplier = 8.0 is tuned for the
// figure reproductions' settling speed and leaves a persistent utility
// oscillation that never trips the convergence test.  This bench is about
// work-to-converge, so it uses the proven converging configuration from the
// warm-start tests (adaptive steps, default multiplier).
LlaConfig ConvergingConfig() {
  LlaConfig config;
  config.step_policy = StepPolicyKind::kAdaptive;
  config.gamma0 = 3.0;
  config.record_history = false;
  return config;
}

LlaConfig DenseConfig() {
  LlaConfig config = ConvergingConfig();
  config.active_set.enabled = false;
  return config;
}

LlaConfig ActiveConfig() {
  LlaConfig config = ConvergingConfig();
  config.active_set.enabled = true;
  return config;
}

void PrintRun(const char* label, const ConvergenceRun& run) {
  std::printf("  %-26s %8llu subtask solves  %5d iters  %8.2f ms  "
              "utility %.4f%s\n",
              label, static_cast<unsigned long long>(run.subtask_solves),
              run.iterations, run.wall_ms, run.final_utility,
              run.converged ? "" : "  [DID NOT CONVERGE]");
}

bench::JsonValue RunJson(const ConvergenceRun& run) {
  return bench::JsonValue::Object()
      .Add("converged", bench::JsonValue::Bool(run.converged))
      .Add("iterations",
           bench::JsonValue::Number(static_cast<double>(run.iterations)))
      .Add("subtask_solves",
           bench::JsonValue::Number(static_cast<double>(run.subtask_solves)))
      .Add("wall_ms", bench::JsonValue::Number(run.wall_ms))
      .Add("final_utility", bench::JsonValue::Number(run.final_utility));
}

/// One scenario record: cold dense baseline vs. the (warm, active) run.
bench::JsonValue ScenarioJson(const std::string& name,
                              const ConvergenceRun& cold_dense,
                              const ConvergenceRun& contender,
                              double solve_ratio) {
  return bench::JsonValue::Object()
      .Add("scenario", bench::JsonValue::String(name))
      .Add("cold_dense", RunJson(cold_dense))
      .Add("contender", RunJson(contender))
      .Add("solve_ratio", bench::JsonValue::Number(solve_ratio));
}

struct ScenarioOutcome {
  double solve_ratio = 0.0;
  bool wcet = false;        ///< counts toward the 5x acceptance gate
  bool structural = false;  ///< counts toward the warm >= cold gate
};

void RunWorkloadCases(const std::string& name, const Workload& workload,
                      bench::JsonValue* results,
                      std::vector<ScenarioOutcome>* outcomes) {
  const std::size_t prime = workload.subtask_count();
  std::printf("\n%s: %zu tasks, %zu subtasks, %zu resources, %zu paths\n",
              name.c_str(), workload.task_count(), workload.subtask_count(),
              workload.resource_count(), workload.path_count());

  bench::JsonValue scenarios = bench::JsonValue::Array();

  // --- Cold start: work reporting off vs. on, same untouched workload.
  // Identical trajectories (bit-for-bit) and identical solve counts.
  LatencyModel model(workload);
  LlaEngine cold_dense_engine(workload, model, DenseConfig());
  const ConvergenceRun cold_dense = RunToConvergence(cold_dense_engine, prime);
  PrintRun("cold dense", cold_dense);

  LlaEngine cold_active_engine(workload, model, ActiveConfig());
  const ConvergenceRun cold_active = RunToConvergence(cold_active_engine, prime);
  PrintRun("cold active-set", cold_active);
  if (cold_active.final_utility != cold_dense.final_utility ||
      cold_active.iterations != cold_dense.iterations) {
    std::printf("  MISMATCH: active-set trajectory diverged from dense "
                "(utility %.17g vs %.17g)\n",
                cold_active.final_utility, cold_dense.final_utility);
    std::exit(1);
  }
  {
    const double ratio = static_cast<double>(cold_dense.subtask_solves) /
                         static_cast<double>(cold_active.subtask_solves);
    std::printf("  cold active-set does %.2fx fewer subtask solves\n", ratio);
    scenarios.Push(ScenarioJson("cold_start", cold_dense, cold_active, ratio));
    outcomes->push_back({ratio, false});
  }

  // The converged operating point every warm restart resumes from.
  const PriceVector optimum = cold_active_engine.prices();

  // --- Single-subtask WCET perturbation (the acceptance-gate scenario):
  // the error corrector refines one subtask's additive WCET error by 10us;
  // the optimum moves only slightly, so a warm restart should re-converge
  // in a handful of iterations touching few subtasks.  (Large perturbations
  // shift the optimum far enough that re-convergence costs as much as a
  // cold start on this dynamics — measured, not assumed.)
  {
    const SubtaskId victim = workload.tasks().front().subtasks.front();
    model.SetAdditiveError(victim, 0.01);

    LlaEngine warm(workload, model, ActiveConfig());
    warm.WarmStart(optimum);
    const ConvergenceRun warm_run = RunToConvergence(warm, prime);

    LlaEngine cold(workload, model, DenseConfig());
    const ConvergenceRun cold_run = RunToConvergence(cold, prime);

    model.SetAdditiveError(victim, 0.0);  // restore for later scenarios

    PrintRun("wcet cold dense", cold_run);
    PrintRun("wcet warm active", warm_run);
    const double ratio = static_cast<double>(cold_run.subtask_solves) /
                         static_cast<double>(warm_run.subtask_solves);
    std::printf("  warm restart does %.2fx fewer subtask solves "
                "(acceptance gate: >= 5x)\n", ratio);
    scenarios.Push(ScenarioJson("wcet_perturbation", cold_run, warm_run, ratio));
    outcomes->push_back({ratio, true});
  }

  // --- Task leave: the last task departs.  WarmStartStructural remaps the
  // old optimum internally (mu 1:1, lambda filtered onto the surviving
  // paths) and applies the selective re-prime policy: closure resources'
  // stale mu is re-seeded so the warm restart no longer pays the
  // slow-decay penalty that used to make this scenario 8x WORSE than cold
  // (the structural gate below keeps it >= 1.0).
  {
    const TaskId removed(static_cast<std::uint32_t>(workload.task_count() - 1));
    auto reduced = WithoutTask(workload, removed);
    if (!reduced.ok()) {
      std::printf("  task-leave transform failed: %s\n",
                  reduced.error().c_str());
    } else {
      const Workload& w2 = reduced.value();
      LatencyModel model2(w2);
      const std::size_t prime2 = w2.subtask_count();

      LlaEngine warm(w2, model2, ActiveConfig());
      const Status seeded = warm.WarmStartStructural(
          workload, optimum, StructuralChange::TaskLeave(removed));
      if (!seeded.ok()) {
        std::printf("  structural warm start failed: %s\n",
                    seeded.error().c_str());
        std::exit(1);
      }
      const ConvergenceRun warm_run = RunToConvergence(warm, prime2);

      LlaEngine cold(w2, model2, DenseConfig());
      const ConvergenceRun cold_run = RunToConvergence(cold, prime2);

      PrintRun("leave cold dense", cold_run);
      PrintRun("leave warm active", warm_run);
      const double ratio = static_cast<double>(cold_run.subtask_solves) /
                           static_cast<double>(warm_run.subtask_solves);
      std::printf("  warm restart does %.2fx fewer subtask solves "
                  "(re-primed %zu/%zu tasks, %zu/%zu resources; structural "
                  "gate: >= 1.0)\n",
                  ratio, warm.last_reprime_tasks(), w2.task_count(),
                  warm.last_reprime_resources(), w2.resource_count());
      scenarios.Push(ScenarioJson("task_leave", cold_run, warm_run, ratio));
      outcomes->push_back({ratio, false, true});
    }
  }

  // --- Capacity change: one resource loses 5% capacity (degraded mode).
  // The price spaces are unchanged, so the old optimum warm-starts directly.
  {
    const ResourceInfo& resource = workload.resources().front();
    auto shrunk =
        WithResourceCapacity(workload, resource.id, resource.capacity * 0.95);
    if (!shrunk.ok()) {
      std::printf("  capacity transform failed: %s\n", shrunk.error().c_str());
    } else {
      const Workload& w2 = shrunk.value();
      LatencyModel model2(w2);

      LlaEngine warm(w2, model2, ActiveConfig());
      warm.WarmStart(optimum);
      const ConvergenceRun warm_run = RunToConvergence(warm, prime);

      LlaEngine cold(w2, model2, DenseConfig());
      const ConvergenceRun cold_run = RunToConvergence(cold, prime);

      PrintRun("capacity cold dense", cold_run);
      PrintRun("capacity warm active", warm_run);
      const double ratio = static_cast<double>(cold_run.subtask_solves) /
                           static_cast<double>(warm_run.subtask_solves);
      std::printf("  warm restart does %.2fx fewer subtask solves\n", ratio);
      scenarios.Push(ScenarioJson("capacity_change", cold_run, warm_run, ratio));
      outcomes->push_back({ratio, false});
    }
  }

  results->Push(
      bench::JsonValue::Object()
          .Add("workload", bench::JsonValue::String(name))
          .Add("tasks", bench::JsonValue::Number(
                            static_cast<double>(workload.task_count())))
          .Add("subtasks", bench::JsonValue::Number(
                               static_cast<double>(workload.subtask_count())))
          .Add("scenarios", std::move(scenarios)));
}

// --- Accelerated dynamics axis -------------------------------------------

double g_momentum = 0.9;  ///< --momentum=X overrides for exploration
/// Distributed-axis momentum (--dist-momentum=X).  Lower than the engine's
/// 0.9 on purpose: the distributed gradient is one round STALE — the share
/// sums an agent differentiates against were computed from latencies the
/// controllers sent a round ago — and momentum amplifies the oscillation
/// that staleness seeds.  Empirically the paper workload's warm capacity
/// re-convergence tolerates beta <= 0.8; 0.7 is the sweet spot (1.8-2.5x),
/// while 0.9 overshoots into a feasibility-flickering limit cycle that
/// never pins the quality-matched crossing.
double g_dist_momentum = 0.7;

LlaConfig DynamicsConfigFor(DynamicsKind kind) {
  LlaConfig config = ActiveConfig();
  config.dynamics.kind = kind;  // adaptive restart on
  config.dynamics.momentum = g_momentum;
  return config;
}

/// A convergence run that also kept the per-iteration utilities, so the
/// quality-matched comparison can locate when a run first reached the plain
/// baseline's final utility.
struct RecordedRun {
  ConvergenceRun run;
  std::vector<double> utilities;  ///< utilities[i] = utility after step i+1
  std::vector<bool> feasible;     ///< tolerance-based, as the detector uses
};

RecordedRun RunRecordingUtilities(LlaEngine& engine, std::size_t prime_solves) {
  RecordedRun out;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t solves = 0;
  int steps = 0;
  while (!engine.Converged() && steps < kMaxIterations) {
    const IterationStats stats = engine.Step();
    out.utilities.push_back(stats.total_utility);
    out.feasible.push_back(stats.feasible);
    solves += static_cast<std::uint64_t>(stats.subtasks_solved);
    ++steps;
  }
  const auto stop = std::chrono::steady_clock::now();
  out.run.converged = engine.Converged();
  out.run.iterations = steps;
  out.run.subtask_solves = prime_solves + solves;
  out.run.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  out.run.final_utility =
      out.utilities.empty() ? 0.0 : out.utilities.back();
  return out;
}

/// First 1-based iteration that is (near-)feasible with utility at least
/// `target`, or -1 if the run never reaches that.  Feasibility matters:
/// early cold iterates overshoot the converged utility while violating
/// capacity, which is progress toward nothing.
int IterationsToQuality(const RecordedRun& recorded, double target) {
  for (std::size_t i = 0; i < recorded.utilities.size(); ++i) {
    if (recorded.feasible[i] && recorded.utilities[i] >= target) {
      return static_cast<int>(i) + 1;
    }
  }
  return -1;
}

/// Per accelerated run, how it compares against the plain counterpart of
/// the same scenario.  `diverged` is the CI gate; `regressed` is the honest
/// 1.2x marker.  Both judge `to_quality` — the iterations the run needed to
/// reach the plain baseline's final utility — not the run's own (later,
/// better-utility) convergence point.
struct DynamicsOutcome {
  std::string workload;
  std::string scenario;
  DynamicsKind kind = DynamicsKind::kPlain;
  int iterations = 0;
  int to_quality = -1;
  int plain_iterations = 0;
  bool converged = false;
  bool diverged = false;
  bool regressed = false;
};

bench::JsonValue DynamicsRunJson(const RecordedRun& recorded,
                                 const ConvergenceRun& plain,
                                 DynamicsOutcome* outcome) {
  const ConvergenceRun& run = recorded.run;
  outcome->iterations = run.iterations;
  outcome->plain_iterations = plain.iterations;
  outcome->converged = run.converged;
  // Quality tolerance: 10x the convergence detector's rel_tol (1e-5) — the
  // resolution below which two plateaus are indistinguishable to the
  // plateau test itself.
  const double tol = std::abs(plain.final_utility) * 1e-4;
  outcome->to_quality =
      IterationsToQuality(recorded, plain.final_utility - tol);
  const double ratio =
      outcome->to_quality > 0 && plain.iterations > 0
          ? static_cast<double>(outcome->to_quality) /
                static_cast<double>(plain.iterations)
          : 0.0;
  outcome->diverged = !run.converged || outcome->to_quality < 0 || ratio > 2.0;
  outcome->regressed = !outcome->diverged && ratio > 1.2;
  return RunJson(run)
      .Add("iterations_to_plain_quality",
           bench::JsonValue::Number(outcome->to_quality))
      .Add("quality_iterations_vs_plain", bench::JsonValue::Number(ratio))
      .Add("utility_vs_plain",
           bench::JsonValue::Number(run.final_utility - plain.final_utility))
      .Add("regressed", bench::JsonValue::Bool(outcome->regressed))
      .Add("diverged", bench::JsonValue::Bool(outcome->diverged));
}

void RunDynamicsCases(const std::string& name, const Workload& workload,
                      bench::JsonValue* results,
                      std::vector<DynamicsOutcome>* outcomes) {
  const std::size_t prime = workload.subtask_count();
  std::printf("\n%s dynamics axis (iterations to converge, active-set):\n",
              name.c_str());

  // Plain baselines first: the accelerated runs are judged against them.
  LatencyModel model(workload);
  ConvergenceRun plain_cold;
  ConvergenceRun plain_warm;
  PriceVector plain_optimum;
  {
    LlaEngine cold(workload, model, DynamicsConfigFor(DynamicsKind::kPlain));
    plain_cold = RunToConvergence(cold, prime);
    plain_optimum = cold.prices();
    const SubtaskId victim = workload.tasks().front().subtasks.front();
    model.SetAdditiveError(victim, 0.01);
    LlaEngine warm(workload, model, DynamicsConfigFor(DynamicsKind::kPlain));
    warm.WarmStart(plain_optimum);
    plain_warm = RunToConvergence(warm, prime);
    model.SetAdditiveError(victim, 0.0);
  }

  bench::JsonValue axis = bench::JsonValue::Array();
  axis.Push(bench::JsonValue::Object()
                .Add("dynamics", bench::JsonValue::String("plain"))
                .Add("cold", RunJson(plain_cold))
                .Add("wcet_warm", RunJson(plain_warm)));
  PrintRun("plain cold", plain_cold);
  PrintRun("plain wcet warm", plain_warm);

  for (const DynamicsKind kind :
       {DynamicsKind::kHeavyBall, DynamicsKind::kNesterov}) {
    const LlaConfig config = DynamicsConfigFor(kind);

    LlaEngine cold(workload, model, config);
    const RecordedRun cold_run = RunRecordingUtilities(cold, prime);
    // Warm restarts resume from the PLAIN reference optimum so every policy
    // re-converges from the same operating point; the comparison isolates
    // the dynamics, not the slightly different plateau each policy's own
    // cold run stopped at.
    const SubtaskId victim = workload.tasks().front().subtasks.front();
    model.SetAdditiveError(victim, 0.01);
    LlaEngine warm(workload, model, config);
    warm.WarmStart(plain_optimum);
    const RecordedRun warm_run = RunRecordingUtilities(warm, prime);
    model.SetAdditiveError(victim, 0.0);

    DynamicsOutcome cold_outcome{name, "cold", kind};
    DynamicsOutcome warm_outcome{name, "wcet_warm", kind};
    axis.Push(
        bench::JsonValue::Object()
            .Add("dynamics", bench::JsonValue::String(ToString(kind)))
            .Add("cold", DynamicsRunJson(cold_run, plain_cold, &cold_outcome))
            .Add("wcet_warm",
                 DynamicsRunJson(warm_run, plain_warm, &warm_outcome)));

    char label[64];
    std::snprintf(label, sizeof(label), "%s cold", ToString(kind));
    PrintRun(label, cold_run.run);
    std::snprintf(label, sizeof(label), "%s wcet warm", ToString(kind));
    PrintRun(label, warm_run.run);
    const double speedup =
        cold_run.run.iterations > 0
            ? static_cast<double>(plain_cold.iterations) /
                  static_cast<double>(cold_run.run.iterations)
            : 0.0;
    std::printf("  %s converges cold in %.2fx fewer iterations than plain\n",
                ToString(kind), speedup);
    std::printf("  %s reaches plain's final utility: cold %d iters "
                "(plain %d), warm %d iters (plain %d); final utility "
                "%+.4f / %+.4f vs plain\n",
                ToString(kind), cold_outcome.to_quality, plain_cold.iterations,
                warm_outcome.to_quality, plain_warm.iterations,
                cold_run.run.final_utility - plain_cold.final_utility,
                warm_run.run.final_utility - plain_warm.final_utility);
    outcomes->push_back(cold_outcome);
    outcomes->push_back(warm_outcome);
  }

  results->Push(bench::JsonValue::Object()
                    .Add("workload", bench::JsonValue::String(name))
                    .Add("policies", std::move(axis)));
}

// --- Distributed dynamics axis -------------------------------------------
//
// The same plain / heavy-ball / Nesterov comparison, but on the DISTRIBUTED
// deployment (DESIGN.md §7.12): shard agents exchanging messages with task
// controllers over a zero-delay in-process bus, the mu updates carrying
// per-resource momentum state.  Two scenarios:
//   * dist_cold — the sharded deployment (min(8, R) shard agents, the
//     configuration `lla solve --round-threads` uses) converging from
//     nothing; exercises ShardAgent's per-resource dynamics vectors.
//   * dist_capacity_warm — the HEADLINE: a deployment with one shard per
//     resource converges plain, every endpoint is checkpointed, one
//     resource loses 5% capacity, and a new coordinator per policy restores
//     all endpoints from the snapshots and re-converges.  This is the paper's online story at the
//     deployment level: the running system absorbs a resource degradation
//     without a cold restart, and momentum must accelerate exactly this
//     re-convergence (snapshot dynamics fields ride along).
// Units are coordinator ROUNDS (one full controller->resource->controller
// message exchange), judged quality-matched against the plain counterpart
// exactly like the engine axis: diverged = never reaches plain's final
// utility or needs > 2x the plain rounds (exits 1, so CI fails).

runtime::CoordinatorConfig DistConfigFor(DynamicsKind kind, bool sharded,
                                         std::size_t resources) {
  runtime::CoordinatorConfig config;
  config.bus.base_delay_ms = 0.0;
  config.record_history = true;  // RunSyncRound reports via history
  config.dynamics.kind = kind;   // adaptive restart on
  config.dynamics.momentum = g_dist_momentum;
  if (sharded) {
    config.num_shards =
        static_cast<int>(std::min<std::size_t>(8, resources));
  }
  return config;
}

/// Synchronous rounds until convergence, recording per-round utility /
/// feasibility so IterationsToQuality applies unchanged (ConvergenceRun's
/// `iterations` carries rounds; subtask_solves stays 0 — round count is the
/// distributed cost unit).
RecordedRun RunCoordinatorRecording(runtime::Coordinator& coordinator) {
  RecordedRun out;
  const auto start = std::chrono::steady_clock::now();
  int rounds = 0;
  while (!coordinator.Converged() && rounds < kMaxIterations) {
    const runtime::RoundStats stats = coordinator.RunSyncRound();
    out.utilities.push_back(stats.total_utility);
    out.feasible.push_back(stats.feasible);
    ++rounds;
  }
  const auto stop = std::chrono::steady_clock::now();
  out.run.converged = coordinator.Converged();
  out.run.iterations = rounds;
  out.run.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  out.run.final_utility = out.utilities.empty() ? 0.0 : out.utilities.back();
  return out;
}

/// Checkpoints every endpoint of `from` and restores them into `to` (both
/// one shard per resource, structurally identical workloads — here they
/// differ only in one resource's capacity).
void TransplantState(const Workload& workload,
                     const runtime::Coordinator& from,
                     runtime::Coordinator* to) {
  for (const ResourceInfo& resource : workload.resources()) {
    to->RestartEndpoint(resource.id, from.CheckpointResource(resource.id));
  }
  for (const TaskInfo& task : workload.tasks()) {
    to->RestartEndpoint(task.id, from.CheckpointController(task.id));
  }
}

void RunDistributedDynamicsCases(const std::string& name,
                                 const Workload& workload,
                                 bench::JsonValue* results,
                                 std::vector<DynamicsOutcome>* outcomes) {
  std::printf("\n%s distributed dynamics axis (coordinator rounds to "
              "converge):\n",
              name.c_str());
  LatencyModel model(workload);

  // The degraded workload every capacity_change run re-converges on.
  // 10% degradation (the engine scenario uses 5%): at 5% the distributed
  // plain deployment re-plateaus within ~250 rounds — a re-convergence too
  // short to measure acceleration against — while 10% forces a real
  // price-space migration (plain needs ~1600 rounds).
  const ResourceInfo& victim = workload.resources().front();
  auto shrunk =
      WithResourceCapacity(workload, victim.id, victim.capacity * 0.90);
  if (!shrunk.ok()) {
    std::printf("  capacity transform failed: %s\n", shrunk.error().c_str());
    return;
  }
  const Workload& w2 = shrunk.value();
  LatencyModel model2(w2);

  // The checkpoint source: a plain deployment with one shard per resource,
  // at its optimum.
  runtime::Coordinator source(
      workload, model,
      DistConfigFor(DynamicsKind::kPlain, /*sharded=*/false, 0));
  source.RunSync(kMaxIterations);

  // Plain baselines the accelerated runs are judged against.
  RecordedRun plain_cold;
  RecordedRun plain_warm;
  {
    runtime::Coordinator cold(
        workload, model,
        DistConfigFor(DynamicsKind::kPlain, /*sharded=*/true,
                      workload.resource_count()));
    plain_cold = RunCoordinatorRecording(cold);
    runtime::Coordinator warm(
        w2, model2, DistConfigFor(DynamicsKind::kPlain, /*sharded=*/false, 0));
    TransplantState(workload, source, &warm);
    plain_warm = RunCoordinatorRecording(warm);
  }

  bench::JsonValue axis = bench::JsonValue::Array();
  axis.Push(bench::JsonValue::Object()
                .Add("dynamics", bench::JsonValue::String("plain"))
                .Add("dist_cold", RunJson(plain_cold.run))
                .Add("dist_capacity_warm", RunJson(plain_warm.run)));
  PrintRun("plain dist cold (sharded)", plain_cold.run);
  PrintRun("plain dist capacity warm", plain_warm.run);

  for (const DynamicsKind kind :
       {DynamicsKind::kHeavyBall, DynamicsKind::kNesterov}) {
    runtime::Coordinator cold(
        workload, model,
        DistConfigFor(kind, /*sharded=*/true, workload.resource_count()));
    const RecordedRun cold_run = RunCoordinatorRecording(cold);

    runtime::Coordinator warm(w2, model2,
                              DistConfigFor(kind, /*sharded=*/false, 0));
    TransplantState(workload, source, &warm);
    const RecordedRun warm_run = RunCoordinatorRecording(warm);

    DynamicsOutcome cold_outcome{name, "dist_cold", kind};
    DynamicsOutcome warm_outcome{name, "dist_capacity_warm", kind};
    axis.Push(
        bench::JsonValue::Object()
            .Add("dynamics", bench::JsonValue::String(ToString(kind)))
            .Add("dist_cold",
                 DynamicsRunJson(cold_run, plain_cold.run, &cold_outcome))
            .Add("dist_capacity_warm",
                 DynamicsRunJson(warm_run, plain_warm.run, &warm_outcome)));

    char label[64];
    std::snprintf(label, sizeof(label), "%s dist cold", ToString(kind));
    PrintRun(label, cold_run.run);
    std::snprintf(label, sizeof(label), "%s dist capacity warm",
                  ToString(kind));
    PrintRun(label, warm_run.run);
    std::printf("  %s reaches plain quality: cold %d rounds (plain %d), "
                "capacity warm %d rounds (plain %d)\n",
                ToString(kind), cold_outcome.to_quality,
                plain_cold.run.iterations, warm_outcome.to_quality,
                plain_warm.run.iterations);
    outcomes->push_back(cold_outcome);
    outcomes->push_back(warm_outcome);
  }

  results->Push(bench::JsonValue::Object()
                    .Add("workload", bench::JsonValue::String(name))
                    .Add("policies", std::move(axis)));
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strncmp(argv[i], "--momentum=", 11) == 0) {
      g_momentum = std::atof(argv[i] + 11);
    }
    if (std::strncmp(argv[i], "--dist-momentum=", 16) == 0) {
      g_dist_momentum = std::atof(argv[i] + 16);
    }
  }

  bench::PrintHeader(
      "bench_convergence — subtask solves and wall time to converge",
      "warm-started engine after online events (every step solves every "
      "subtask)",
      "warm restart after a single-subtask WCET perturbation >= 5x fewer "
      "subtask solves than a cold run; cold trajectories bit-identical "
      "with work reporting off and on");

  // Workloads must actually converge under the criterion (utility plateau +
  // feasibility + complementary slackness) or "work to converge" is
  // meaningless; the paper workload at replication 1 and the default random
  // workload are the converging cases the warm-start tests also use.
  auto paper = MakeScaledSimWorkload(1, /*scale_critical_times=*/true);
  if (!paper.ok()) {
    std::printf("workload error: %s\n", paper.error().c_str());
    return 1;
  }

  bench::JsonValue results = bench::JsonValue::Array();
  std::vector<ScenarioOutcome> outcomes;
  RunWorkloadCases("paper_3task", paper.value(), &results, &outcomes);

  bench::JsonValue dynamics_results = bench::JsonValue::Array();
  std::vector<DynamicsOutcome> dynamics_outcomes;
  RunDynamicsCases("paper_3task", paper.value(), &dynamics_results,
                   &dynamics_outcomes);

  bench::JsonValue dist_dynamics_results = bench::JsonValue::Array();
  RunDistributedDynamicsCases("paper_3task", paper.value(),
                              &dist_dynamics_results, &dynamics_outcomes);

  if (!quick) {
    RandomWorkloadConfig random_config;
    random_config.seed = 42;
    random_config.target_utilization = 0.7;
    auto random_workload = MakeRandomWorkload(random_config);
    if (!random_workload.ok()) {
      std::printf("workload error: %s\n", random_workload.error().c_str());
      return 1;
    }
    RunWorkloadCases("random_default", random_workload.value(), &results,
                     &outcomes);
    RunDynamicsCases("random_default", random_workload.value(),
                     &dynamics_results, &dynamics_outcomes);
  }

  bool meets_5x = true;
  bool meets_structural_warm = true;
  for (const ScenarioOutcome& outcome : outcomes) {
    if (outcome.wcet && outcome.solve_ratio < 5.0) meets_5x = false;
    if (outcome.structural && outcome.solve_ratio < 1.0) {
      meets_structural_warm = false;
    }
  }
  std::printf("\nacceptance gate (wcet warm restart >= 5x fewer solves): %s\n",
              meets_5x ? "PASS" : "FAIL");
  std::printf("structural gate (warm restart after a task leave never worse "
              "than cold, ratio >= 1.0): %s\n",
              meets_structural_warm ? "PASS" : "FAIL");

  // Dynamics gates.  meets_accel_1_5x: some accelerated policy fully
  // converges cold on the paper workload in >= 1.5x fewer iterations than
  // plain (raw count — the strict version of the claim).
  // dynamics_diverged (fails the bench, and thus CI): any accelerated run
  // that did not converge, never reached the plain baseline's final
  // utility, or needed > 2x the plain iterations to reach it.
  bool meets_accel_1_5x = false;
  // Distributed gate (DESIGN.md §7.12): heavy-ball absorbs the capacity
  // change in >= 1.5x fewer coordinator rounds than plain, quality-matched
  // (rounds until the restored deployment is feasible at the plain
  // baseline's re-converged utility).
  bool meets_dist_accel_1_5x = false;
  bool dynamics_diverged = false;
  bool dynamics_regressed = false;
  for (const DynamicsOutcome& outcome : dynamics_outcomes) {
    if (outcome.workload == "paper_3task" && outcome.scenario == "cold" &&
        outcome.converged && outcome.iterations > 0 &&
        static_cast<double>(outcome.plain_iterations) >=
            1.5 * static_cast<double>(outcome.iterations)) {
      meets_accel_1_5x = true;
    }
    if (outcome.workload == "paper_3task" &&
        outcome.scenario == "dist_capacity_warm" &&
        outcome.kind == DynamicsKind::kHeavyBall && outcome.converged &&
        outcome.to_quality > 0 &&
        static_cast<double>(outcome.plain_iterations) >=
            1.5 * static_cast<double>(outcome.to_quality)) {
      meets_dist_accel_1_5x = true;
    }
    if (outcome.diverged) {
      dynamics_diverged = true;
      std::printf("DIVERGED: %s %s %s (%d iters to plain quality vs "
                  "plain %d)\n",
                  ToString(outcome.kind), outcome.workload.c_str(),
                  outcome.scenario.c_str(), outcome.to_quality,
                  outcome.plain_iterations);
    } else if (outcome.regressed) {
      dynamics_regressed = true;
      std::printf("regression (> 1.2x plain): %s %s %s (%d iters to plain "
                  "quality vs plain %d)\n",
                  ToString(outcome.kind), outcome.workload.c_str(),
                  outcome.scenario.c_str(), outcome.to_quality,
                  outcome.plain_iterations);
    }
  }
  std::printf("dynamics gate (>= 1.5x fewer cold iterations): %s\n",
              meets_accel_1_5x ? "PASS" : "FAIL");
  std::printf("dynamics gate (plain quality reached within 2x plain "
              "iterations): %s\n",
              dynamics_diverged ? "FAIL" : "PASS");
  std::printf("distributed dynamics gate (heavy-ball capacity change >= "
              "1.5x fewer rounds to plain quality): %s\n",
              meets_dist_accel_1_5x ? "PASS" : "FAIL");

  bench::JsonValue root = bench::BenchReportRoot(
      "convergence", "subtask_solves_to_converge", quick);
  root.Add("meets_5x", bench::JsonValue::Bool(meets_5x));
  root.Add("meets_structural_warm",
           bench::JsonValue::Bool(meets_structural_warm));
  root.Add("meets_accel_1_5x", bench::JsonValue::Bool(meets_accel_1_5x));
  root.Add("meets_dist_accel_1_5x",
           bench::JsonValue::Bool(meets_dist_accel_1_5x));
  root.Add("dynamics_diverged", bench::JsonValue::Bool(dynamics_diverged));
  root.Add("dynamics_regressed", bench::JsonValue::Bool(dynamics_regressed));
  root.Add("results", std::move(results));
  root.Add("dynamics", std::move(dynamics_results));
  root.Add("distributed_dynamics", std::move(dist_dynamics_results));
  if (bench::EmitBenchReport("BENCH_convergence.json", root) != 0) return 1;
  // A structural warm restart regressing below cold fails the bench (and
  // thus the CI bench job) exactly like a diverging dynamics run — and so
  // does the distributed heavy-ball missing the 1.5x capacity-change bar.
  return (dynamics_diverged || !meets_structural_warm ||
          !meets_dist_accel_1_5x)
             ? 1
             : 0;
}
