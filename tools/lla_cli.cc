// lla — command-line front end for the library.
//
//   lla solve <workload-file> [--variant sum|path-weighted] [--iters N]
//       Optimize and print the latency assignment, shares and prices.
//       --restore=path resumes the dual iteration from a state snapshot
//       previously written by `lla checkpoint` (bit-identical resume); the
//       snapshot format (text v1/v2 or binary b1) is auto-detected from the
//       file's magic bytes; binary files restore through the zero-copy
//       mmap path (DESIGN.md §7.11).
//       --round-threads=N runs the distributed synchronous deployment
//       instead of the single-process engine: min(8, R) shard agents plus
//       parallel coordinator rounds on an N-thread pool (bit-identical to
//       N=1 at any thread count, DESIGN.md §7.11).
//   lla checkpoint <workload-file> <snapshot-file> [--iters N]
//                  [--format=text|binary]
//       Run N iterations, then save the engine's dual state (prices, step
//       multipliers, active-set shadow state) as a durable snapshot — text
//       by default (diff-able, DESIGN.md §7.7), binary b1 on request
//       (compact, DESIGN.md §7.10).
//   lla check <workload-file> [--iters N]
//       Schedulability verdict (LLA run + Phase-I cross-check).
//   lla simulate <workload-file> <seconds> [--sfs]
//       Optimize, enact, execute on the DES substrate, report percentiles.
//   lla describe <workload-file>
//       Validate and summarize the workload.
//   lla generate <output-file> [--seed N] [--tasks N] [--resources N]
//       Generate a random schedulable workload file.
//   lla trace <workload-file> [--iters N] [--out path]
//       Optimize while streaming per-iteration JSONL (default: stdout);
//       engine phase timings and counters go to stderr.
//   lla churn <workload-file> [--mutations=N] [--seed=S] [--threads=N]
//       Apply a deterministic join/leave/WCET mutation storm against the
//       live engine (admission-gated joins, structural warm starts) and
//       report sustained mutations/sec and re-convergence percentiles.
//
// Exit codes: 0 success; 1 runtime error (generation/save failure);
// 2 usage; 3 workload load/parse error; 4 solve not converged / infeasible
// (or workload unschedulable for `check`).
//
// Example files live in examples/data/.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/stats.h"
#include "core/engine.h"
#include "runtime/churn.h"
#include "runtime/coordinator.h"
#include "workloads/transform.h"
#include "core/schedulability.h"
#include "model/evaluation.h"
#include "model/serialization.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workloads/random.h"
#include "sim/system_sim.h"
#include "solver/phase1.h"

using namespace lla;

namespace {

// Distinct exit codes so scripts can tell a malformed workload (3) from an
// optimizer that ran but did not reach a feasible converged allocation (4).
constexpr int kExitSuccess = 0;
constexpr int kExitRuntimeError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitLoadError = 3;
constexpr int kExitNotConverged = 4;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  lla solve <file> [--variant sum|path-weighted] [--iters N] "
               "[--threads=N] [--epsilon-quiescence=X]\n"
               "            [--dynamics=plain|heavy-ball|nesterov] "
               "[--momentum=B] [--restore=snapshot] [--round-threads=N]\n"
               "            (--dynamics/--momentum apply to both the engine "
               "and the --round-threads distributed path)\n"
               "  lla checkpoint <file> <snapshot> [--variant "
               "sum|path-weighted] [--iters N] [--threads=N] "
               "[--epsilon-quiescence=X] [--format=text|binary]\n"
               "            [--dynamics=plain|heavy-ball|nesterov] "
               "[--momentum=B]\n"
               "  lla check <file> [--iters N]\n"
               "  lla simulate <file> <seconds> [--sfs]\n"
               "  lla describe <file>\n"
               "  lla generate <file> [--seed N] [--tasks N] "
               "[--resources N]\n"
               "  lla trace <file> [--variant sum|path-weighted] [--iters N] "
               "[--out path] [--threads=N]\n"
               "            [--dynamics=plain|heavy-ball|nesterov] "
               "[--momentum=B]\n"
               "  lla churn <file> [--mutations=N] [--seed=S] "
               "[--threads=N]\n"
               "exit codes: 0 ok, 1 runtime error, 2 usage, 3 load error, "
               "4 not converged/infeasible\n");
  return kExitUsage;
}

// Strict parse for --threads values: the whole token must be a positive
// decimal integer.  "4x", "", "-2" and "0" are usage errors — a silently
// atoi'd 0 would run the engine with no pool while looking accepted.
bool ParseThreadCount(const char* text, int* out) {
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) return false;
  if (value < 1 || value > 4096) return false;
  *out = static_cast<int>(value);
  return true;
}

// Accepts "--threads N" and "--threads=N"; advances *i past a consumed
// separate value.  Returns false (usage error) on a malformed value or a
// missing one.
bool MatchThreadsFlag(int argc, char** argv, int* i, int* threads,
                      bool* matched) {
  *matched = false;
  const char* arg = argv[*i];
  if (std::strncmp(arg, "--threads=", 10) == 0) {
    *matched = true;
    return ParseThreadCount(arg + 10, threads);
  }
  if (std::strcmp(arg, "--threads") == 0) {
    *matched = true;
    if (*i + 1 >= argc) return false;
    return ParseThreadCount(argv[++*i], threads);
  }
  return true;  // not a --threads flag at all
}

// Accepts "--round-threads N" and "--round-threads=N" (same strict value
// rules as --threads); advances *i past a consumed separate value.
bool MatchRoundThreadsFlag(int argc, char** argv, int* i, int* threads,
                           bool* matched) {
  *matched = false;
  const char* arg = argv[*i];
  if (std::strncmp(arg, "--round-threads=", 16) == 0) {
    *matched = true;
    return ParseThreadCount(arg + 16, threads);
  }
  if (std::strcmp(arg, "--round-threads") == 0) {
    *matched = true;
    if (*i + 1 >= argc) return false;
    return ParseThreadCount(argv[++*i], threads);
  }
  return true;  // not a --round-threads flag at all
}

// Strict parse for --epsilon-quiescence: the whole token must be a finite
// decimal in [0, 1) — the range ActiveSetConfig accepts.  Anything else
// (including a bare "--epsilon-quiescence" with no value) is a usage error;
// a silently clamped value would run an approximation the user did not ask
// for.
bool ParseEpsilonQuiescence(const char* text, double* out) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE) return false;
  if (!(value >= 0.0) || value >= 1.0) return false;
  *out = value;
  return true;
}

// Accepts "--epsilon-quiescence X" and "--epsilon-quiescence=X"; advances
// *i past a consumed separate value.  Returns false (usage error) on a
// malformed or missing value.
bool MatchEpsilonFlag(int argc, char** argv, int* i, double* epsilon,
                      bool* matched) {
  *matched = false;
  const char* arg = argv[*i];
  constexpr const char* kFlag = "--epsilon-quiescence";
  const std::size_t len = std::strlen(kFlag);
  if (std::strncmp(arg, kFlag, len) == 0 && arg[len] == '=') {
    *matched = true;
    return ParseEpsilonQuiescence(arg + len + 1, epsilon);
  }
  if (std::strcmp(arg, kFlag) == 0) {
    *matched = true;
    if (*i + 1 >= argc) return false;
    return ParseEpsilonQuiescence(argv[++*i], epsilon);
  }
  return true;  // not an --epsilon-quiescence flag at all
}

// Strict parse for --dynamics: exactly one of the policy names.  Anything
// else is a usage error.
bool ParseDynamicsKind(const char* text, DynamicsKind* out) {
  if (std::strcmp(text, "plain") == 0) {
    *out = DynamicsKind::kPlain;
    return true;
  }
  if (std::strcmp(text, "heavy-ball") == 0) {
    *out = DynamicsKind::kHeavyBall;
    return true;
  }
  if (std::strcmp(text, "nesterov") == 0) {
    *out = DynamicsKind::kNesterov;
    return true;
  }
  return false;
}

// Accepts "--dynamics X" and "--dynamics=X"; advances *i past a consumed
// separate value.  Returns false (usage error) on a malformed or missing
// value.
bool MatchDynamicsFlag(int argc, char** argv, int* i, DynamicsKind* kind,
                       bool* matched) {
  *matched = false;
  const char* arg = argv[*i];
  if (std::strncmp(arg, "--dynamics=", 11) == 0) {
    *matched = true;
    return ParseDynamicsKind(arg + 11, kind);
  }
  if (std::strcmp(arg, "--dynamics") == 0) {
    *matched = true;
    if (*i + 1 >= argc) return false;
    return ParseDynamicsKind(argv[++*i], kind);
  }
  return true;  // not a --dynamics flag at all
}

// Strict parse for --momentum: a finite decimal in [0, 1), the range
// DynamicsConfig accepts (beta = 1 would make the velocity recursion
// marginally stable).
bool ParseMomentum(const char* text, double* out) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE) return false;
  if (!(value >= 0.0) || value >= 1.0) return false;
  *out = value;
  return true;
}

// Accepts "--momentum X" and "--momentum=X"; advances *i past a consumed
// separate value.  Returns false (usage error) on a malformed or missing
// value.
bool MatchMomentumFlag(int argc, char** argv, int* i, double* momentum,
                       bool* matched) {
  *matched = false;
  const char* arg = argv[*i];
  if (std::strncmp(arg, "--momentum=", 11) == 0) {
    *matched = true;
    return ParseMomentum(arg + 11, momentum);
  }
  if (std::strcmp(arg, "--momentum") == 0) {
    *matched = true;
    if (*i + 1 >= argc) return false;
    return ParseMomentum(argv[++*i], momentum);
  }
  return true;  // not a --momentum flag at all
}

Expected<Workload> Load(const char* path) {
  auto workload = LoadWorkloadFromFile(path);
  if (!workload.ok()) {
    std::fprintf(stderr, "error loading %s: %s\n", path,
                 workload.error().c_str());
  }
  return workload;
}

int Describe(const Workload& w) {
  std::printf("resources: %zu   tasks: %zu   subtasks: %zu   paths: %zu\n\n",
              w.resource_count(), w.task_count(), w.subtask_count(),
              w.path_count());
  for (const ResourceInfo& r : w.resources()) {
    std::printf("resource %-16s %-4s capacity %.2f lag %.2f ms, %zu "
                "subtasks (min-share demand %.3f)\n",
                r.name.c_str(), ToString(r.kind), r.capacity, r.lag_ms,
                r.subtasks.size(), w.MinShareDemand(r.id));
  }
  std::printf("\n");
  for (const TaskInfo& t : w.tasks()) {
    std::printf("task %-20s C=%.1f ms  %zu subtasks, %zu paths, utility %s, "
                "%.1f releases/s\n",
                t.name.c_str(), t.critical_time_ms, t.subtasks.size(),
                t.paths.size(), t.utility->Describe().c_str(),
                t.trigger.MeanRatePerSecond());
  }
  return 0;
}

int Solve(const Workload& w, UtilityVariant variant, int iters,
          int threads, double epsilon_quiescence,
          const DynamicsConfig& dynamics, const std::string& restore_path) {
  LatencyModel model(w);
  LlaConfig config;
  config.solver.variant = variant;
  config.gamma0 = 3.0;
  config.num_threads = threads;
  config.active_set.epsilon_quiescence = epsilon_quiescence;
  config.dynamics = dynamics;
  LlaEngine engine(w, model, config);
  if (!restore_path.empty()) {
    // Binary b1 snapshots restore through the zero-copy path: mmap the
    // file, parse a non-owning view, decode each section once straight
    // into the engine (DESIGN.md §7.11).  Text snapshots take the classic
    // owning loader off the same mapped bytes.
    auto mapped = MappedSnapshotFile::Open(restore_path);
    if (!mapped.ok()) {
      std::fprintf(stderr, "error loading snapshot %s: %s\n",
                   restore_path.c_str(), mapped.error().c_str());
      return kExitLoadError;
    }
    const MappedSnapshotFile& file = mapped.value();
    long long resume_iteration = 0;
    if (SnapshotBytesAreBinary(file.data(), file.size())) {
      auto view = ParseSnapshotBinary(file.data(), file.size());
      if (!view.ok()) {
        std::fprintf(stderr, "error loading snapshot %s: %s\n",
                     restore_path.c_str(), view.error().c_str());
        return kExitLoadError;
      }
      const Status restored = engine.Restore(view.value());
      if (!restored.ok()) {
        std::fprintf(stderr, "error restoring snapshot %s: %s\n",
                     restore_path.c_str(), restored.error().c_str());
        return kExitLoadError;
      }
      resume_iteration = view.value().iteration;
    } else {
      auto snapshot =
          LoadSnapshotFromString(std::string(file.data(), file.size()));
      if (!snapshot.ok()) {
        std::fprintf(stderr, "error loading snapshot %s: %s\n",
                     restore_path.c_str(), snapshot.error().c_str());
        return kExitLoadError;
      }
      const Status restored = engine.Restore(snapshot.value());
      if (!restored.ok()) {
        std::fprintf(stderr, "error restoring snapshot %s: %s\n",
                     restore_path.c_str(), restored.error().c_str());
        return kExitLoadError;
      }
      resume_iteration = snapshot.value().iteration;
    }
    std::printf("restored dual state from %s (resuming at iteration %lld)\n",
                restore_path.c_str(), resume_iteration);
  }
  const RunResult run = engine.Run(iters);
  std::printf("%s after %d iterations; utility %.3f (%s variant); "
              "feasible: %s\n",
              run.converged ? "converged" : "NOT converged", run.iterations,
              run.final_utility, ToString(variant),
              run.final_feasibility.feasible ? "yes" : "no");
  if (epsilon_quiescence > 0.0) {
    std::printf("epsilon-quiescence %.3g: %llu subtask solves (approximate "
                "mode; objective within O(epsilon) of exact)\n",
                epsilon_quiescence,
                static_cast<unsigned long long>(run.subtask_solves));
  }
  std::printf("\n");
  std::printf("%-24s %12s %10s\n", "subtask", "latency(ms)", "share");
  for (const SubtaskInfo& sub : w.subtasks()) {
    const double latency = engine.latencies()[sub.id.value()];
    std::printf("%-24s %12.3f %10.4f\n", sub.name.c_str(), latency,
                model.share(sub.id).Share(latency));
  }
  std::printf("\n%-24s %14s %14s\n", "task", "critical path", "deadline");
  for (const TaskInfo& task : w.tasks()) {
    std::printf("%-24s %14.2f %14.1f\n", task.name.c_str(),
                CriticalPathLatency(w, task.id, engine.latencies()),
                task.critical_time_ms);
  }
  std::printf("\n%-16s %12s %10s\n", "resource", "share sum", "price");
  const auto report = engine.Feasibility();
  for (const ResourceInfo& resource : w.resources()) {
    std::printf("%-16s %9.4f/%.2f %10.2f\n", resource.name.c_str(),
                report.resource_share_sums[resource.id.value()],
                resource.capacity, engine.prices().mu[resource.id.value()]);
  }
  return run.converged && run.final_feasibility.feasible ? kExitSuccess
                                                         : kExitNotConverged;
}

// `lla solve --round-threads=N`: the distributed synchronous deployment —
// min(8, R) shard agents on an in-process bus, with the coordinator fanning
// each round's controller solves, shard price updates and delivery waves
// across an N-thread pool (DESIGN.md §7.11).  The fixed point is
// bit-identical at any thread count, so N only changes wall-clock time.
int SolveDistributed(const Workload& w, UtilityVariant variant, int iters,
                     int round_threads, const DynamicsConfig& dynamics) {
  LatencyModel model(w);
  runtime::CoordinatorConfig config;
  config.solver.variant = variant;
  config.step.gamma0 = 3.0;
  // Accelerated mu dynamics for the shard agents (DESIGN.md §7.12); the
  // coordinator copies this into every agent's step config.
  config.dynamics = dynamics;
  config.bus.base_delay_ms = 0.0;
  config.record_history = false;
  config.num_shards = static_cast<int>(
      std::min<std::size_t>(8, w.resource_count()));
  config.round_threads = round_threads;
  runtime::Coordinator coordinator(w, model, config);
  const RunResult run = coordinator.RunSync(iters);
  // With record_history off, RunResult carries no per-round utility —
  // evaluate the enacted assignment directly.
  std::printf("%s after %d distributed rounds (%d round threads, %zu "
              "shards); utility %.3f (%s variant); feasible: %s\n",
              run.converged ? "converged" : "NOT converged", run.iterations,
              round_threads, coordinator.shard_count(),
              coordinator.CurrentUtility(), ToString(variant),
              run.final_feasibility.feasible ? "yes" : "no");
  const Assignment latencies = coordinator.CurrentAssignment();
  const PriceVector prices = coordinator.CurrentPrices();
  const auto report = coordinator.CurrentFeasibility();
  std::printf("\n%-24s %12s %10s\n", "subtask", "latency(ms)", "share");
  for (const SubtaskInfo& sub : w.subtasks()) {
    const double latency = latencies[sub.id.value()];
    std::printf("%-24s %12.3f %10.4f\n", sub.name.c_str(), latency,
                model.share(sub.id).Share(latency));
  }
  std::printf("\n%-24s %14s %14s\n", "task", "critical path", "deadline");
  for (const TaskInfo& task : w.tasks()) {
    std::printf("%-24s %14.2f %14.1f\n", task.name.c_str(),
                CriticalPathLatency(w, task.id, latencies),
                task.critical_time_ms);
  }
  std::printf("\n%-16s %12s %10s\n", "resource", "share sum", "price");
  for (const ResourceInfo& resource : w.resources()) {
    std::printf("%-16s %9.4f/%.2f %10.2f\n", resource.name.c_str(),
                report.resource_share_sums[resource.id.value()],
                resource.capacity, prices.mu[resource.id.value()]);
  }
  return run.converged && run.final_feasibility.feasible ? kExitSuccess
                                                         : kExitNotConverged;
}

int Checkpoint(const Workload& w, UtilityVariant variant, int iters,
               int threads, double epsilon_quiescence,
               const DynamicsConfig& dynamics,
               const std::string& snapshot_path, bool binary_format) {
  LatencyModel model(w);
  LlaConfig config;
  config.solver.variant = variant;
  config.gamma0 = 3.0;
  config.num_threads = threads;
  config.active_set.epsilon_quiescence = epsilon_quiescence;
  config.dynamics = dynamics;
  LlaEngine engine(w, model, config);
  const RunResult run = engine.Run(iters);
  const StateSnapshot snapshot = engine.Checkpoint();
  const Status saved = binary_format
                           ? SaveSnapshotBinaryToFile(snapshot, snapshot_path)
                           : SaveSnapshotToFile(snapshot, snapshot_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "error saving snapshot %s: %s\n",
                 snapshot_path.c_str(), saved.error().c_str());
    return kExitRuntimeError;
  }
  std::printf("wrote %s (%s) at iteration %d (%s, utility %.6f); resume "
              "with `lla solve ... --restore=%s`\n",
              snapshot_path.c_str(), binary_format ? "binary b1" : "text v2",
              run.iterations, run.converged ? "converged" : "not converged",
              run.final_utility, snapshot_path.c_str());
  return kExitSuccess;
}

int Trace(const Workload& w, UtilityVariant variant, int iters,
          const std::string& out_path, int threads,
          const DynamicsConfig& dynamics) {
  obs::JsonlTraceSink sink(out_path);
  if (!sink.ok()) {
    std::fprintf(stderr, "error opening trace output %s\n", out_path.c_str());
    return kExitRuntimeError;
  }
  obs::MetricRegistry metrics;
  LatencyModel model(w);
  LlaConfig config;
  config.solver.variant = variant;
  config.gamma0 = 3.0;
  config.num_threads = threads;
  config.dynamics = dynamics;
  config.trace_sink = &sink;
  config.metrics = &metrics;

  obs::RunInfo info;
  info.label = ToString(variant);
  info.resource_count = w.resource_count();
  info.path_count = w.path_count();
  sink.OnRunBegin(info);
  LlaEngine engine(w, model, config);
  const RunResult run = engine.Run(iters);
  sink.OnRunEnd();

  std::fprintf(stderr, "%s after %d iterations; utility %.6f; feasible: %s\n",
               run.converged ? "converged" : "NOT converged", run.iterations,
               run.final_utility,
               run.final_feasibility.feasible ? "yes" : "no");
  std::fprintf(stderr, "%s", metrics.Snapshot().RenderText().c_str());
  return run.converged && run.final_feasibility.feasible ? kExitSuccess
                                                         : kExitNotConverged;
}

int Check(const Workload& w, int iters) {
  LatencyModel model(w);
  SchedulabilityConfig config;
  config.lla.gamma0 = 3.0;
  config.max_iterations = iters;
  SchedulabilityTester tester(w, model, config);
  const SchedulabilityReport report = tester.Test();
  std::printf("LLA verdict: %s\n  %s\n", ToString(report.verdict),
              report.explanation.c_str());

  Phase1Solver phase1(w, model);
  const Phase1Result result = phase1.Solve();
  std::printf("Phase-I cross-check: %s (max normalized violation %+.4f)\n",
              result.strictly_feasible ? "strictly feasible point exists"
                                       : "no interior point found",
              result.max_violation);
  return report.verdict == Schedulability::kSchedulable ? kExitSuccess
                                                        : kExitNotConverged;
}

int Simulate(const Workload& w, double seconds, bool use_sfs) {
  LatencyModel model(w);
  LlaConfig config;
  config.gamma0 = 3.0;
  LlaEngine engine(w, model, config);
  const RunResult run = engine.Run(12000);
  if (!run.final_feasibility.feasible) {
    std::printf("optimizer did not reach a feasible allocation; refusing to "
                "simulate\n");
    return kExitNotConverged;
  }
  std::vector<double> shares(w.subtask_count());
  for (const SubtaskInfo& sub : w.subtasks()) {
    shares[sub.id.value()] =
        model.share(sub.id).Share(engine.latencies()[sub.id.value()]);
  }
  sim::SimConfig sim_config;
  sim_config.duration_ms = seconds * 1000.0;
  if (use_sfs) sim_config.scheduler = sim::SchedulerKind::kSurplusFair;
  sim::SystemSimulator simulator(w, sim_config);
  const sim::SimResult result = simulator.Run(shares);

  std::printf("simulated %.1f s under the optimized shares (%s scheduler): "
              "%llu job sets\n\n",
              seconds, use_sfs ? "surplus-fair" : "fluid GPS",
              static_cast<unsigned long long>(result.job_sets_completed));
  std::printf("%-24s %10s %10s %10s %12s\n", "task", "p50(ms)", "p95(ms)",
              "p99(ms)", "deadline");
  for (const TaskInfo& task : w.tasks()) {
    const auto& q = result.task_latencies[task.id.value()];
    std::printf("%-24s %10.2f %10.2f %10.2f %12.1f  %s\n",
                task.name.c_str(), q.Value(0.50), q.Value(0.95),
                q.Value(0.99), task.critical_time_ms,
                q.Value(0.99) <= task.critical_time_ms ? "ok" : "MISS");
  }
  return 0;
}

int Churn(const Workload& w, std::size_t mutations, std::uint64_t seed,
          int threads) {
  const WorkloadSpecs specs = ExtractSpecs(w);

  runtime::ChurnConfig config;
  config.lla.step_policy = StepPolicyKind::kAdaptive;
  config.lla.gamma0 = 3.0;
  config.lla.record_history = false;
  config.lla.num_threads = threads;
  config.min_tasks = 1;
  config.admission.lla = config.lla;
  config.admission.probe_threads = threads;

  runtime::ChurnScriptConfig script_config;
  script_config.seed = seed;
  script_config.mutations = mutations;
  script_config.num_resources = static_cast<int>(specs.resources.size());
  auto script = runtime::MakeChurnScript(script_config);
  if (!script.ok()) {
    std::fprintf(stderr, "churn script failed: %s\n", script.error().c_str());
    return kExitRuntimeError;
  }

  auto driver =
      runtime::ChurnDriver::Create(specs.resources, specs.tasks, config);
  if (!driver.ok()) {
    std::fprintf(stderr, "churn driver failed: %s\n", driver.error().c_str());
    return kExitRuntimeError;
  }

  const auto start = std::chrono::steady_clock::now();
  const std::vector<runtime::ChurnRecord> records =
      driver.value().ApplyAll(script.value());
  const auto stop = std::chrono::steady_clock::now();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();

  std::size_t applied = 0, joins = 0, joins_admitted = 0, leaves = 0,
              perturbs = 0, structural_unconverged = 0;
  SampleQuantile reconv_iters;
  for (const runtime::ChurnRecord& record : records) {
    if (record.kind == runtime::ChurnKind::kJoin) {
      ++joins;
      if (record.applied) ++joins_admitted;
    } else if (record.kind == runtime::ChurnKind::kLeave) {
      ++leaves;
    } else {
      ++perturbs;
    }
    if (!record.applied) continue;
    ++applied;
    reconv_iters.Add(static_cast<double>(record.iterations));
    if (record.kind != runtime::ChurnKind::kWcetPerturb &&
        !record.converged) {
      ++structural_unconverged;
    }
  }
  std::printf("churn: %zu mutations in %.1f ms (%.1f mutations/s, "
              "admission probes included)\n",
              records.size(), wall_ms,
              wall_ms > 0.0
                  ? static_cast<double>(records.size()) / (wall_ms / 1e3)
                  : 0.0);
  std::printf("  applied %zu: %zu/%zu joins admitted, %zu leaves, %zu wcet "
              "corrections\n",
              applied, joins_admitted, joins, leaves, perturbs);
  std::printf("  re-convergence iterations: p50 %.0f  p90 %.0f  p99 %.0f\n",
              reconv_iters.Value(0.5), reconv_iters.Value(0.9),
              reconv_iters.Value(0.99));
  std::printf("  final system: %zu tasks, %zu subtasks\n",
              driver.value().workload().task_count(),
              driver.value().workload().subtask_count());
  if (structural_unconverged > 0) {
    std::printf("  %zu structural mutations did NOT re-converge\n",
                structural_unconverged);
    return kExitNotConverged;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string command = argv[1];

  if (command == "generate") {
    RandomWorkloadConfig config;
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
        config.seed = std::strtoull(argv[++i], nullptr, 10);
      } else if (std::strcmp(argv[i], "--tasks") == 0 && i + 1 < argc) {
        config.num_tasks = std::atoi(argv[++i]);
      } else if (std::strcmp(argv[i], "--resources") == 0 && i + 1 < argc) {
        config.num_resources = std::atoi(argv[++i]);
      } else {
        return Usage();
      }
    }
    if (config.num_tasks < 1 || config.num_resources < 1) return Usage();
    auto generated = MakeRandomWorkload(config);
    if (!generated.ok()) {
      std::fprintf(stderr, "generation failed: %s\n",
                   generated.error().c_str());
      return kExitRuntimeError;
    }
    const Status saved = SaveWorkloadToFile(generated.value(), argv[2]);
    if (!saved.ok()) {
      std::fprintf(stderr, "save failed: %s\n", saved.error().c_str());
      return kExitRuntimeError;
    }
    std::printf("wrote %s (%zu tasks, %zu subtasks, %d resources, "
                "seed %llu)\n",
                argv[2], generated.value().task_count(),
                generated.value().subtask_count(), config.num_resources,
                static_cast<unsigned long long>(config.seed));
    return 0;
  }

  // Reject unknown commands before touching the filesystem, so a bad command
  // name is a usage error (2), not a load error (3).
  if (command != "describe" && command != "solve" && command != "check" &&
      command != "simulate" && command != "trace" &&
      command != "checkpoint" && command != "churn") {
    return Usage();
  }

  auto workload = Load(argv[2]);
  if (!workload.ok()) return kExitLoadError;
  const Workload& w = workload.value();

  if (command == "describe") return Describe(w);

  if (command == "solve" || command == "checkpoint") {
    // `checkpoint` takes the snapshot path as its second positional
    // argument; flags start after it.
    const bool is_checkpoint = command == "checkpoint";
    std::string snapshot_path;
    int first_flag = 3;
    if (is_checkpoint) {
      if (argc < 4 || std::strncmp(argv[3], "--", 2) == 0) return Usage();
      snapshot_path = argv[3];
      first_flag = 4;
    }
    UtilityVariant variant = UtilityVariant::kPathWeighted;
    int iters = is_checkpoint ? 1000 : 12000;
    int threads = 1;
    double epsilon_quiescence = 0.0;
    DynamicsConfig dynamics;
    std::string restore_path;
    bool binary_format = false;
    bool threads_seen = false;
    int round_threads = 0;
    bool round_threads_seen = false;
    bool engine_only_flag_seen = false;
    for (int i = first_flag; i < argc; ++i) {
      bool is_threads = false;
      bool is_round_threads = false;
      bool is_epsilon = false;
      bool is_dynamics = false;
      bool is_momentum = false;
      if (std::strcmp(argv[i], "--variant") == 0 && i + 1 < argc) {
        variant = std::strcmp(argv[++i], "sum") == 0
                      ? UtilityVariant::kSum
                      : UtilityVariant::kPathWeighted;
      } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
        iters = std::atoi(argv[++i]);
      } else if (!is_checkpoint &&
                 std::strncmp(argv[i], "--restore=", 10) == 0) {
        restore_path = argv[i] + 10;
        if (restore_path.empty()) return Usage();
        engine_only_flag_seen = true;
      } else if (is_checkpoint &&
                 std::strncmp(argv[i], "--format=", 9) == 0) {
        // Strict: exactly "text" or "binary", anything else is usage (2).
        const char* format = argv[i] + 9;
        if (std::strcmp(format, "binary") == 0) {
          binary_format = true;
        } else if (std::strcmp(format, "text") != 0) {
          return Usage();
        }
      } else if (!MatchThreadsFlag(argc, argv, &i, &threads, &is_threads)) {
        return Usage();
      } else if (is_threads) {
        // A repeated --threads is ambiguous (which value wins?); reject it
        // instead of silently taking the last one.
        if (threads_seen) return Usage();
        threads_seen = true;
        engine_only_flag_seen = true;
      } else if (!is_checkpoint &&
                 !MatchRoundThreadsFlag(argc, argv, &i, &round_threads,
                                        &is_round_threads)) {
        return Usage();
      } else if (is_round_threads) {
        if (round_threads_seen) return Usage();
        round_threads_seen = true;
      } else if (!MatchEpsilonFlag(argc, argv, &i, &epsilon_quiescence,
                                   &is_epsilon)) {
        return Usage();
      } else if (is_epsilon) {
        engine_only_flag_seen = true;
      } else if (!MatchDynamicsFlag(argc, argv, &i, &dynamics.kind,
                                    &is_dynamics)) {
        return Usage();
      } else if (is_dynamics) {
        // Valid on both paths: the engine's PriceDynamicsPolicy and the
        // distributed agents' per-resource dynamics (DESIGN.md §7.12).
      } else if (!MatchMomentumFlag(argc, argv, &i, &dynamics.momentum,
                                    &is_momentum)) {
        return Usage();
      } else if (!is_momentum) {
        return Usage();
      }
    }
    if (iters < 1) return Usage();
    if (is_checkpoint) {
      return Checkpoint(w, variant, iters, threads, epsilon_quiescence,
                        dynamics, snapshot_path, binary_format);
    }
    if (round_threads_seen) {
      // The distributed path has no engine to thread, restore, or damp;
      // mixing those flags in would silently do nothing, so reject.
      // (--dynamics/--momentum ARE honored here: they configure the shard
      // agents' accelerated mu updates.)
      if (engine_only_flag_seen) return Usage();
      return SolveDistributed(w, variant, iters, round_threads, dynamics);
    }
    return Solve(w, variant, iters, threads, epsilon_quiescence, dynamics,
                 restore_path);
  }

  if (command == "trace") {
    UtilityVariant variant = UtilityVariant::kPathWeighted;
    int iters = 12000;
    int threads = 1;
    DynamicsConfig dynamics;
    std::string out_path = "-";
    for (int i = 3; i < argc; ++i) {
      bool is_threads = false;
      bool is_dynamics = false;
      bool is_momentum = false;
      if (std::strcmp(argv[i], "--variant") == 0 && i + 1 < argc) {
        variant = std::strcmp(argv[++i], "sum") == 0
                      ? UtilityVariant::kSum
                      : UtilityVariant::kPathWeighted;
      } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
        iters = std::atoi(argv[++i]);
      } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
        out_path = argv[++i];
      } else if (!MatchThreadsFlag(argc, argv, &i, &threads, &is_threads)) {
        return Usage();
      } else if (is_threads) {
      } else if (!MatchDynamicsFlag(argc, argv, &i, &dynamics.kind,
                                    &is_dynamics)) {
        return Usage();
      } else if (is_dynamics) {
      } else if (!MatchMomentumFlag(argc, argv, &i, &dynamics.momentum,
                                    &is_momentum)) {
        return Usage();
      } else if (!is_momentum) {
        return Usage();
      }
    }
    if (iters < 1) return Usage();
    return Trace(w, variant, iters, out_path, threads, dynamics);
  }

  if (command == "check") {
    int iters = 2000;
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
        iters = std::atoi(argv[++i]);
      } else {
        return Usage();
      }
    }
    if (iters < 1) return Usage();
    return Check(w, iters);
  }

  if (command == "simulate") {
    if (argc < 4) return Usage();
    const double seconds = std::atof(argv[3]);
    if (seconds <= 0.0) return Usage();
    bool use_sfs = false;
    for (int i = 4; i < argc; ++i) {
      if (std::strcmp(argv[i], "--sfs") == 0) {
        use_sfs = true;
      } else {
        return Usage();
      }
    }
    return Simulate(w, seconds, use_sfs);
  }

  if (command == "churn") {
    std::size_t mutations = 50;
    std::uint64_t seed = 1;
    int threads = 1;
    for (int i = 3; i < argc; ++i) {
      bool is_threads = false;
      if (std::strncmp(argv[i], "--mutations=", 12) == 0) {
        const int value = std::atoi(argv[i] + 12);
        if (value < 1) return Usage();
        mutations = static_cast<std::size_t>(value);
      } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
        seed = std::strtoull(argv[i] + 7, nullptr, 10);
      } else if (!MatchThreadsFlag(argc, argv, &i, &threads, &is_threads)) {
        return Usage();
      } else if (!is_threads) {
        return Usage();
      }
    }
    return Churn(w, mutations, seed, threads);
  }

  return Usage();
}
