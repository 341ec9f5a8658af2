// lla — command-line front end for the library.
//
//   lla solve <workload-file> [--variant sum|path-weighted] [--iters N]
//       Optimize and print the latency assignment, shares and prices.
//       --restore <snapshot> resumes the dual iteration from a snapshot
//       written by `lla checkpoint` (bit-identical resume); the image's
//       shape must match the workload before any section is decoded
//       (DESIGN.md §7.11).
//       --round-threads N runs the distributed synchronous deployment
//       instead of the single-process engine: min(8, R) shard agents plus
//       parallel coordinator rounds on an N-thread pool (bit-identical to
//       N=1 at any thread count, DESIGN.md §7.11).
//   lla checkpoint <workload-file> <snapshot-file> [--iters N]
//       Run N iterations, then save the engine's dual state (prices, step
//       multipliers, momentum state) as a b1 snapshot (DESIGN.md §7.10).
//   lla inspect <snapshot-file>
//       Print a snapshot's header and one row per section: name, element
//       kind, encoding, element count and encoded bytes (retired sections
//       of older images are marked and ignored on restore).
//   lla check <workload-file> [--iters N]
//       Schedulability verdict (LLA run + Phase-I cross-check).
//   lla simulate <workload-file> <seconds> [--sfs]
//       Optimize, enact, execute on the DES substrate, report percentiles.
//       The first second is warm-up and records nothing; a task with no
//       recorded job prints "no jobs", and a run with none fails.
//   lla describe <workload-file>
//       Validate and summarize the workload.
//   lla generate <output-file> [--seed N] [--tasks N] [--resources N]
//       Generate a random schedulable workload file.
//   lla trace <workload-file> [--iters N] [--out path]
//       Optimize while streaming per-iteration JSONL (default: stdout);
//       engine phase timings and counters go to stderr.
//   lla churn <workload-file> [--mutations N] [--seed S] [--threads N]
//       Apply a deterministic join/leave/WCET mutation storm against the
//       live engine (admission-gated joins, structural warm starts) and
//       report sustained mutations/sec and re-convergence percentiles.
//
// Every flag is one row of kFlags.  A flag takes its value as `--flag value`
// or `--flag=value` (the `--sfs` switch takes none), may appear once, and
// its value must parse in full and lie in range; anything else is a usage
// error.
//
// Exit codes: 0 success; 1 runtime error (generation/save failure, or a
// simulation in which no job set completed); 2 usage; 3 workload or
// snapshot load/parse error; 4 solve not converged / infeasible (or
// workload unschedulable for `check`).
//
// Example files live in examples/data/.
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <string>
#include <utility>

#include "common/stats.h"
#include "core/engine.h"
#include "runtime/churn.h"
#include "runtime/coordinator.h"
#include "workloads/transform.h"
#include "core/schedulability.h"
#include "model/evaluation.h"
#include "model/section_codec.h"
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
               "[--threads N]\n"
               "            [--dynamics plain|heavy-ball|nesterov] "
               "[--momentum B] [--restore snapshot] [--round-threads N]\n"
               "            (--dynamics/--momentum apply to both the engine "
               "and the --round-threads distributed path)\n"
               "  lla checkpoint <file> <snapshot> [--variant "
               "sum|path-weighted] [--iters N] [--threads N]\n"
               "            [--dynamics plain|heavy-ball|nesterov] "
               "[--momentum B]\n"
               "  lla inspect <snapshot>\n"
               "  lla check <file> [--iters N]\n"
               "  lla simulate <file> <seconds> [--sfs]\n"
               "  lla describe <file>\n"
               "  lla generate <file> [--seed N] [--tasks N] "
               "[--resources N]\n"
               "  lla trace <file> [--variant sum|path-weighted] [--iters N] "
               "[--out path] [--threads N]\n"
               "            [--dynamics plain|heavy-ball|nesterov] "
               "[--momentum B]\n"
               "  lla churn <file> [--mutations N] [--seed S] [--threads N]\n"
               "flags take `--flag value` or `--flag=value`, at most once "
               "each\n"
               "exit codes: 0 ok, 1 runtime error, 2 usage, 3 load error, "
               "4 not converged/infeasible\n");
  return kExitUsage;
}

enum Command : unsigned {
  kSolve = 1u << 0,
  kCheckpoint = 1u << 1,
  kInspect = 1u << 2,
  kCheck = 1u << 3,
  kSimulate = 1u << 4,
  kDescribe = 1u << 5,
  kGenerate = 1u << 6,
  kTrace = 1u << 7,
  kChurn = 1u << 8,
};

struct CommandSpec {
  const char* name;
  Command command;
  int positionals;    ///< arguments between the command and its flags
  int default_iters;  ///< --iters when not given
};

constexpr CommandSpec kCommands[] = {
    {"solve", kSolve, 1, 12000},   {"checkpoint", kCheckpoint, 2, 1000},
    {"inspect", kInspect, 1, 0},   {"check", kCheck, 1, 2000},
    {"simulate", kSimulate, 2, 0}, {"describe", kDescribe, 1, 0},
    {"generate", kGenerate, 1, 0}, {"trace", kTrace, 1, 12000},
    {"churn", kChurn, 1, 0},
};

/// Every flag's value, at its default until the flag is given.
struct Options {
  UtilityVariant variant = UtilityVariant::kPathWeighted;
  int iters = 0;
  int threads = 1;
  int round_threads = 0;  ///< 0: the single-process engine
  DynamicsConfig dynamics;
  std::string restore_path;
  std::string out_path = "-";
  bool sfs = false;
  std::uint64_t seed = 1;
  int tasks = RandomWorkloadConfig{}.num_tasks;
  int resources = RandomWorkloadConfig{}.num_resources;
  int mutations = 50;
  unsigned given = 0;  ///< bit i set: kFlags[i] appeared
};

// Strict value parsers: the whole token must parse and lie in range.

/// Decimal digits only (no sign, blank or base prefix) in [min, max].
template <typename T>
bool ParseInteger(const char* text, unsigned long long min,
                  unsigned long long max, T* out) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE || value < min || value > max) {
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

/// A finite, unsigned decimal ("1.5", "2e-3", ".5"; not "-1", "inf", "nan").
bool ParseFinite(const char* text, double* out) {
  if (!std::isdigit(static_cast<unsigned char>(text[0])) && text[0] != '.') {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (*end != '\0' || errno == ERANGE || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

/// [0, 1): the range DynamicsConfig accepts for the momentum (beta = 1
/// would make the velocity recursion marginally stable).
bool ParseFraction(const char* text, double* out) {
  double value = 0.0;
  if (!ParseFinite(text, &value) || value >= 1.0) return false;
  *out = value;
  return true;
}

/// Exactly the ToString() name of one of `values`.
template <typename E>
bool ParseName(const char* text, std::initializer_list<E> values, E* out) {
  for (const E value : values) {
    if (std::strcmp(text, ToString(value)) == 0) {
      *out = value;
      return true;
    }
  }
  return false;
}

bool ParsePath(const char* text, std::string* out) {
  if (text[0] == '\0') return false;
  *out = text;
  return true;
}

constexpr unsigned kEngineCommands = kSolve | kCheckpoint | kTrace;
constexpr unsigned long long kMaxInt = INT_MAX;
constexpr unsigned long long kMaxThreads = 4096;

struct Flag {
  const char* name;
  unsigned commands;  ///< Command bits that accept the flag
  /// Parses the value into Options; false rejects it.  A switch takes no
  /// value and gets nullptr.
  bool (*apply)(const char* value, Options* options);
  bool is_switch = false;
};

const Flag kFlags[] = {
    {"--variant", kEngineCommands,
     [](const char* v, Options* o) {
       return ParseName(
           v, {UtilityVariant::kSum, UtilityVariant::kPathWeighted},
           &o->variant);
     }},
    {"--iters", kEngineCommands | kCheck,
     [](const char* v, Options* o) {
       return ParseInteger(v, 1, kMaxInt, &o->iters);
     }},
    {"--threads", kEngineCommands | kChurn,
     [](const char* v, Options* o) {
       return ParseInteger(v, 1, kMaxThreads, &o->threads);
     }},
    {"--round-threads", kSolve,
     [](const char* v, Options* o) {
       return ParseInteger(v, 1, kMaxThreads, &o->round_threads);
     }},
    {"--dynamics", kEngineCommands,
     [](const char* v, Options* o) {
       return ParseName(v,
                        {DynamicsKind::kPlain, DynamicsKind::kHeavyBall,
                         DynamicsKind::kNesterov},
                        &o->dynamics.kind);
     }},
    {"--momentum", kEngineCommands,
     [](const char* v, Options* o) {
       return ParseFraction(v, &o->dynamics.momentum);
     }},
    {"--restore", kSolve,
     [](const char* v, Options* o) { return ParsePath(v, &o->restore_path); }},
    {"--out", kTrace,
     [](const char* v, Options* o) { return ParsePath(v, &o->out_path); }},
    {"--sfs", kSimulate,
     [](const char*, Options* o) {
       o->sfs = true;
       return true;
     },
     true},
    {"--seed", kGenerate | kChurn,
     [](const char* v, Options* o) {
       return ParseInteger(v, 0, ULLONG_MAX, &o->seed);
     }},
    {"--tasks", kGenerate,
     [](const char* v, Options* o) {
       return ParseInteger(v, 1, kMaxInt, &o->tasks);
     }},
    {"--resources", kGenerate,
     [](const char* v, Options* o) {
       return ParseInteger(v, 1, kMaxInt, &o->resources);
     }},
    {"--mutations", kChurn,
     [](const char* v, Options* o) {
       return ParseInteger(v, 1, kMaxInt, &o->mutations);
     }},
};
static_assert(std::size(kFlags) <= sizeof(Options::given) * CHAR_BIT);

/// Parses argv[first, argc) against the flags `command` accepts.  False on
/// a usage error: an unknown or repeated flag, a missing value, or a value
/// its parser rejects.
bool ParseFlags(int argc, char** argv, int first, Command command,
                Options* options) {
  for (int i = first; i < argc; ++i) {
    const char* arg = argv[i];
    const char* eq = std::strchr(arg, '=');
    const std::size_t name_length =
        eq != nullptr ? static_cast<std::size_t>(eq - arg) : std::strlen(arg);
    const Flag* flag = std::find_if(
        std::begin(kFlags), std::end(kFlags), [&](const Flag& f) {
          return (f.commands & command) != 0 &&
                 std::strlen(f.name) == name_length &&
                 std::strncmp(f.name, arg, name_length) == 0;
        });
    if (flag == std::end(kFlags)) return false;
    const unsigned bit = 1u << (flag - std::begin(kFlags));
    if ((options->given & bit) != 0) return false;
    options->given |= bit;
    const char* value = nullptr;
    if (flag->is_switch) {
      if (eq != nullptr) return false;
    } else if (eq != nullptr) {
      value = eq + 1;
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    if (!flag->apply(value, options)) return false;
  }
  return true;
}

bool Given(const Options& options, const char* name) {
  for (std::size_t i = 0; i < std::size(kFlags); ++i) {
    if (std::strcmp(kFlags[i].name, name) == 0) {
      return ((options.given >> i) & 1u) != 0;
    }
  }
  return false;
}

/// The one engine configuration of every command.  `check`, `simulate` and
/// `churn` accept no variant or dynamics flag, and only `churn` a thread
/// flag, so theirs keep LlaConfig's defaults there; the distributed
/// `solve --round-threads` path takes its gamma0.
LlaConfig EngineConfig(const Options& options) {
  LlaConfig config;
  config.solver.variant = options.variant;
  config.gamma0 = 3.0;
  config.num_threads = options.threads;
  config.dynamics = options.dynamics;
  return config;
}

int RunExitCode(const RunResult& run) {
  return run.converged && run.final_feasibility.feasible ? kExitSuccess
                                                         : kExitNotConverged;
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
                t.paths.size(), t.utility.Describe().c_str(),
                t.trigger.MeanRatePerSecond());
  }
  return 0;
}

/// The allocation tables `solve` prints, for the engine and the distributed
/// deployment alike.
void PrintAllocation(const Workload& w, const LatencyModel& model,
                     const Assignment& latencies,
                     const FeasibilityReport& report,
                     const std::vector<double>& mu) {
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
                resource.capacity, mu[resource.id.value()]);
  }
}

int Solve(const Workload& w, const Options& options) {
  LatencyModel model(w);
  LlaEngine engine(w, model, EngineConfig(options));
  if (!options.restore_path.empty()) {
    const char* path = options.restore_path.c_str();
    auto snapshot = LoadSnapshotFromFile(options.restore_path, w);
    if (!snapshot.ok()) {
      std::fprintf(stderr, "error loading snapshot %s: %s\n", path,
                   snapshot.error().c_str());
      return kExitLoadError;
    }
    const long long resume_iteration = snapshot.value().iteration;
    const Status restored = engine.Restore(std::move(snapshot).value());
    if (!restored.ok()) {
      std::fprintf(stderr, "error restoring snapshot %s: %s\n", path,
                   restored.error().c_str());
      return kExitLoadError;
    }
    std::printf("restored dual state from %s (resuming at iteration %lld)\n",
                path, resume_iteration);
  }
  const RunResult run = engine.Run(options.iters);
  std::printf("%s after %" PRId64 " iterations; utility %.3f (%s variant); "
              "feasible: %s\n",
              run.converged ? "converged" : "NOT converged", run.iterations,
              run.final_utility, ToString(options.variant),
              run.final_feasibility.feasible ? "yes" : "no");
  PrintAllocation(w, model, engine.latencies(), engine.Feasibility(),
                  engine.prices().mu);
  return RunExitCode(run);
}

// `lla solve --round-threads=N`: the distributed synchronous deployment —
// min(8, R) shard agents on an in-process bus, with the coordinator fanning
// each round's controller solves and shard price updates across an
// N-thread pool (DESIGN.md §7.11).  The fixed point is bit-identical at any
// thread count, so N only changes wall-clock time.
int SolveDistributed(const Workload& w, const Options& options) {
  LatencyModel model(w);
  runtime::CoordinatorConfig config;
  config.solver.variant = options.variant;
  config.step.gamma0 = EngineConfig(options).gamma0;
  // Accelerated mu dynamics for the shard agents (DESIGN.md §7.12).
  config.dynamics = options.dynamics;
  config.bus.base_delay_ms = 0.0;
  config.record_history = false;
  config.num_shards = static_cast<int>(
      std::min<std::size_t>(8, w.resource_count()));
  config.round_threads = options.round_threads;
  runtime::Coordinator coordinator(w, model, config);
  const RunResult run = coordinator.RunSync(options.iters);
  std::printf("%s after %" PRId64 " distributed rounds (%d round threads, %zu "
              "shards); utility %.3f (%s variant); feasible: %s\n",
              run.converged ? "converged" : "NOT converged", run.iterations,
              options.round_threads, coordinator.shard_count(),
              run.final_utility, ToString(options.variant),
              run.final_feasibility.feasible ? "yes" : "no");
  PrintAllocation(w, model, coordinator.CurrentAssignment(),
                  coordinator.CurrentFeasibility(),
                  coordinator.CurrentPrices().mu);
  return RunExitCode(run);
}

int Checkpoint(const Workload& w, const char* snapshot_path,
               const Options& options) {
  LatencyModel model(w);
  LlaEngine engine(w, model, EngineConfig(options));
  const RunResult run = engine.Run(options.iters);
  const Status saved = SaveSnapshotToFile(engine.Checkpoint(), snapshot_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "error saving snapshot %s: %s\n", snapshot_path,
                 saved.error().c_str());
    return kExitRuntimeError;
  }
  std::printf("wrote %s at iteration %" PRId64 " (%s, utility %.6f); "
              "resume with `lla solve ... --restore=%s`\n",
              snapshot_path, run.iterations,
              run.converged ? "converged" : "not converged",
              run.final_utility, snapshot_path);
  return kExitSuccess;
}

int Inspect(const char* path) {
  auto file = ReadSnapshotFile(path);
  if (!file.ok()) {
    std::fprintf(stderr, "error loading snapshot %s: %s\n", path,
                 file.error().c_str());
    return kExitLoadError;
  }
  auto parsed = ParseSnapshotBinary(file.value().data(), file.value().size());
  if (!parsed.ok()) {
    std::fprintf(stderr, "error loading snapshot %s: %s\n", path,
                 parsed.error().c_str());
    return kExitLoadError;
  }
  const SnapshotView& view = parsed.value();
  using ull = unsigned long long;
  std::printf("%s: snapshot b1, %zu bytes\n", path, file.value().size());
  std::printf("shape: %llu resources, %llu paths, %llu subtasks, %llu "
              "tasks\n",
              static_cast<ull>(view.resource_count),
              static_cast<ull>(view.path_count),
              static_cast<ull>(view.subtask_count),
              static_cast<ull>(view.task_count));
  std::printf("iteration %lld (step iteration %lld, %llu subtask solves), "
              "converged: %s, momentum restarts: %llu\n",
              static_cast<long long>(view.iteration),
              static_cast<long long>(view.step_iteration),
              static_cast<ull>(view.total_subtask_solves),
              view.converged ? "yes" : "no",
              static_cast<ull>(view.momentum_restarts));
  std::printf("\n%-26s %-4s %-8s %10s %12s\n", "section", "kind", "encoding",
              "count", "bytes");
  for (std::size_t id = 1; id <= SnapshotView::kMaxSectionId; ++id) {
    const SnapshotSectionRef& section = view.sections[id];
    if (!section.present()) continue;
    std::printf("%-26s %-4s %-8s %10llu %12llu%s\n",
                kSnapshotSections[id].name,
                kSnapshotElemKinds[section.elem_kind].name,
                b1::kEncodingNames[section.encoding],
                static_cast<ull>(section.count),
                static_cast<ull>(section.size),
                kSnapshotSections[id].retired ? "  retired" : "");
  }
  return kExitSuccess;
}

int Trace(const Workload& w, const Options& options) {
  obs::JsonlTraceSink sink(options.out_path);
  if (!sink.ok()) {
    std::fprintf(stderr, "error opening trace output %s\n",
                 options.out_path.c_str());
    return kExitRuntimeError;
  }
  obs::MetricRegistry metrics;
  LatencyModel model(w);
  LlaConfig config = EngineConfig(options);
  config.trace_sink = &sink;
  config.metrics = &metrics;

  obs::RunInfo info;
  info.label = ToString(options.variant);
  info.resource_count = w.resource_count();
  info.path_count = w.path_count();
  sink.OnRunBegin(info);
  LlaEngine engine(w, model, config);
  const RunResult run = engine.Run(options.iters);
  sink.OnRunEnd();
  if (!sink.ok()) {
    std::fprintf(stderr, "error writing trace output %s\n",
                 options.out_path.c_str());
    return kExitRuntimeError;
  }

  std::fprintf(stderr,
               "%s after %" PRId64 " iterations; utility %.6f; feasible: %s\n",
               run.converged ? "converged" : "NOT converged", run.iterations,
               run.final_utility,
               run.final_feasibility.feasible ? "yes" : "no");
  std::fprintf(stderr, "%s", metrics.Snapshot().RenderText().c_str());
  return RunExitCode(run);
}

int Check(const Workload& w, const Options& options) {
  LatencyModel model(w);
  SchedulabilityConfig config;
  config.lla = EngineConfig(options);
  config.max_iterations = options.iters;
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

int Simulate(const Workload& w, double seconds, const Options& options) {
  LatencyModel model(w);
  LlaEngine engine(w, model, EngineConfig(options));
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
  if (options.sfs) sim_config.scheduler = sim::SchedulerKind::kSurplusFair;
  sim::SystemSimulator simulator(w, sim_config);
  const sim::SimResult result = simulator.Run(shares);

  std::printf("simulated %.1f s under the optimized shares (%s scheduler): "
              "%llu job sets\n\n",
              seconds, options.sfs ? "surplus-fair" : "fluid GPS",
              static_cast<unsigned long long>(result.job_sets_completed));
  std::printf("%-24s %10s %10s %10s %12s\n", "task", "p50(ms)", "p95(ms)",
              "p99(ms)", "deadline");
  for (const TaskInfo& task : w.tasks()) {
    const auto& q = result.task_latencies[task.id.value()];
    const char* verdict = q.count() == 0 ? "no jobs"
                          : q.Value(0.99) <= task.critical_time_ms ? "ok"
                                                                   : "MISS";
    std::printf("%-24s %10.2f %10.2f %10.2f %12.1f  %s\n",
                task.name.c_str(), q.Value(0.50), q.Value(0.95),
                q.Value(0.99), task.critical_time_ms, verdict);
  }
  // The simulator records nothing during its warm-up, so a run no longer
  // than it has no latency to judge.
  if (result.job_sets_completed == 0) {
    std::fprintf(stderr,
                 "no job set completed after the first %.1f s, which the "
                 "simulator discards as warm-up; simulate for longer\n",
                 sim_config.warmup_ms / 1000.0);
    return kExitRuntimeError;
  }
  return kExitSuccess;
}

int Generate(const char* path, const Options& options) {
  RandomWorkloadConfig config;
  config.seed = options.seed;
  config.num_tasks = options.tasks;
  config.num_resources = options.resources;
  auto generated = MakeRandomWorkload(config);
  if (!generated.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 generated.error().c_str());
    return kExitRuntimeError;
  }
  const Status saved = SaveWorkloadToFile(generated.value(), path);
  if (!saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.error().c_str());
    return kExitRuntimeError;
  }
  std::printf("wrote %s (%zu tasks, %zu subtasks, %d resources, seed %llu)\n",
              path, generated.value().task_count(),
              generated.value().subtask_count(), config.num_resources,
              static_cast<unsigned long long>(config.seed));
  return 0;
}

int Churn(const Workload& w, const Options& options) {
  const WorkloadSpecs specs = ExtractSpecs(w);

  runtime::ChurnConfig config;
  config.lla = EngineConfig(options);
  config.lla.record_history = false;
  config.min_tasks = 1;
  config.admission.lla = config.lla;
  config.admission.probe_threads = options.threads;

  runtime::ChurnScriptConfig script_config;
  script_config.seed = options.seed;
  script_config.mutations = static_cast<std::size_t>(options.mutations);
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
  if (argc < 2) return Usage();
  const CommandSpec* spec = std::find_if(
      std::begin(kCommands), std::end(kCommands),
      [&](const CommandSpec& c) { return std::strcmp(c.name, argv[1]) == 0; });
  if (spec == std::end(kCommands)) return Usage();
  const int first_flag = 2 + spec->positionals;
  if (argc < first_flag) return Usage();
  for (int i = 2; i < first_flag; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) return Usage();
  }
  Options options;
  options.iters = spec->default_iters;
  if (!ParseFlags(argc, argv, first_flag, spec->command, &options)) {
    return Usage();
  }
  // Usage errors are all reported before touching the filesystem, so a bad
  // invocation is a 2, never a 3.
  double seconds = 0.0;
  if (spec->command == kSimulate &&
      (!ParseFinite(argv[3], &seconds) || seconds <= 0.0)) {
    return Usage();
  }
  // The distributed path has no engine to thread or restore; those flags
  // would silently do nothing there, so reject the mix.
  // (--dynamics/--momentum ARE honored: they configure the shard agents'
  // accelerated mu updates, DESIGN.md §7.12.)
  if (options.round_threads > 0 &&
      (Given(options, "--threads") || Given(options, "--restore"))) {
    return Usage();
  }

  const char* path = argv[2];
  if (spec->command == kGenerate) return Generate(path, options);
  if (spec->command == kInspect) return Inspect(path);

  auto workload = Load(path);
  if (!workload.ok()) return kExitLoadError;
  const Workload& w = workload.value();
  switch (spec->command) {
    case kSolve:
      return options.round_threads > 0 ? SolveDistributed(w, options)
                                       : Solve(w, options);
    case kCheckpoint:
      return Checkpoint(w, argv[3], options);
    case kCheck:
      return Check(w, options);
    case kSimulate:
      return Simulate(w, seconds, options);
    case kDescribe:
      return Describe(w);
    case kTrace:
      return Trace(w, options);
    case kChurn:
      return Churn(w, options);
    case kInspect:
    case kGenerate:
      break;
  }
  return Usage();
}
