#include "workloads.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#include "churn_stream.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/latency_solver.h"
#include "gap.h"
#include "model/evaluation.h"
#include "model/latency_model.h"
#include "model/serialization.h"
#include "obs/metrics.h"
#include "probe.h"
#include "runtime/churn.h"
#include "runtime/coordinator.h"
#include "solver/kkt.h"
#include "spans.h"
#include "stats.h"
#include "workloads/random.h"
#include "workloads/transform.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using lla::runtime::ChurnKind;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

double MsBetween(Clock::time_point start, Clock::time_point stop) {
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

std::int64_t Ns(Clock::time_point at) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             at.time_since_epoch())
      .count();
}


// Reads workload parameters by name and reports missing or unused keys.
class Params {
 public:
  explicit Params(const std::map<std::string, double>& values)
      : values_(values) {}

  double Get(const std::string& key) {
    read_.push_back(key);
    const auto it = values_.find(key);
    if (it == values_.end()) {
      errors_.push_back("missing parameter " + key);
      return 0.0;
    }
    return it->second;
  }
  int GetInt(const std::string& key) {
    const double value = Get(key);
    if (value != std::floor(value) || value < 0.0 || value > 1e9) {
      errors_.push_back("parameter " + key + " must be a whole number");
      return 0;
    }
    return static_cast<int>(value);
  }
  /// False (with reasons in `notes`) on a missing or unread key.
  bool Finish(std::vector<std::string>* notes) const {
    for (const auto& [key, value] : values_) {
      if (std::find(read_.begin(), read_.end(), key) == read_.end()) {
        notes->push_back("unknown parameter " + key);
      }
    }
    notes->insert(notes->end(), errors_.begin(), errors_.end());
    return errors_.empty() &&
           std::all_of(values_.begin(), values_.end(), [&](const auto& kv) {
             return std::find(read_.begin(), read_.end(), kv.first) !=
                    read_.end();
           });
  }

 private:
  const std::map<std::string, double>& values_;
  std::vector<std::string> read_;
  std::vector<std::string> errors_;
};

// Everything about one op that must repeat bit for bit from pass to pass
// and between the untraced and traced runs.
struct Outcome {
  bool ok = false;
  std::int64_t rounds = 0;  ///< engine steps, coordinator rounds, or the
                            ///< live engine's re-convergence steps
  std::uint64_t wire_bytes = 0;
  double gap_ppm = kNaN;  ///< NaN where no assignment was produced
  double kkt_stationarity = kNaN;
  double kkt_complementarity = kNaN;
  // dist_solve
  std::uint64_t messages = 0;
  std::uint64_t dropped = 0;
  // churn_serve
  ChurnKind kind = ChurnKind::kJoin;
  bool applied = false;
  bool fallback = false;
  std::size_t live_tasks = 0;  ///< after the mutation
};

// Every field of an outcome as bits, doubles included, so equality is exact.
std::array<std::uint64_t, 12> Bits(const Outcome& o) {
  return {o.ok,
          static_cast<std::uint64_t>(o.rounds),
          o.wire_bytes,
          std::bit_cast<std::uint64_t>(o.gap_ppm),
          std::bit_cast<std::uint64_t>(o.kkt_stationarity),
          std::bit_cast<std::uint64_t>(o.kkt_complementarity),
          o.messages,
          o.dropped,
          static_cast<std::uint64_t>(o.kind),
          o.applied,
          o.fallback,
          o.live_tasks};
}

// FNV-1a over the outcomes, printed so runs in separate processes can be
// compared by eye.
std::uint64_t Digest(const std::vector<Outcome>& outcomes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const Outcome& o : outcomes) {
    for (std::uint64_t value : Bits(o)) {
      for (int byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (8 * byte)) & 0xff;
        hash *= 0x100000001b3ULL;
      }
    }
  }
  return hash;
}

// One pass over the op list: per-op service time and outcome.
struct Pass {
  std::vector<double> service_ms;
  std::vector<std::int64_t> start_ns;  ///< when each op started
  std::vector<Outcome> outcomes;

  void Time(Clock::time_point start) {
    start_ns.push_back(Ns(start));
    service_ms.push_back(MsBetween(start, Clock::now()));
  }
};

// Per-layer figures a traced pass collects besides its spans.
struct LayerCounts {
  double engine_solve_ms = 0.0;        ///< engine.solve timer
  double engine_price_ms = 0.0;        ///< engine.price_update timer
  double subtasks_solved = 0.0;        ///< active-set work
  double subtask_steps = 0.0;          ///< subtasks x steps (dense work)
  std::vector<double> probe_ms;        ///< per join, admission engine time
  std::size_t joins = 0;
  std::size_t joins_admitted = 0;
};

// The per-workload pass body: sets up, then fills `pass` for every op; with
// a recorder it is the traced form and also fills `layers`.
using PassFn = std::function<void(SpanRecorder* recorder, LayerCounts* layers,
                                  Pass* pass)>;

struct PassLog {
  std::vector<Pass> untraced;
  std::vector<Pass> traced;
  SpanRecorder spans;   ///< the first traced pass's
  LayerCounts layers;   ///< the first traced pass's
  std::vector<std::pair<std::int64_t, double>> setups;  ///< (start ns, s)
};

// Scales every op and set-up time in `log` to the probe's reference host
// speed and returns the scaled set-up times; the note keeps the raw figures.
std::vector<double> ScaleToProbe(const HostProbe& probe, PassLog* log,
                                 Report* report) {
  std::vector<double> raw_ms;
  for (std::vector<Pass>* passes : {&log->untraced, &log->traced}) {
    for (Pass& pass : *passes) {
      for (std::size_t op = 0; op < pass.service_ms.size(); ++op) {
        raw_ms.push_back(pass.service_ms[op]);
        pass.service_ms[op] *= probe.ScaleAt(pass.start_ns[op]);
      }
    }
  }
  std::vector<double> setup_s;
  for (const auto& [start_ns, seconds] : log->setups) {
    setup_s.push_back(seconds * probe.ScaleAt(start_ns));
  }
  char line[240];
  std::snprintf(line, sizeof line,
                "times scaled to the host speed where the probe kernel takes "
                "%g ms: %zu probes, median %.4f ms; unscaled median op "
                "%.4f ms",
                HostProbe::kReferenceMs, probe.count(), probe.MedianMs(),
                Median(raw_ms));
  report->notes.push_back(line);
  return setup_s;
}

// Runs passes until `seconds` have passed: untraced only, or (traced run)
// untraced and traced passes in turn, at least one of each.  Span names must
// be interned in log->spans before the call.
void RunPasses(const RunConfig& config, const PassFn& run_pass, PassLog* log) {
  const auto start = Clock::now();
  SpanRecorder scratch_spans = log->spans;  // same names, for later passes
  LayerCounts scratch_layers;
  bool next_traced = false;
  while (true) {
    const bool have_untraced = !log->untraced.empty();
    const bool have_traced = !config.trace || !log->traced.empty();
    if (have_untraced && have_traced &&
        MsBetween(start, Clock::now()) >= config.seconds * 1e3) {
      break;
    }
    Pass pass;
    if (next_traced) {
      const bool first = log->traced.empty();
      SpanRecorder* recorder = first ? &log->spans : &scratch_spans;
      LayerCounts* layers = first ? &log->layers : &scratch_layers;
      recorder->Clear();
      *layers = LayerCounts{};
      run_pass(recorder, layers, &pass);
      log->traced.push_back(std::move(pass));
    } else {
      run_pass(nullptr, nullptr, &pass);
      log->untraced.push_back(std::move(pass));
    }
    if (config.trace) next_traced = !next_traced;
  }
}

// Each op's median service time over the passes.
std::vector<double> MedianService(const std::vector<Pass>& passes) {
  std::vector<double> medians(passes.front().service_ms.size());
  std::vector<double> samples;
  for (std::size_t op = 0; op < medians.size(); ++op) {
    samples.clear();
    for (const Pass& pass : passes) samples.push_back(pass.service_ms[op]);
    medians[op] = Median(samples);
  }
  return medians;
}

// Every pass, traced or not, must reproduce the first untraced pass.
bool CheckRepeatable(const PassLog& log, Report* report) {
  const std::vector<Outcome>& reference = log.untraced.front().outcomes;
  bool same = true;
  const auto compare = [&](const std::vector<Pass>& passes, const char* what) {
    for (std::size_t p = 0; p < passes.size(); ++p) {
      const std::vector<Outcome>& outcomes = passes[p].outcomes;
      for (std::size_t op = 0; op < reference.size(); ++op) {
        if (outcomes.size() != reference.size() ||
            Bits(outcomes[op]) != Bits(reference[op])) {
          report->notes.push_back("CHECK FAILED: " + std::string(what) +
                                  " pass " + std::to_string(p) + " op " +
                                  std::to_string(op) +
                                  " differs from the first pass");
          same = false;
          break;
        }
      }
    }
  };
  compare(log.untraced, "untraced");
  compare(log.traced, "traced");
  char line[96];
  std::snprintf(line, sizeof line, "outcome digest %016llx (%zu ops)",
                static_cast<unsigned long long>(Digest(reference)),
                reference.size());
  report->notes.push_back(line);
  return same;
}

// The open-loop replay: the op list's service times cycled `cycles` times
// (closed-loop workloads in a fresh seeded order per cycle, the churn stream
// in its own order), offered at Poisson arrivals.  Many cycles keep the
// replayed percentiles from hanging on one draw of the arrival schedule.
struct Replay {
  std::vector<double> service_ms;  ///< in arrival order
  std::vector<double> unit_gaps;   ///< inter-arrival gaps at 1 op/s
};

Replay CycledReplay(const std::vector<double>& service_ms, int cycles,
                    bool shuffle, std::uint64_t seed) {
  Replay replay;
  lla::Rng rng(seed ^ 0x6a09e667f3bcc909ULL);
  std::vector<std::size_t> order(service_ms.size());
  std::iota(order.begin(), order.end(), 0);
  for (int c = 0; c < cycles; ++c) {
    for (std::size_t i = order.size(); shuffle && i > 1; --i) {
      std::swap(order[i - 1], order[rng.Below(i)]);
    }
    for (std::size_t op : order) replay.service_ms.push_back(service_ms[op]);
  }
  for (std::size_t k = 0; k < replay.service_ms.size(); ++k) {
    replay.unit_gaps.push_back(rng.Exponential(1.0));
  }
  return replay;
}

// Peak resident set of this process image, from VmHWM.  (getrusage's
// ru_maxrss would also count the parent's footprint at fork, which exec
// carries over.)
double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib * 1024.0 / 1e6;
}

std::string TailNote(const char* what, const Tail& tail, const char* unit) {
  char line[160];
  std::snprintf(line, sizeof line, "%s: p%g of %zu (%zu beyond) = %.4f %s",
                what, tail.percentile, tail.count, tail.beyond, tail.value,
                unit);
  return line;
}

// Metrics every workload reports.  `service_ms` holds each op's median
// untraced service time (MedianService); `p50_ms` and `tail_ms` are what a
// user waits at the workload's load, the tail at ladder rung `level`;
// `peak_rss_mb` is read when the passes end, before the analysis allocates
// its own arrays.
void AddEndToEnd(const std::vector<double>& setup_s, double peak_rss_mb,
                 const std::vector<double>& service_ms, double p50_ms,
                 double tail_ms, int level, const Replay& replay,
                 double limit_ms, const std::vector<Outcome>& outcomes,
                 Report* report) {
  std::vector<double> gaps;
  double rounds = 0.0, wire_kib = 0.0;
  for (const Outcome& o : outcomes) {
    if (o.ok && !std::isnan(o.gap_ppm)) gaps.push_back(o.gap_ppm);
    rounds += static_cast<double>(o.rounds);
    wire_kib += static_cast<double>(o.wire_bytes) / 1024.0;
  }
  const double ops = static_cast<double>(outcomes.size());
  char line[200];
  std::snprintf(line, sizeof line,
                "max_rate_in_limit: p%g of %zu replayed ops <= %g ms, rate "
                "<= capacity",
                LadderPercentile(level), replay.service_ms.size(), limit_ms);
  report->notes.push_back(line);
  report->metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"ops_per_s", Capacity(service_ms), "1/s"},
      {"op_ms_p50", p50_ms, "ms"},
      {"op_ms_tail", tail_ms, "ms"},
      {"gap_ppm", Median(gaps), "ppm"},
      {"rounds_per_op", rounds / ops, "rounds"},
      {"wire_kb_per_op", wire_kib / ops, "KiB"},
      {"max_rate_in_limit",
       MaxRateInLimit(replay.unit_gaps, replay.service_ms, limit_ms, level),
       "1/s"},
  };
}

// Certificate of an assignment at prices: gap and KKT residuals.
void Certify(const lla::Workload& workload, const lla::LatencyModel& model,
             const lla::LatencySolverConfig& solver_config,
             const lla::Assignment& latencies, const lla::PriceVector& prices,
             Outcome* outcome) {
  const double utility =
      lla::TotalUtility(workload, latencies, solver_config.variant);
  outcome->gap_ppm = GapPpm(
      DualValue(workload, model, prices, solver_config.variant), utility);
  const lla::LatencySolver solver(workload, model, solver_config);
  const lla::KktReport kkt = lla::CheckKkt(workload, model, solver, latencies,
                                           prices, solver_config.variant);
  outcome->kkt_stationarity = kkt.max_stationarity_violation;
  outcome->kkt_complementarity = kkt.max_complementarity_violation;
}

// Per-layer metric names in BENCHMARK.json order; a workload fills the ones
// its layers exercise and the rest report 0.
const std::vector<std::pair<std::string, std::string>>& LayerNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"workloads.generate_ms", "ms"},
      {"model.load_us", "us"},
      {"core.engine_build_us", "us"},
      {"core.step_us_p50", "us"},
      {"core.step_us_tail", "us"},
      {"core.iters_per_op", "count"},
      {"core.iters_p90", "count"},
      {"core.solve_share", "ratio"},
      {"core.active_ratio", "ratio"},
      {"solver.kkt_stationarity_p50", "residual"},
      {"solver.kkt_complementarity_p50", "residual"},
      {"admission.probe_ms_p50", "ms"},
      {"admission.probe_ms_tail", "ms"},
      {"admission.admit_ratio", "ratio"},
      {"runtime.coordinator_build_us", "us"},
      {"runtime.round_us_p50", "us"},
      {"runtime.round_us_tail", "us"},
      {"runtime.rounds_p90", "count"},
      {"runtime.churn_ms_p50.join", "ms"},
      {"runtime.churn_ms_p50.leave", "ms"},
      {"runtime.churn_ms_p50.wcet", "ms"},
      {"runtime.churn_iters.join", "count"},
      {"runtime.churn_iters.leave", "count"},
      {"runtime.churn_iters.wcet", "count"},
      {"runtime.churn_fallbacks", "count"},
      {"runtime.churn_wait_ms_tail", "ms"},
      {"runtime.live_tasks_p50", "tasks"},
      {"net.msgs_per_round", "msgs"},
      {"net.bytes_per_msg", "bytes"},
      {"net.dropped", "count"},
      {"obs.trace_overhead_pct", "%"},
  };
  return names;
}

void SetLayerMetrics(const std::map<std::string, double>& values,
                     Report* report) {
  report->metrics.clear();
  for (const auto& [name, unit] : LayerNames()) {
    const auto it = values.find(name);
    report->metrics.push_back(
        {name, it != values.end() ? it->second : 0.0, unit});
  }
}

// KKT residuals of the successful ops.
std::vector<double> KktResiduals(const std::vector<Outcome>& outcomes,
                                 bool stationarity) {
  std::vector<double> values;
  for (const Outcome& o : outcomes) {
    const double v = stationarity ? o.kkt_stationarity : o.kkt_complementarity;
    if (o.ok && !std::isnan(v)) values.push_back(v);
  }
  return values;
}

double OverheadPct(double traced, double untraced) {
  return (traced - untraced) / untraced * 100.0;
}

void WriteSpans(const RunConfig& config, const SpanRecorder& spans,
                Report* report) {
  if (config.spans_path.empty()) return;
  if (spans.Write(config.spans_path)) {
    report->notes.push_back("spans written to " + config.spans_path + " (" +
                            std::to_string(spans.size()) + " spans)");
  } else {
    report->correct = false;
    report->notes.push_back("CHECK FAILED: cannot write " + config.spans_path);
  }
}

// One tab-separated line per op: its median untraced service time and its
// outcome.
void WriteOps(const RunConfig& config, const std::vector<double>& service,
              const std::vector<Outcome>& outcomes, Report* report) {
  if (config.ops_path.empty()) return;
  std::FILE* file = std::fopen(config.ops_path.c_str(), "w");
  bool written = file != nullptr;
  if (written) {
    std::fprintf(file,
                 "op\tservice_ms\tok\trounds\twire_bytes\tgap_ppm\tkind\t"
                 "applied\tlive_tasks\n");
    for (std::size_t op = 0; op < outcomes.size(); ++op) {
      const Outcome& o = outcomes[op];
      std::fprintf(file, "%zu\t%.6f\t%d\t%lld\t%llu\t%.6g\t%d\t%d\t%zu\n", op,
                   service[op], o.ok ? 1 : 0, static_cast<long long>(o.rounds),
                   static_cast<unsigned long long>(o.wire_bytes), o.gap_ppm,
                   static_cast<int>(o.kind), o.applied ? 1 : 0, o.live_tasks);
    }
    written = std::fclose(file) == 0;
  }
  if (!written) {
    report->correct = false;
    report->notes.push_back("CHECK FAILED: cannot write " + config.ops_path);
  }
}

// ---------------------------------------------------------------------------
// engine_solve and dist_solve: one `lla solve` request per op over a seeded
// pool of random instances.

struct SolvePool {
  std::vector<std::string> texts;  ///< each instance's .lla text
  double generate_ms = 0.0;
};

// `size` instances of `shape` (its seed field ignored), seeded from `seed`.
bool MakeSolvePool(std::uint64_t seed, int size,
                   const lla::RandomWorkloadConfig& shape, SolvePool* pool,
                   std::string* error) {
  const auto start = Clock::now();
  lla::SplitMix64 seeds(seed);
  pool->texts.clear();
  for (int i = 0; i < size; ++i) {
    lla::RandomWorkloadConfig instance = shape;
    instance.seed = seeds.Next();
    auto workload = lla::MakeRandomWorkload(instance);
    if (!workload.ok()) {
      *error = "instance " + std::to_string(i) + ": " + workload.error();
      return false;
    }
    auto text = lla::SaveWorkloadToString(workload.value());
    if (!text.ok()) {
      *error = "instance " + std::to_string(i) + ": " + text.error();
      return false;
    }
    pool->texts.push_back(std::move(text).value());
  }
  pool->generate_ms = MsBetween(start, Clock::now());
  return true;
}

// `lla solve`'s engine settings: adaptive steps (the default policy),
// gamma0 = 3, path-weighted utility, active set on; history off.
lla::LlaConfig SolveEngineConfig() {
  lla::LlaConfig config;
  config.solver.variant = lla::UtilityVariant::kPathWeighted;
  config.step_policy = lla::StepPolicyKind::kAdaptive;
  config.gamma0 = 3.0;
  config.active_set.enabled = true;
  config.record_history = false;
  return config;
}

// `lla solve --round-threads=1`'s deployment.
lla::runtime::CoordinatorConfig SolveCoordinatorConfig(
    const lla::Workload& workload) {
  lla::runtime::CoordinatorConfig config;
  config.solver.variant = lla::UtilityVariant::kPathWeighted;
  config.step.gamma0 = 3.0;
  config.bus.base_delay_ms = 0.0;
  config.record_history = false;
  config.num_shards =
      static_cast<int>(std::min<std::size_t>(8, workload.resource_count()));
  config.round_threads = 1;
  return config;
}

Report RunSolve(const RunConfig& config, bool distributed) {
  Report report;
  Params params(config.params);
  const int budget = params.GetInt("budget");
  const int setups = params.GetInt("setups");
  const double limit_ms = params.Get("limit_ms");
  const int cycles = params.GetInt("replay_cycles");
  const std::uint64_t pool_seed =
      static_cast<std::uint64_t>(params.GetInt("pool_seed"));
  const int pool_size = params.GetInt("pool");
  lla::RandomWorkloadConfig shape;
  shape.num_resources = params.GetInt("resources");
  shape.num_tasks = params.GetInt("tasks");
  shape.min_subtasks = params.GetInt("min_subtasks");
  shape.max_subtasks = params.GetInt("max_subtasks");
  if (!params.Finish(&report.notes) || budget < 1 || setups < 1 ||
      pool_size < 1 || cycles < 1) {
    report.correct = false;
    return report;
  }

  PassLog log;
  SolvePool pool;
  std::string setup_error;
  HostProbe probe;

  const std::uint32_t kOp = log.spans.Name("op");
  const std::uint32_t kLoad = log.spans.Name("model.load");
  const std::uint32_t kBuild = log.spans.Name(
      distributed ? "runtime.coordinator_build" : "core.engine_build");
  const std::uint32_t kStep =
      log.spans.Name(distributed ? "runtime.round" : "core.step");
  bool load_failed = false;

  const PassFn run_pass = [&](SpanRecorder* recorder, LayerCounts* layers,
                              Pass* pass) {
    // Set-up, `setups` times per pass so its samples spread over the run:
    // generate the pool.
    for (int s = 0; s < setups; ++s) {
      probe.Tick();
      const std::int64_t start_ns = Ns(Clock::now());
      if (!MakeSolvePool(pool_seed, pool_size, shape, &pool, &setup_error)) {
        return;
      }
      log.setups.emplace_back(start_ns, pool.generate_ms / 1e3);
    }
    lla::obs::MetricRegistry registry;
    for (std::size_t op = 0; op < pool.texts.size(); ++op) {
      const std::uint32_t id = static_cast<std::uint32_t>(op);
      Outcome outcome;
      outcome.wire_bytes = distributed ? 0 : pool.texts[op].size();
      probe.Tick();
      const auto start = Clock::now();
      std::optional<ScopedSpan> op_span;
      if (recorder != nullptr) op_span.emplace(recorder, kOp, id);
      std::optional<lla::Expected<lla::Workload>> loaded;
      std::optional<lla::LatencyModel> model;
      {
        ScopedSpan span(recorder, kLoad, id);
        loaded.emplace(lla::LoadWorkloadFromString(pool.texts[op]));
        if (loaded->ok()) model.emplace(loaded->value());
      }
      if (!loaded->ok()) {
        load_failed = true;
        op_span.reset();
        pass->Time(start);
        pass->outcomes.push_back(outcome);
        continue;
      }
      const lla::Workload& workload = loaded->value();
      if (!distributed) {
        lla::LlaConfig engine_config = SolveEngineConfig();
        if (recorder != nullptr) engine_config.metrics = &registry;
        std::optional<lla::LlaEngine> engine;
        {
          ScopedSpan span(recorder, kBuild, id);
          engine.emplace(workload, *model, engine_config);
        }
        bool converged = false;
        if (recorder == nullptr) {
          converged = engine->Run(budget).converged;
        } else {
          // Run(budget), one span per Step().
          for (int i = 0; i < budget && !engine->Converged(); ++i) {
            ScopedSpan span(recorder, kStep, id);
            const lla::IterationStats stats = engine->Step();
            layers->subtasks_solved += stats.subtasks_solved;
            layers->subtask_steps +=
                static_cast<double>(workload.subtask_count());
          }
          converged = engine->Converged();
        }
        op_span.reset();
        pass->Time(start);
        outcome.rounds = engine->iteration();
        outcome.ok = converged &&
                     lla::CheckFeasibility(
                         workload, *model, engine->latencies(),
                         engine_config.convergence.feasibility_tol)
                         .feasible;
        Certify(workload, *model, engine_config.solver, engine->latencies(),
                engine->prices(), &outcome);
      } else {
        const lla::runtime::CoordinatorConfig coordinator_config =
            SolveCoordinatorConfig(workload);
        std::optional<lla::runtime::Coordinator> coordinator;
        {
          ScopedSpan span(recorder, kBuild, id);
          coordinator.emplace(workload, *model, coordinator_config);
        }
        bool converged = false;
        if (recorder == nullptr) {
          const lla::RunResult run = coordinator->RunSync(budget);
          converged = run.converged;
          outcome.rounds = run.iterations;
        } else {
          // RunSync(budget), one span per RunSyncRound().
          while (outcome.rounds < budget && !coordinator->Converged()) {
            ScopedSpan span(recorder, kStep, id);
            coordinator->RunSyncRound();
            ++outcome.rounds;
          }
          converged = coordinator->Converged();
        }
        op_span.reset();
        pass->Time(start);
        const lla::net::BusStats& bus = coordinator->bus().stats();
        const lla::Assignment latencies = coordinator->CurrentAssignment();
        outcome.wire_bytes = bus.bytes;
        outcome.messages = bus.sent;
        outcome.dropped = bus.dropped;
        const bool delivered = bus.dropped == 0 && bus.delivered == bus.sent &&
                               coordinator->bus().pending() == 0;
        outcome.ok = converged && delivered &&
                     lla::CheckFeasibility(
                         workload, *model, latencies,
                         coordinator_config.convergence.feasibility_tol)
                         .feasible;
        Certify(workload, *model, coordinator_config.solver, latencies,
                coordinator->CurrentPrices(), &outcome);
      }
      pass->outcomes.push_back(outcome);
    }
    if (recorder != nullptr && !distributed) {
      for (const auto& timer : registry.Snapshot().timers) {
        if (timer.name == "engine.solve") {
          layers->engine_solve_ms += timer.total_ms;
        } else if (timer.name == "engine.price_update") {
          layers->engine_price_ms += timer.total_ms;
        }
      }
    }
  };
  RunPasses(config, run_pass, &log);
  const double peak_rss_mb = PeakRssMb();
  if (!setup_error.empty()) {
    report.correct = false;
    report.notes.push_back("CHECK FAILED: set-up: " + setup_error);
    return report;
  }
  const std::vector<double> setup_s = ScaleToProbe(probe, &log, &report);
  if (load_failed) {
    report.correct = false;
    report.notes.push_back("CHECK FAILED: a generated instance did not parse");
  }
  if (!CheckRepeatable(log, &report)) report.correct = false;
  const std::vector<Outcome>& outcomes = log.untraced.front().outcomes;
  for (const Pass& pass : log.untraced) {
    report.attempted += pass.outcomes.size();
    for (const Outcome& o : pass.outcomes) report.failed += o.ok ? 0 : 1;
  }
  std::string pass_ms = "untraced pass service time (ms):";
  for (const Pass& pass : log.untraced) {
    char total[32];
    std::snprintf(total, sizeof total, " %.1f",
                  std::accumulate(pass.service_ms.begin(),
                                  pass.service_ms.end(), 0.0));
    pass_ms += total;
  }
  report.notes.push_back(pass_ms);
  report.notes.push_back(std::to_string(log.untraced.size()) +
                         " untraced passes, " +
                         std::to_string(log.traced.size()) +
                         " traced passes over " +
                         std::to_string(outcomes.size()) + " instances");

  const std::vector<double> service = MedianService(log.untraced);
  WriteOps(config, service, outcomes, &report);
  // Closed loop with one client: an op's latency is its service time.
  const Tail tail = TailOf(service);
  report.notes.push_back(TailNote("op_ms_tail", tail, "ms"));
  AddEndToEnd(setup_s, peak_rss_mb, service, Median(service), tail.value,
              tail.level,
              CycledReplay(service, cycles, /*shuffle=*/true, config.seed),
              limit_ms, outcomes, &report);
  if (!config.trace) return report;

  const std::vector<double> traced_service = MedianService(log.traced);
  std::map<std::string, double> layer;
  layer["workloads.generate_ms"] = Median(setup_s) * 1e3;
  layer["model.load_us"] = Median(log.spans.DurationsUs(kLoad));
  std::vector<double> rounds;
  for (const Outcome& o : outcomes) {
    rounds.push_back(static_cast<double>(o.rounds));
  }
  const Tail step_tail = TailOf(log.spans.DurationsUs(kStep));
  if (!distributed) {
    layer["core.engine_build_us"] = Median(log.spans.DurationsUs(kBuild));
    layer["core.step_us_p50"] = Median(log.spans.DurationsUs(kStep));
    layer["core.step_us_tail"] = step_tail.value;
    layer["core.iters_per_op"] =
        std::accumulate(rounds.begin(), rounds.end(), 0.0) /
        static_cast<double>(rounds.size());
    layer["core.iters_p90"] = AtLadder(rounds, 1);
    layer["core.solve_share"] =
        log.layers.engine_solve_ms /
        (log.layers.engine_solve_ms + log.layers.engine_price_ms);
    layer["core.active_ratio"] =
        log.layers.subtasks_solved / log.layers.subtask_steps;
  } else {
    std::uint64_t messages = 0, bytes = 0, dropped = 0, total_rounds = 0;
    for (const Outcome& o : outcomes) {
      messages += o.messages;
      bytes += o.wire_bytes;
      dropped += o.dropped;
      total_rounds += static_cast<std::uint64_t>(o.rounds);
    }
    layer["runtime.coordinator_build_us"] =
        Median(log.spans.DurationsUs(kBuild));
    layer["runtime.round_us_p50"] = Median(log.spans.DurationsUs(kStep));
    layer["runtime.round_us_tail"] = step_tail.value;
    layer["runtime.rounds_p90"] = AtLadder(rounds, 1);
    layer["net.msgs_per_round"] =
        static_cast<double>(messages) / static_cast<double>(total_rounds);
    layer["net.bytes_per_msg"] =
        static_cast<double>(bytes) / static_cast<double>(messages);
    layer["net.dropped"] = static_cast<double>(dropped);
  }
  report.notes.push_back(TailNote(
      distributed ? "runtime.round_us_tail" : "core.step_us_tail", step_tail,
      "us"));
  layer["solver.kkt_stationarity_p50"] = Median(KktResiduals(outcomes, true));
  layer["solver.kkt_complementarity_p50"] =
      Median(KktResiduals(outcomes, false));
  layer["obs.trace_overhead_pct"] =
      OverheadPct(Median(traced_service), Median(service));
  SetLayerMetrics(layer, &report);
  WriteSpans(config, log.spans, &report);
  return report;
}

// ---------------------------------------------------------------------------
// churn_serve: one live ChurnDriver absorbing a banded mutation stream.

// `lla churn`'s driver settings.
lla::runtime::ChurnConfig ChurnDriverConfig(int budget) {
  lla::runtime::ChurnConfig config;
  config.lla.step_policy = lla::StepPolicyKind::kAdaptive;
  config.lla.gamma0 = 3.0;
  config.lla.record_history = false;
  config.lla.num_threads = 1;
  config.max_iterations = budget;
  config.min_tasks = 1;
  config.admission.lla = config.lla;
  config.admission.probe_threads = 1;
  return config;
}

// Bytes of the request that carries a mutation: a join carries its task's
// .lla block, a leave its task's name, a WCET correction the subtask's name
// and one double.
std::uint64_t RequestBytes(const lla::runtime::ChurnMutation& mutation,
                           const lla::Workload& live,
                           const std::vector<lla::ResourceSpec>& resources) {
  switch (mutation.kind) {
    case ChurnKind::kJoin: {
      auto alone = lla::Workload::Create(resources, {mutation.join_task});
      if (!alone.ok()) return 0;
      auto text = lla::SaveWorkloadToString(alone.value());
      if (!text.ok()) return 0;
      const std::size_t task = text.value().find("\ntask ");
      return task == std::string::npos ? 0 : text.value().size() - task - 1;
    }
    case ChurnKind::kLeave:
      return live.task(lla::TaskId(static_cast<std::uint32_t>(
                           mutation.leave_index % live.task_count())))
          .name.size();
    case ChurnKind::kWcetPerturb:
      return live.subtask(lla::SubtaskId(static_cast<std::uint32_t>(
                              mutation.subtask_index % live.subtask_count())))
                 .name.size() +
             sizeof(double);
  }
  return 0;
}

double TimerTotalMs(const lla::obs::MetricRegistry& registry) {
  double total = 0.0;
  for (const auto& timer : registry.Snapshot().timers) total += timer.total_ms;
  return total;
}

std::uint64_t CounterValue(lla::obs::MetricRegistry& registry,
                           const char* name) {
  return registry.GetCounter(name)->value();
}

Report RunChurn(const RunConfig& config) {
  Report report;
  Params params(config.params);
  const int budget = params.GetInt("budget");
  const int mutations = params.GetInt("mutations");
  const double rate = params.Get("offered_rate");
  const double limit_ms = params.Get("limit_ms");
  const int cycles = params.GetInt("replay_cycles");
  const int setups = params.GetInt("setups");
  const std::uint64_t pool_seed =
      static_cast<std::uint64_t>(params.GetInt("pool_seed"));
  lla::RandomWorkloadConfig base;
  base.seed = pool_seed;
  base.num_resources = params.GetInt("resources");
  base.num_tasks = params.GetInt("tasks");
  base.min_subtasks = params.GetInt("min_subtasks");
  base.max_subtasks = params.GetInt("max_subtasks");
  base.target_utilization = params.Get("target_utilization");
  ChurnStreamConfig stream_config;
  stream_config.seed = pool_seed;
  stream_config.num_resources = base.num_resources;
  stream_config.min_live = static_cast<std::size_t>(params.GetInt("min_live"));
  stream_config.max_live = static_cast<std::size_t>(params.GetInt("max_live"));
  if (!params.Finish(&report.notes) || budget < 1 || mutations < 1 ||
      rate <= 0.0 || cycles < 1 || setups < 1) {
    report.correct = false;
    return report;
  }

  PassLog log;
  std::vector<double> generate_ms;
  std::string setup_error;
  std::optional<lla::runtime::ChurnDriver> driver;
  std::optional<ChurnStream> stream;
  std::vector<lla::ResourceSpec> resources;
  lla::obs::MetricRegistry live_registry, admission_registry;
  HostProbe probe;

  // Set-up: the base system, the stream's donor pool and the driver's
  // initial solve.
  const auto setup = [&](bool traced) {
    probe.Tick();
    const auto start = Clock::now();
    auto workload = lla::MakeRandomWorkload(base);
    auto made_stream = ChurnStream::Create(stream_config);
    generate_ms.push_back(MsBetween(start, Clock::now()));
    if (!workload.ok() || !made_stream.ok()) {
      setup_error = workload.ok() ? made_stream.error() : workload.error();
      return false;
    }
    lla::WorkloadSpecs specs = lla::ExtractSpecs(workload.value());
    resources = specs.resources;
    lla::runtime::ChurnConfig driver_config = ChurnDriverConfig(budget);
    if (traced) {
      driver_config.lla.metrics = &live_registry;
      driver_config.admission.lla.metrics = &admission_registry;
    }
    auto created = lla::runtime::ChurnDriver::Create(
        std::move(specs.resources), std::move(specs.tasks), driver_config);
    if (!created.ok()) {
      setup_error = created.error();
      return false;
    }
    driver.reset();
    driver.emplace(std::move(created).value());
    stream.reset();
    stream.emplace(std::move(made_stream).value());
    log.setups.emplace_back(Ns(start), MsBetween(start, Clock::now()) / 1e3);
    return true;
  };

  // Indexed by ChurnKind.
  const std::uint32_t kind_span[3] = {log.spans.Name("runtime.churn.join"),
                                      log.spans.Name("runtime.churn.leave"),
                                      log.spans.Name("runtime.churn.wcet")};
  bool band_broken = false;
  const PassFn run_pass = [&](SpanRecorder* recorder, LayerCounts* layers,
                              Pass* pass) {
    // Set-up repeats `setups` times per pass, so its samples spread over
    // the run; the pass serves on the last driver.  A traced pass attaches
    // the registries to that driver only.
    for (int s = 0; s < setups; ++s) {
      if (!setup(recorder != nullptr && s + 1 == setups)) return;
    }
    for (int m = 0; m < mutations; ++m) {
      const std::size_t live = driver->workload().task_count();
      if (live < stream_config.min_live || live > stream_config.max_live) {
        band_broken = true;
        break;
      }
      const lla::runtime::ChurnMutation mutation = stream->Next(live);
      Outcome outcome;
      outcome.kind = mutation.kind;
      outcome.wire_bytes =
          RequestBytes(mutation, driver->workload(), resources);
      const double probe_before =
          recorder != nullptr ? TimerTotalMs(admission_registry) : 0.0;
      const std::uint64_t solved_before =
          recorder != nullptr
              ? CounterValue(live_registry, "engine.active.subtasks_solved")
              : 0;
      const std::uint64_t steps_before =
          recorder != nullptr ? CounterValue(live_registry, "engine.steps") : 0;
      probe.Tick();
      const auto start = Clock::now();
      lla::runtime::ChurnRecord record;
      {
        ScopedSpan span(recorder, kind_span[static_cast<int>(mutation.kind)],
                        static_cast<std::uint32_t>(m));
        record = driver->Apply(mutation);
      }
      pass->Time(start);
      outcome.applied = record.applied;
      outcome.rounds = record.iterations;
      outcome.fallback = !record.note.empty() && record.applied;
      outcome.live_tasks = driver->workload().task_count();
      // A rejected join and a leave skipped at min_tasks are correct
      // outcomes; an applied mutation must re-converge to a feasible point.
      outcome.ok = true;
      if (record.applied) {
        lla::LlaEngine& engine = driver->engine();
        outcome.ok = record.converged &&
                     lla::CheckFeasibility(
                         driver->workload(), driver->model(),
                         engine.latencies(),
                         engine.config().convergence.feasibility_tol)
                         .feasible;
        Certify(driver->workload(), driver->model(), engine.config().solver,
                engine.latencies(), engine.prices(), &outcome);
      } else if (mutation.kind == ChurnKind::kLeave &&
                 record.note != "at min_tasks") {
        outcome.ok = false;
      }
      if (recorder != nullptr) {
        const double live_subtasks =
            static_cast<double>(driver->workload().subtask_count());
        layers->subtasks_solved += static_cast<double>(
            CounterValue(live_registry, "engine.active.subtasks_solved") -
            solved_before);
        layers->subtask_steps +=
            live_subtasks *
            static_cast<double>(CounterValue(live_registry, "engine.steps") -
                                steps_before);
        if (mutation.kind == ChurnKind::kJoin) {
          ++layers->joins;
          if (record.applied) ++layers->joins_admitted;
          layers->probe_ms.push_back(TimerTotalMs(admission_registry) -
                                     probe_before);
        }
      }
      pass->outcomes.push_back(outcome);
    }
  };
  // The registries accumulate over the traced passes; per-op figures are
  // deltas.
  RunPasses(config, run_pass, &log);
  const double peak_rss_mb = PeakRssMb();
  if (!setup_error.empty()) {
    report.correct = false;
    report.notes.push_back("CHECK FAILED: set-up: " + setup_error);
    return report;
  }
  if (band_broken) {
    report.correct = false;
    report.notes.push_back("CHECK FAILED: live task count left the band");
    return report;
  }
  const std::vector<double> setup_s = ScaleToProbe(probe, &log, &report);
  if (!CheckRepeatable(log, &report)) report.correct = false;
  const std::vector<Outcome>& outcomes = log.untraced.front().outcomes;
  std::size_t rejected = 0, skipped = 0;
  for (const Outcome& o : outcomes) {
    if (o.kind == ChurnKind::kJoin && !o.applied) ++rejected;
    if (o.kind == ChurnKind::kLeave && !o.applied && o.ok) ++skipped;
  }
  for (const Pass& pass : log.untraced) {
    report.attempted += pass.outcomes.size();
    for (const Outcome& o : pass.outcomes) report.failed += o.ok ? 0 : 1;
  }
  report.notes.push_back(
      std::to_string(log.untraced.size()) + " untraced passes, " +
      std::to_string(log.traced.size()) + " traced passes over " +
      std::to_string(outcomes.size()) + " mutations; per pass " +
      std::to_string(rejected) + " joins rejected by admission, " +
      std::to_string(skipped) + " leaves skipped at min_tasks");

  const std::vector<double> service = MedianService(log.untraced);
  WriteOps(config, service, outcomes, &report);
  // Open loop: latency from due time to completion, by FIFO replay of the
  // measured service times.  The tail's rung is set by the distinct
  // mutations, not the replayed copies.
  const Replay replay =
      CycledReplay(service, cycles, /*shuffle=*/false, config.seed);
  const std::vector<double> latency =
      FifoReplay(ArrivalsAtRate(replay.unit_gaps, rate), replay.service_ms);
  const Tail distinct_tail = TailOf(service);
  const double tail_ms = AtLadder(latency, distinct_tail.level);
  char line[240];
  std::snprintf(line, sizeof line,
                "open loop at %g mutations/s, latency by FIFO replay of the "
                "measured service times (%d cycles); the generator is never "
                "late (0 ms)",
                rate, cycles);
  report.notes.push_back(line);
  std::snprintf(line, sizeof line,
                "op_ms_tail: p%g (rung set by %zu mutations, %zu beyond) of "
                "%zu replayed = %.4f ms",
                distinct_tail.percentile, distinct_tail.count,
                distinct_tail.beyond, latency.size(), tail_ms);
  report.notes.push_back(line);
  AddEndToEnd(setup_s, peak_rss_mb, service, Median(latency), tail_ms,
              distinct_tail.level, replay, limit_ms, outcomes, &report);
  if (!config.trace) return report;

  std::map<std::string, double> layer;
  layer["workloads.generate_ms"] = Median(generate_ms);
  const LayerCounts& counts = log.layers;
  layer["core.solve_share"] = 0.0;
  for (const auto& timer : live_registry.Snapshot().timers) {
    if (timer.name == "engine.solve") {
      layer["core.solve_share"] += timer.total_ms;
    }
  }
  layer["core.solve_share"] /= TimerTotalMs(live_registry);
  layer["core.active_ratio"] = counts.subtasks_solved / counts.subtask_steps;
  layer["solver.kkt_stationarity_p50"] = Median(KktResiduals(outcomes, true));
  layer["solver.kkt_complementarity_p50"] =
      Median(KktResiduals(outcomes, false));
  const Tail probe_tail = TailOf(counts.probe_ms);
  layer["admission.probe_ms_p50"] = Median(counts.probe_ms);
  layer["admission.probe_ms_tail"] = probe_tail.value;
  layer["admission.admit_ratio"] =
      static_cast<double>(counts.joins_admitted) /
      static_cast<double>(counts.joins);
  report.notes.push_back(
      TailNote("admission.probe_ms_tail", probe_tail, "ms"));
  const char* kind_keys[] = {"join", "leave", "wcet"};
  for (int k = 0; k < 3; ++k) {
    std::vector<double> times, iters;
    for (std::size_t m = 0; m < outcomes.size(); ++m) {
      if (static_cast<int>(outcomes[m].kind) != k) continue;
      times.push_back(service[m]);
      if (outcomes[m].applied) {
        iters.push_back(static_cast<double>(outcomes[m].rounds));
      }
    }
    layer[std::string("runtime.churn_ms_p50.") + kind_keys[k]] = Median(times);
    layer[std::string("runtime.churn_iters.") + kind_keys[k]] =
        iters.empty() ? 0.0
                      : std::accumulate(iters.begin(), iters.end(), 0.0) /
                            static_cast<double>(iters.size());
  }
  std::vector<double> waits(latency.size()), live_tasks;
  for (std::size_t k = 0; k < latency.size(); ++k) {
    waits[k] = latency[k] - replay.service_ms[k];
  }
  double fallbacks = 0.0;
  for (const Outcome& o : outcomes) {
    live_tasks.push_back(static_cast<double>(o.live_tasks));
    fallbacks += o.fallback ? 1.0 : 0.0;
  }
  layer["runtime.churn_fallbacks"] = fallbacks;
  layer["runtime.churn_wait_ms_tail"] = AtLadder(waits, distinct_tail.level);
  layer["runtime.live_tasks_p50"] = Median(live_tasks);
  const Replay traced_replay = CycledReplay(
      MedianService(log.traced), cycles, /*shuffle=*/false, config.seed);
  layer["obs.trace_overhead_pct"] = OverheadPct(
      Median(FifoReplay(ArrivalsAtRate(traced_replay.unit_gaps, rate),
                        traced_replay.service_ms)),
      Median(latency));
  SetLayerMetrics(layer, &report);
  WriteSpans(config, log.spans, &report);
  return report;
}

}  // namespace

Report RunWorkload(const RunConfig& config) {
  if (config.workload == "engine_solve") return RunSolve(config, false);
  if (config.workload == "dist_solve") return RunSolve(config, true);
  if (config.workload == "churn_serve") return RunChurn(config);
  Report report;
  report.correct = false;
  report.notes.push_back("unknown workload " + config.workload);
  return report;
}

}  // namespace perfbench
