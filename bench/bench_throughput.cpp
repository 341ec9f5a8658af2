// Measures full LLA iterations per second (one Step = latency allocation +
// price computation + stats) on the large paper and random workloads, for
// the scalar reference path and the fused StepWorkspace engine across
// thread counts.  The "fused" rows (and the fused_* JSON keys) time the
// engine as configured by default, whose sweeps each fan out across the
// pool on their own.  Also writes
// BENCH_throughput.json so the perf trajectory is machine-readable.
//
// The "scalar reference" stepper replicates the pre-StepWorkspace engine:
// the solver recomputes its box bounds on every evaluation
// (cache_invariants = false) and every per-step consumer — congestion
// detection, price update, utility stats, feasibility, convergence — walks
// the workload independently.  Both paths produce bit-identical
// trajectories (asserted below), so the speedup is pure constant-factor.
//
// Every row a printed ratio compares — the scalar reference, the fused
// engine at 1, 2 and 4 threads and the batch rows — is built and warmed
// first, then timed in interleaved repetitions: each repetition visits
// every row once, starting one row later than the last, and each row keeps
// its best.  A host stall then costs one repetition of whichever row it
// hits, instead of every repetition of one row.  The whole interleaved
// measurement runs kRuns times, and each row reports its median rate across
// the runs (with the min-max beside it), so a run the host slows throughout
// moves no printed ratio either.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "core/engine_batch.h"
#include "workloads/paper.h"
#include "workloads/random.h"

using namespace lla;

namespace {

// The pre-StepWorkspace LlaEngine::Step(), reassembled from the scalar
// oracles (kept in the library as the reference path).
class ScalarReferenceEngine {
 public:
  ScalarReferenceEngine(const Workload& workload, const LatencyModel& model,
                        LlaConfig config)
      : workload_(&workload),
        model_(&model),
        config_(config),
        solver_(workload, model,
                [&config] {
                  LatencySolverConfig solver_config = config.solver;
                  solver_config.cache_invariants = false;
                  return solver_config;
                }()),
        updater_(workload, model),
        schedule_(config.step_policy, config.gamma0,
                  config.adaptive_max_multiplier, config.diminishing_tau) {
    prices_ = PriceVector::Zero(workload);
    latencies_.assign(workload.subtask_count(), 0.0);
    schedule_.Reset(workload);
    solver_.SolveAll(prices_, &latencies_);
  }

  IterationStats Step() {
    solver_.SolveAll(prices_, &latencies_);
    const std::vector<bool> congested =
        updater_.ResourceCongestion(latencies_);
    schedule_.Advance(*workload_, congested);
    updater_.Update(latencies_, schedule_, &prices_);
    ++iteration_;

    IterationStats stats;
    stats.iteration = iteration_;
    stats.total_utility =
        TotalUtility(*workload_, latencies_, config_.solver.variant);
    const FeasibilityReport feasibility =
        CheckFeasibility(*workload_, *model_, latencies_,
                         config_.convergence.feasibility_tol);
    stats.max_resource_excess = feasibility.max_resource_excess;
    stats.max_path_ratio = feasibility.max_path_ratio;
    stats.feasible = feasibility.feasible;
    UpdateConvergence(stats.total_utility);
    return stats;
  }

 private:
  void UpdateConvergence(double utility) {
    bool settled = UtilityWindowSettled(&recent_utilities_, utility,
                                        config_.convergence.rel_tol);
    if (settled) {
      double residual = 0.0;
      for (const ResourceInfo& resource : workload_->resources()) {
        const double slack =
            resource.capacity - ResourceShareSum(*workload_, *model_,
                                                 resource.id, latencies_);
        residual = std::max(residual,
                            prices_.mu[resource.id.value()] *
                                std::max(0.0, slack) / resource.capacity);
      }
      for (const PathInfo& path : workload_->paths()) {
        const double slack = 1.0 - PathLatency(*workload_, path.id,
                                               latencies_) /
                                       path.critical_time_ms;
        residual = std::max(residual, prices_.lambda[path.id.value()] *
                                          std::max(0.0, slack));
      }
      settled = residual <= kComplementarityTol &&
                CheckFeasibility(*workload_, *model_, latencies_,
                                 ConvergenceConfig::feasibility_tol)
                    .feasible;
    }
  }

  const Workload* workload_;
  const LatencyModel* model_;
  LlaConfig config_;
  LatencySolver solver_;
  PriceUpdater updater_;
  StepSchedule schedule_;
  PriceVector prices_;
  Assignment latencies_;
  int iteration_ = 0;
  std::deque<double> recent_utilities_;
};

// Timed repetitions per row in one interleaved run, and whole runs.
constexpr int kRepetitions = 5;
constexpr int kRuns = 5;

/// One timed row: `run` takes one repetition of `steps` engine steps.
struct TimedRow {
  std::function<void()> run;
  double steps = 0.0;
  double best_seconds = 0.0;  ///< of the current run
  std::vector<double> run_rates = {};  ///< each whole run's best, sorted
  /// The median of the runs' rates, and their range.
  double rate() const { return run_rates[run_rates.size() / 2]; }
  double min_rate() const { return run_rates.front(); }
  double max_rate() const { return run_rates.back(); }
};

/// Times every row `reps` times, round-robin: repetition k starts at row
/// k mod n and visits each row once.  Each row keeps its best (min elapsed),
/// the standard defence against noisy shared hosts: scheduler hiccups only
/// ever make a repetition slower.
void TimeInterleaved(std::vector<TimedRow>* rows, int reps) {
  const std::size_t n = rows->size();
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t k = 0; k < n; ++k) {
      TimedRow& row = (*rows)[(static_cast<std::size_t>(rep) + k) % n];
      const auto start = std::chrono::steady_clock::now();
      row.run();
      const auto stop = std::chrono::steady_clock::now();
      const double seconds =
          std::chrono::duration<double>(stop - start).count();
      if (rep == 0 || seconds < row.best_seconds) row.best_seconds = seconds;
    }
  }
}

/// kRuns whole interleaved runs; each row keeps every run's best rate.
void TimeRuns(std::vector<TimedRow>* rows) {
  for (int run = 0; run < kRuns; ++run) {
    TimeInterleaved(rows, kRepetitions);
    for (TimedRow& row : *rows) {
      row.run_rates.push_back(row.steps / row.best_seconds);
    }
  }
  for (TimedRow& row : *rows) {
    std::sort(row.run_rates.begin(), row.run_rates.end());
  }
}

/// The JSON range of a row's run rates.
bench::JsonValue RateRange(const TimedRow& row) {
  return bench::JsonValue::Array()
      .Push(bench::JsonValue::Number(row.min_rate()))
      .Push(bench::JsonValue::Number(row.max_rate()));
}

/// A row that steps `stepper` `iters` times per repetition.
template <typename Stepper>
TimedRow StepperRow(Stepper* stepper, int iters) {
  return {[stepper, iters] {
            for (int i = 0; i < iters; ++i) stepper->Step();
          },
          static_cast<double>(iters)};
}

struct WorkloadCase {
  std::string name;
  const Workload* workload;
  int warmup;
  int iters;
};

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::HasQuickFlag(argc, argv);

  bench::PrintHeader(
      "bench_throughput — full LLA iterations per second",
      "engine hot path (fused StepWorkspace + invariant caching + "
      "per-sweep fan-out + EngineBatch coarse parallelism)",
      "reports steps/s of the scalar reference, the fused engine (the "
      "default engine) at 1, 2 and 4 threads and a 4-engine "
      "EngineBatch, each the median of 5 whole runs of interleaved "
      "repetitions; the only check is that "
      "fused and scalar agree bit for bit (exit 1 otherwise).  Recorded on "
      "a shared 4-thread host, where rows swing by tens of percent run to "
      "run: fused about 2x scalar single-threaded, in-engine threads at or "
      "below the 1-thread rate, EngineBatch about 2.1-3.8x it at 4 "
      "threads");

  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  std::printf("hardware_concurrency: %u%s\n", hardware,
              quick ? "  (--quick)" : "");

  auto fig6 = MakeScaledSimWorkload(4, /*scale_critical_times=*/true);
  if (!fig6.ok()) {
    std::printf("workload error: %s\n", fig6.error().c_str());
    return 1;
  }
  RandomWorkloadConfig random_config;
  random_config.seed = 7;
  random_config.num_resources = 24;
  random_config.num_tasks = 96;
  random_config.min_subtasks = 4;
  random_config.max_subtasks = 8;
  random_config.target_utilization = 0.7;
  auto random_workload = MakeRandomWorkload(random_config);
  if (!random_workload.ok()) {
    std::printf("workload error: %s\n", random_workload.error().c_str());
    return 1;
  }

  const int scale = quick ? 20 : 1;
  const std::vector<WorkloadCase> cases = {
      {"fig6_12task", &fig6.value(), 500 / scale, 60000 / scale},
      {"random_96task", &random_workload.value(), 100 / scale, 6000 / scale},
  };

  // Every requested width is measured, but a width the pool clamps to fewer
  // effective threads (1-core CI hosts clamp everything to serial) carries
  // "clamped": true in its JSON row and makes NO scaling claim: a clamped
  // row re-measures the serial engine, so its speedup_vs_1thread is noise,
  // not evidence — reporting it (or WARNing on its efficiency) would turn
  // host topology into a fake regression signal.
  const std::vector<int> thread_counts = {1, 2, 4};
  const bool clamped =
      static_cast<int>(hardware) <
      *std::max_element(thread_counts.begin(), thread_counts.end());
  if (clamped) {
    std::printf("hardware clamps some thread widths: scaling claims "
                "suppressed on clamped rows\n");
  }

  bench::JsonValue results = bench::JsonValue::Array();
  for (const WorkloadCase& wc : cases) {
    const Workload& w = *wc.workload;
    LatencyModel model(w);
    LlaConfig config = bench::PaperLlaConfig();
    config.record_history = false;

    std::printf("\n%s: %zu tasks, %zu subtasks, %zu resources, %zu paths\n",
                wc.name.c_str(), w.task_count(), w.subtask_count(),
                w.resource_count(), w.path_count());

    // Sanity: the fused engine and the scalar reference must agree exactly.
    {
      ScalarReferenceEngine scalar(w, model, config);
      LlaEngine fused(w, model, config);
      for (int i = 0; i < 200; ++i) {
        const double a = scalar.Step().total_utility;
        const double b = fused.Step().total_utility;
        if (a != b) {
          std::printf("MISMATCH at step %d: scalar %.17g fused %.17g\n", i,
                      a, b);
          return 1;
        }
      }
    }

    // Build and warm every compared row, then time them interleaved.  The
    // batch rows use the same effective-thread clamp as the in-engine pool:
    // a clamped row must not oversubscribe the host (running 4 batch
    // workers on a 1-core box measures contention, not the serial engine).
    const int batch_size = 4;
    ScalarReferenceEngine scalar(w, model, config);
    for (int i = 0; i < wc.warmup; ++i) scalar.Step();
    std::vector<std::unique_ptr<LlaEngine>> fused;
    for (int num_threads : thread_counts) {
      config.num_threads = num_threads;
      fused.push_back(std::make_unique<LlaEngine>(w, model, config));
      for (int i = 0; i < wc.warmup; ++i) fused.back()->Step();
    }
    config.num_threads = 1;
    std::vector<std::unique_ptr<EngineBatch>> batched;
    const int batch_iters = std::max(1, wc.iters / batch_size);
    for (int num_threads : thread_counts) {
      batched.push_back(std::make_unique<EngineBatch>(
          std::min(num_threads, static_cast<int>(hardware))));
      for (int b = 0; b < batch_size; ++b) {
        batched.back()->Add(w, model, config);
      }
      batched.back()->StepAll(std::max(1, wc.warmup / batch_size));
    }
    std::vector<TimedRow> rows;
    rows.push_back(StepperRow(&scalar, wc.iters));
    for (auto& engine : fused) {
      rows.push_back(StepperRow(engine.get(), wc.iters));
    }
    for (auto& batch : batched) {
      rows.push_back({[batch = batch.get(), batch_iters] {
                        batch->StepAll(batch_iters);
                      },
                      static_cast<double>(batch_size * batch_iters)});
    }
    TimeRuns(&rows);

    const double scalar_rate = rows[0].rate();
    std::printf("  %-28s %12.0f steps/sec  [%.0f-%.0f over %d runs]\n",
                "scalar reference", scalar_rate, rows[0].min_rate(),
                rows[0].max_rate(), kRuns);

    bench::JsonValue threads = bench::JsonValue::Array();
    const double fused_serial_rate = rows[1].rate();
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      const int num_threads = thread_counts[i];
      const double rate = rows[1 + i].rate();
      // Speedup is relative to the fused 1-thread run; efficiency divides
      // by the threads that can actually exist on this host (the pool clamps
      // to hardware concurrency, so asking for 4 threads on a 1-core box
      // runs serial and should score ~1.0, not 0.25).  A clamped row makes
      // no scaling claim at all — see the comment at thread_counts.
      const int effective =
          std::min(num_threads, static_cast<int>(hardware));
      const bool row_clamped = num_threads > static_cast<int>(hardware);
      const double speedup = rate / fused_serial_rate;
      const double efficiency = speedup / effective;
      if (row_clamped) {
        std::printf("  fused, num_threads=%-12d %12.0f steps/sec  (%.2fx "
                    "scalar; clamped to %d thread%s, no scaling claim)\n",
                    num_threads, rate, rate / scalar_rate, effective,
                    effective == 1 ? "" : "s");
      } else {
        std::printf("  fused, num_threads=%-12d %12.0f steps/sec  (%.2fx "
                    "scalar, %.2fx 1-thread, efficiency %.2f)\n",
                    num_threads, rate, rate / scalar_rate, speedup,
                    efficiency);
        if (efficiency < 1.0) {
          std::printf("  WARN: scaling efficiency %.2f < 1.0 at "
                      "num_threads=%d (%d effective)\n",
                      efficiency, num_threads, effective);
        }
      }
      std::printf("  %-28s %12s            [%.0f-%.0f]\n", "", "",
                  rows[1 + i].min_rate(), rows[1 + i].max_rate());
      bench::JsonValue row =
          bench::JsonValue::Object()
              .Add("num_threads", bench::JsonValue::Number(num_threads))
              .Add("effective_threads",
                   bench::JsonValue::Number(effective))
              .Add("clamped", bench::JsonValue::Bool(row_clamped))
              .Add("steps_per_sec", bench::JsonValue::Number(rate))
              .Add("steps_per_sec_range", RateRange(rows[1 + i]));
      if (!row_clamped) {
        row.Add("speedup_vs_1thread", bench::JsonValue::Number(speedup))
            .Add("scaling_efficiency", bench::JsonValue::Number(efficiency));
      }
      threads.Push(std::move(row));
    }

    // Coarse-grained parallelism: B independent engines stepped as a batch
    // (one pool wake-up per StepAll, grain of one engine).  This is the
    // granularity that scales on multicore — aggregate steps/s across the
    // batch vs. stepping the same engines sequentially.
    bench::JsonValue batches = bench::JsonValue::Array();
    const std::size_t batch_row = 1 + thread_counts.size();
    const double batch_serial_rate = rows[batch_row].rate();
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      const int num_threads = thread_counts[i];
      const int effective =
          std::min(num_threads, static_cast<int>(hardware));
      const double rate = rows[batch_row + i].rate();
      const bool row_clamped = num_threads > static_cast<int>(hardware);
      if (row_clamped) {
        std::printf("  batch[%d], num_threads=%-8d %12.0f steps/sec  "
                    "(clamped, no scaling claim)\n",
                    batch_size, num_threads, rate);
      } else {
        std::printf("  batch[%d], num_threads=%-8d %12.0f steps/sec  (%.2fx "
                    "1-thread)\n",
                    batch_size, num_threads, rate,
                    rate / batch_serial_rate);
      }
      std::printf("  %-28s %12s            [%.0f-%.0f]\n", "", "",
                  rows[batch_row + i].min_rate(),
                  rows[batch_row + i].max_rate());
      bench::JsonValue row =
          bench::JsonValue::Object()
              .Add("num_threads", bench::JsonValue::Number(num_threads))
              .Add("effective_threads", bench::JsonValue::Number(effective))
              .Add("batch_size", bench::JsonValue::Number(batch_size))
              .Add("clamped", bench::JsonValue::Bool(row_clamped))
              .Add("steps_per_sec", bench::JsonValue::Number(rate))
              .Add("steps_per_sec_range", RateRange(rows[batch_row + i]));
      if (!row_clamped) {
        row.Add("speedup_vs_1thread",
                bench::JsonValue::Number(rate / batch_serial_rate));
      }
      batches.Push(std::move(row));
    }

    results.Push(
        bench::JsonValue::Object()
            .Add("workload", bench::JsonValue::String(wc.name))
            .Add("tasks", bench::JsonValue::Number(
                              static_cast<double>(w.task_count())))
            .Add("subtasks", bench::JsonValue::Number(
                                 static_cast<double>(w.subtask_count())))
            .Add("scalar_steps_per_sec", bench::JsonValue::Number(scalar_rate))
            .Add("scalar_steps_per_sec_range", RateRange(rows[0]))
            .Add("fused_steps_per_sec",
                 bench::JsonValue::Number(fused_serial_rate))
            .Add("single_thread_speedup",
                 bench::JsonValue::Number(fused_serial_rate / scalar_rate))
            .Add("threads", std::move(threads))
            .Add("batched", std::move(batches)));
  }

  bench::JsonValue root =
      bench::BenchReportRoot("throughput", "steps_per_sec", quick);
  root.Add("hardware_concurrency",
           bench::JsonValue::Number(static_cast<double>(hardware)));
  root.Add("clamped", bench::JsonValue::Bool(clamped));
  root.Add("repetitions", bench::JsonValue::Number(kRepetitions));
  root.Add("runs", bench::JsonValue::Number(kRuns));
  root.Add("results", std::move(results));
  return bench::EmitBenchReport("BENCH_throughput.json", root);
}
