// EngineBatch: coarse-grained parallelism over independent LLA instances.
//
// Splitting one engine's ~microsecond step across threads amortizes poorly:
// even a single hot fork-join costs a fraction of the step.  What does scale
// is running B *independent* iterations concurrently — a step-size sweep
// (Fig. 5), replicated workloads (Fig. 6), admission what-if probes.
// EngineBatch owns the pool, forces each member engine serial (num_threads =
// 1, so the per-step fork-join overhead disappears entirely), and fans whole
// Step()/Run() calls out with a grain of one item via ParallelSweep.
//
// Every member engine computes exactly what it would standalone: engines
// never share mutable state, each item is stepped by exactly one thread at
// a time, and the schedule (which engine runs on which thread) cannot enter
// any computed value — so batched trajectories are bit-identical to
// unbatched ones at any thread count.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/parallel.h"
#include "core/engine.h"

namespace lla {

class EngineBatch {
 public:
  /// `num_threads` sizes the shared pool (clamped by hardware concurrency
  /// unless `config.max_concurrency` says otherwise); items are stepped with
  /// a grain of one.
  explicit EngineBatch(int num_threads, ParallelConfig config = {});
  ~EngineBatch();

  EngineBatch(const EngineBatch&) = delete;
  EngineBatch& operator=(const EngineBatch&) = delete;

  /// Constructs an engine in-place and returns its index.  The engine is
  /// forced to num_threads = 1 — batch members parallelize across, never
  /// within, instances.  `workload`/`model` must outlive the batch.  Batch
  /// members step concurrently, so they must not share a trace sink or
  /// metric registry; give each member its own (e.g. a RingBufferTraceSink
  /// replayed serially afterwards) or none.
  int Add(const Workload& workload, const LatencyModel& model,
          LlaConfig config);

  std::size_t size() const { return engines_.size(); }
  LlaEngine& engine(std::size_t index) { return *engines_[index]; }
  const LlaEngine& engine(std::size_t index) const { return *engines_[index]; }

  /// Advances every engine by `steps` iterations, one batch item per pool
  /// slot.  Engines already converged still step (matching a standalone
  /// Step() loop).
  void StepAll(int steps = 1);

  /// Run(max_iterations) on every engine concurrently; results are indexed
  /// like the engines.
  std::vector<RunResult> RunAll(int max_iterations);

  /// The shared pool, for callers that want to sweep their own items with
  /// batch-style granularity (see ParallelSweep).
  ThreadPool* pool() { return pool_.get(); }

 private:
  std::unique_ptr<ThreadPool> pool_;  ///< null when num_threads <= 1
  std::vector<std::unique_ptr<LlaEngine>> engines_;
};

}  // namespace lla
