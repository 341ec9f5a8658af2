// Structured iteration tracing for the LLA engine and runtime.
//
// The paper's evidence is trajectories — utility vs. iteration (Figs. 5-6),
// share sums oscillating under infeasibility (Fig. 7), shares converging
// under error correction (Fig. 8).  A TraceSink receives those trajectories
// as structured records instead of every bench hand-rolling its own
// printing: the engine (and the distributed coordinator's monitor) emits one
// IterationTrace per step, sourced from the already-fused StepWorkspace
// arrays, so tracing adds no extra evaluation sweeps.
//
// Contract (see DESIGN.md §7.4):
//   * A null sink pointer disables tracing entirely — the hot path performs
//     one pointer comparison and nothing else.
//   * Sinks must never mutate producer state; an attached sink must leave
//     trajectories bit-identical to an untraced run (pinned by
//     trace_property_test).
//   * The IterationTrace passed to OnIteration is a reused buffer; sinks
//     must copy what they keep (RingBufferTraceSink does).
//   * OnRunBegin/OnRunEnd bracket one labelled run; producers that do not
//     know a label (the engine) emit iterations only and leave run
//     bracketing to the caller (benches, the CLI).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace lla::obs {

/// Metadata for one labelled run (one engine/coordinator lifetime, one bench
/// configuration, ...).
struct RunInfo {
  std::string label;
  std::size_t resource_count = 0;
  std::size_t path_count = 0;
};

/// One iteration of the price iteration, as the figures plot it.  Vector
/// fields are indexed by the workload's ResourceId / PathId.  Prices are the
/// post-update values (the dual state entering the next iteration); share
/// sums and latencies are the ones this iteration's allocation produced.
struct IterationTrace {
  std::int64_t iteration = 0;
  /// Virtual bus time for distributed rounds; < 0 for the in-process engine.
  double at_ms = -1.0;
  double total_utility = 0.0;
  bool feasible = false;
  double max_resource_excess = 0.0;
  double max_path_ratio = 0.0;
  std::vector<double> resource_share_sums;
  std::vector<double> resource_mu;
  std::vector<double> resource_step;  ///< step size used per resource
  std::vector<double> path_latencies;
  std::vector<double> path_lambda;
  std::vector<double> path_step;      ///< step size used per path
  /// Per-step work: how many tasks / subtasks this iteration solved, and
  /// the number of nonzero mu/lambda after the price update.  -1 (the
  /// default) means the producer does not report them (the engine reports
  /// them when ActiveSetConfig::enabled); sinks omit negative values.
  int tasks_solved = -1;
  int subtasks_solved = -1;
  int active_mu = -1;
  int active_lambda = -1;
  /// Accelerated price dynamics (core/price_dynamics.h): adaptive restarts
  /// fired this step and the mean momentum coefficient actually applied
  /// across all R + P components, beta * (1 - restarts / (R + P)).  A
  /// diverging momentum run is diagnosable from JSONL alone: effective_beta
  /// pinned well below the configured beta means restarts fire every step.
  /// -1 (the default) means the producer runs plain dynamics; sinks omit
  /// negative values.
  int momentum_restarts = -1;
  double effective_beta = -1.0;
};

/// A free-form record for series that are not price iterations (e.g. the
/// Fig. 8 per-epoch shares): a type tag plus flat numeric fields.
struct TraceEvent {
  std::string type;
  std::vector<std::pair<std::string, double>> fields;
};

/// Receiver interface.  Default implementations ignore everything except
/// OnIteration, so sinks only override what they store.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnRunBegin(const RunInfo& /*info*/) {}
  virtual void OnIteration(const IterationTrace& trace) = 0;
  virtual void OnEvent(const TraceEvent& /*event*/) {}
  virtual void OnRunEnd() {}
};

/// Streams one JSON object per line (JSONL).  Every record carries a "type"
/// ("run_begin" | "iteration" | "event" | "run_end") and, for iterations and
/// events, the label of the enclosing run — so a file holding several runs
/// (the Fig. 5 gamma sweep) can be split back into its series.
class JsonlTraceSink final : public TraceSink {
 public:
  /// Opens `path` for writing ("-" streams to stdout).  A sink whose file
  /// did not open drops all records.
  explicit JsonlTraceSink(const std::string& path);
  ~JsonlTraceSink() override;

  JsonlTraceSink(const JsonlTraceSink&) = delete;
  JsonlTraceSink& operator=(const JsonlTraceSink&) = delete;

  /// Whether the file opened and every record written so far reached it.
  /// Records are buffered until OnRunEnd flushes them, so ask after it.
  bool ok() const { return file_ != nullptr && std::ferror(file_) == 0; }

  void OnRunBegin(const RunInfo& info) override;
  void OnIteration(const IterationTrace& trace) override;
  void OnEvent(const TraceEvent& event) override;
  void OnRunEnd() override;

 private:
  std::FILE* file_ = nullptr;
  bool owns_file_ = false;
  std::string run_label_;
};

/// Keeps the last `capacity` IterationTrace records in memory (deep copies).
/// The in-process sink for tests and for attaching diagnostics to a live
/// engine without I/O.
class RingBufferTraceSink final : public TraceSink {
 public:
  explicit RingBufferTraceSink(std::size_t capacity);

  void OnIteration(const IterationTrace& trace) override;

  /// Number of records currently held (<= capacity).
  std::size_t size() const { return buffer_.size(); }
  /// Total records ever received (>= size()).
  std::uint64_t total_received() const { return total_received_; }
  /// i = 0 is the oldest retained record, i = size() - 1 the newest.
  const IterationTrace& at(std::size_t i) const;

 private:
  std::size_t capacity_;
  std::size_t next_ = 0;  ///< write cursor once the buffer is full
  std::uint64_t total_received_ = 0;
  std::vector<IterationTrace> buffer_;
};

}  // namespace lla::obs
