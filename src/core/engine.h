// LlaEngine: the synchronous LLA iteration (paper Sec. 4.1).
//
// One Step() performs the paper's two half-steps in order:
//   1. latency allocation — every task controller maximizes the Lagrangian
//      at the current prices (LatencySolver);
//   2. price computation — every resource and every controller moves its
//      prices by gradient projection (PriceUpdater), with step sizes chosen
//      by the engine's StepSchedule.
//
// Between the half-steps the engine fills a StepWorkspace once — resource
// share sums, path latencies, task utility aggregates — and every per-step
// consumer (congestion detection, price update, iteration stats,
// feasibility, complementary slackness) reads those arrays instead of
// re-walking the workload.  The workspace buffers are reused, so the
// steady-state iteration is allocation-free.  With num_threads > 1 the
// per-task solves and each evaluation sweep fan out across a pool, one
// ParallelFor per sweep (LatencySolver::SolveAll, then FillStepWorkspace),
// with static partitioning and a deterministic grain cutoff; results are
// bit-identical for any thread count.
//
// The engine is the single-process reference implementation used by the
// simulation experiments (Secs. 5.2-5.4); the message-passing deployment of
// the same iteration lives in src/runtime.  Online error correction applied
// between steps (Sec. 6.3) is picked up automatically: the solver's cached
// model invariants are keyed to LatencyModel::revision(), which every share
// replacement bumps.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/parallel.h"
#include "core/latency_solver.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "core/price_dynamics.h"
#include "core/price_update.h"
#include "core/prices.h"
#include "core/step_size.h"
#include "core/step_workspace.h"
#include "model/evaluation.h"
#include "model/latency_model.h"
#include "model/serialization.h"
#include "model/workload.h"
#include "workloads/transform.h"

namespace lla {

struct ConvergenceConfig {
  /// Converged when the relative utility change across the trailing window
  /// stays below this.
  double rel_tol = 1e-5;
  /// ... and near-feasibility (the dual approaches the boundary).
  static constexpr double feasibility_tol = 1e-3;
};

/// Length of the trailing utility window of the stop rule.
inline constexpr int kConvergenceWindow = 10;
static_assert(kConvergenceWindow == kSnapshotUtilityWindow,
              "a b1 image holds the whole utility window and no more");

/// The largest step count Restore() adopts.  The engine counts steps in a
/// signed 64-bit integer; this bound leaves 2^62 further steps (over a
/// century at 10^9 steps/s) before that count could overflow.
inline constexpr std::int64_t kMaxRestoredIteration = std::int64_t{1} << 62;

/// Utility can plateau far from the dual fixed point (latencies pinned at box
/// bounds under inflated prices), so the engine also requires approximate
/// complementary slackness: mu_r * slack_r / B_r at most this for every
/// resource, and the path analogue.
inline constexpr double kComplementarityTol = 0.1;

/// The stop rule's utility window, shared by the engine and the coordinator:
/// pushes `utility` onto `recent`, keeps the last kConvergenceWindow values
/// and is true once they are all in and spread at most rel_tol * max(1, |max|).
bool UtilityWindowSettled(std::deque<double>* recent, double utility,
                          double rel_tol);

/// The trace columns both backends fill from one evaluation, one price
/// vector and one step schedule: utility, feasibility, share sums and path
/// latencies, mu and lambda, and each component's step.  Each caller adds
/// its own fields; the assignments reuse the trace's capacity.
void FillIterationTrace(const StepWorkspace& evaluation,
                        const PriceVector& prices, const StepSchedule& schedule,
                        obs::IterationTrace* trace);

/// Per-step work reporting.  Every step solves every task and refreshes
/// every aggregate, so this switch never changes the trajectory (DESIGN.md
/// §7.6 explains the name).
struct ActiveSetConfig {
  /// Enabled (the default) registers the engine.active.* counters with
  /// LlaConfig::metrics and writes the per-step work fields of the trace.
  bool enabled = true;
};

struct LlaConfig {
  LatencySolverConfig solver;
  StepPolicyKind step_policy = StepPolicyKind::kAdaptive;
  double gamma0 = 1.0;  ///< base step size
  double adaptive_max_multiplier = kDefaultStepMultiplierCap;
  double diminishing_tau = kDefaultDiminishingTau;
  /// Accelerated price dynamics (heavy-ball / Nesterov momentum with
  /// adaptive restart; see price_dynamics.h).  Orthogonal to step_policy:
  /// the step schedule still chooses gamma per component per iteration,
  /// the dynamics decide how the gradient step is applied.  The default
  /// (plain) runs the original Eq. 8/9 arithmetic unchanged.  The momentum
  /// must be finite and in [0, 1); the constructor aborts otherwise.
  DynamicsConfig dynamics;
  ConvergenceConfig convergence;
  /// Per-step work reporting (see the struct).
  ActiveSetConfig active_set;
  /// Record per-iteration stats (utility traces for the figures).
  bool record_history = true;
  /// Threads for the per-task solves and the evaluation sweeps.  1 (the
  /// default) runs serially with no pool; any value produces bit-identical
  /// results (static partitioning, serial reductions).
  int num_threads = 1;
  /// Pool tuning: grain cutoff and hardware-concurrency clamp.
  /// None of these can change results, only scheduling (see parallel.h).
  ParallelConfig parallel;
  /// Receives one IterationTrace per Step(), sourced from the fused
  /// StepWorkspace (no extra sweeps).  Null (the default) disables tracing
  /// at the cost of one pointer test; an attached sink never perturbs the
  /// trajectory (non-owning; must outlive the engine).
  obs::TraceSink* trace_sink = nullptr;
  /// Registry for the engine's counters (engine.steps) and phase timers:
  /// engine.solve (the latency solve plus the workspace fill) and
  /// engine.price_update.  Null disables instrumentation entirely
  /// (non-owning; must outlive the engine).
  obs::MetricRegistry* metrics = nullptr;
};

/// Per-iteration diagnostics (the quantities Figures 5-7 plot).
struct IterationStats {
  std::int64_t iteration = 0;
  double total_utility = 0.0;
  double max_resource_excess = 0.0;  ///< max over r of (share sum - B_r), >= 0
  double max_path_ratio = 0.0;       ///< max over p of latency / C_i
  bool feasible = false;
  /// Work this step performed: every task and subtask, on every step.
  int tasks_solved = 0;
  int subtasks_solved = 0;
};

struct RunResult {
  bool converged = false;
  std::int64_t iterations = 0;
  double final_utility = 0.0;
  FeasibilityReport final_feasibility;
  /// Sum of IterationStats::subtasks_solved over this Run's steps — the
  /// convergence-work metric bench_convergence reports.
  std::uint64_t subtask_solves = 0;
};

class LlaEngine {
 public:
  /// `workload` and `model` must outlive the engine.
  LlaEngine(const Workload& workload, const LatencyModel& model,
            LlaConfig config = {});

  /// One latency-allocation + price-computation iteration.
  IterationStats Step();

  /// Runs until convergence (per config) or `max_iterations` steps,
  /// whichever first.
  RunResult Run(int max_iterations);

  /// Resets prices (to zero), step-size state, convergence state and history;
  /// keeps the workload/model bindings.
  void Reset();

  /// Clears only the convergence detector (call after the LatencyModel
  /// changes so a previously settled engine re-evaluates from its warm
  /// price state instead of reporting stale convergence).
  void ClearConvergenceWindow();

  /// Seeds the dual state from a previous run (typically on a transformed
  /// workload with the same structure: after a capacity or critical-time
  /// change the old prices are near the new optimum and re-convergence is
  /// much faster than a cold start).  Price vector sizes MUST match this
  /// workload — a mismatch aborts (it would silently mis-map every
  /// multiplier; after a structural transform use WarmStartStructural, which
  /// remaps).  Negative entries are projected to zero.
  void WarmStart(const PriceVector& prices);

  /// Structural warm start: seeds this engine (built on the NEW workload)
  /// from the dual state of a run on the OLD workload, where the two differ
  /// by exactly one task (a leave or a join; resources fixed).  The price
  /// remapping happens internally (MapPricesWithoutTask / MapPricesWithTask),
  /// followed by the selective re-prime policy of DESIGN.md §7.9: the dirty
  /// set is the transitive closure of the changed task's resources over the
  /// task<->resource sharing graph, and after a LEAVE the closure resources'
  /// mu is re-seeded at 0.0, where Reset starts it (the mapped values are
  /// upper-biased — the departed demand is gone — and Eq. 8 decays an
  /// inflated mu only at gamma*slack per step, which is why a naive mapped
  /// warm start re-converges slower than cold).  Everything outside the
  /// closure keeps its mapped prices bit-identical, so untouched tasks
  /// re-quiesce without re-solving.  A JOIN keeps all mapped multipliers
  /// (congestion-driven rises are fast) and seeds the newcomer's lambda at
  /// 0.0.  Fails without touching the engine when the shapes are
  /// inconsistent.
  Status WarmStartStructural(const Workload& old_workload,
                             const PriceVector& old_prices,
                             const StructuralChange& change);

  /// Captures the complete dual state — prices, step-schedule state,
  /// momentum state, convergence window and counters — into a durable
  /// snapshot (DESIGN.md §7.7).  Restore() of the snapshot into a fresh
  /// engine on the same workload resumes the dense trajectory
  /// bit-identically: every subsequent Step() produces bitwise the same
  /// prices and latencies the checkpointed engine would have produced.
  /// History is diagnostics and is not captured.
  StateSnapshot Checkpoint() const;

  /// Adopts a snapshot taken by Checkpoint() (possibly in another process).
  /// Fails without touching the engine if the snapshot's shape does not
  /// match this workload (a step or momentum section may be empty), its
  /// iteration lies outside [0, kMaxRestoredIteration], its step iteration
  /// is negative, or a dual value is out of range: a price negative or not
  /// finite, a step multiplier below 1 or not finite, a momentum field not
  /// finite or a phase negative.  On success the engine's latencies are
  /// re-derived from the restored prices by a solve, history is cleared,
  /// and the next Step() continues the checkpointed trajectory bit-for-bit
  /// (any thread count).  The schedule adopts only what its own step policy
  /// saved (StepSchedule::Adopt).
  /// Takes the snapshot by value and moves its vectors into place; decode
  /// b1 bytes for it with the loaders given this engine's workload
  /// (DESIGN.md §7.11).
  Status Restore(StateSnapshot snapshot);

  bool Converged() const { return converged_; }
  std::int64_t iteration() const { return iteration_; }
  /// Cumulative adaptive-restart count of the momentum dynamics since
  /// construction (0 under plain dynamics).  Reset and WarmStart keep
  /// counting; Restore adopts the total the snapshot carries.
  std::uint64_t momentum_restarts() const { return momentum_restarts_; }
  /// Cumulative subtask solves performed by Step() since the last
  /// Reset/WarmStart (every subtask, every step).
  std::uint64_t total_subtask_solves() const { return total_subtask_solves_; }
  /// Dirty-closure size of the last WarmStartStructural (0 before any):
  /// tasks / resources whose dual state the structural event re-primed.
  std::size_t last_reprime_tasks() const { return last_reprime_tasks_; }
  std::size_t last_reprime_resources() const { return last_reprime_resources_; }
  const Assignment& latencies() const { return latencies_; }
  const PriceVector& prices() const { return prices_; }
  const std::vector<IterationStats>& history() const { return history_; }
  const LlaConfig& config() const { return config_; }
  const Workload& workload() const { return *workload_; }
  const LatencyModel& model() const { return *model_; }

  /// Convenience: evaluate the current assignment.
  FeasibilityReport Feasibility() const;
  double TotalUtilityNow() const;

 private:
  void UpdateConvergence(double utility, bool feasible);
  void EmitTrace(const IterationStats& stats);
  /// The initial solve at prices_ (Reset, WarmStart, Restore), so that
  /// latencies_ always matches the prices.
  void SolveAtPrices();
  /// Fresh momentum re-based at prices_ (no-op under plain dynamics): no
  /// velocity, no ramp credit, Nesterov base at the published point.
  void ResetDynamics();

  const Workload* workload_;
  const LatencyModel* model_;
  LlaConfig config_;
  LatencySolver solver_;
  PriceUpdater updater_;
  StepSchedule schedule_;
  /// Momentum state, one per mu and one per lambda, stepped by
  /// StepComponentDynamics inside the serial price update.  Empty under
  /// plain dynamics, which keep none.
  std::vector<ComponentDynamicsState> mu_dynamics_;
  std::vector<ComponentDynamicsState> lambda_dynamics_;
  std::uint64_t momentum_restarts_ = 0;
  std::unique_ptr<ThreadPool> pool_;  ///< null when num_threads <= 1
  PriceVector prices_;
  Assignment latencies_;
  StepWorkspace workspace_;
  std::int64_t iteration_ = 0;
  bool converged_ = false;
  std::uint64_t total_subtask_solves_ = 0;
  std::size_t last_reprime_tasks_ = 0;
  std::size_t last_reprime_resources_ = 0;
  /// Adaptive restarts the last Step's price update fired (trace/metric
  /// source).
  std::uint64_t last_step_restarts_ = 0;
  std::deque<double> recent_utilities_;
  std::vector<IterationStats> history_;

  /// Observability handles, resolved once at construction (all null when
  /// config.metrics is null) and a reused trace record buffer.
  obs::Counter* steps_counter_ = nullptr;
  obs::Timer* solve_timer_ = nullptr;  ///< solve + workspace fill
  obs::Timer* price_timer_ = nullptr;
  obs::Counter* active_tasks_solved_ = nullptr;
  obs::Counter* active_subtasks_solved_ = nullptr;
  obs::Counter* active_resources_refreshed_ = nullptr;
  obs::Counter* active_paths_refreshed_ = nullptr;
  obs::Counter* active_primes_ = nullptr;
  obs::Counter* momentum_restarts_counter_ = nullptr;
  obs::Counter* reprime_tasks_counter_ = nullptr;
  obs::Counter* reprime_resources_counter_ = nullptr;
  obs::IterationTrace trace_;
};

}  // namespace lla
