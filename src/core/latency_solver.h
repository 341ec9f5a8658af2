// Latency allocation (paper Sec. 4.2): given prices, compute the latencies
// that maximize the Lagrangian.
//
// Stationarity (Eq. 7) for subtask s of task i on resource r:
//
//   w_s * f_i'(X_i) - Lambda_s - mu_r * share_s'(lat_s) = 0,
//   X_i = sum_{s in task i} w_s * lat_s,   Lambda_s = sum_{p contains s} lambda_p.
//
// Rearranged: -share_s'(lat_s) = (Lambda_s - w_s * f_i'(X_i)) / mu_r.
// For linear f_i the right-hand side is a constant and each subtask solves
// independently (closed form err + sqrt(mu*work/(Lambda - w*f')) for the
// share model work/(lat - err)).  For general concave f_i the subtasks of a
// task couple through X_i; because f_i' is non-increasing, lat_s(X) is
// non-increasing in X, so X = h(X) is a monotone scalar fixed point solved
// by bisection.
//
// Latencies are clamped to [lat_lo, lat_hi]:
//   lat_lo: share may not exceed the resource capacity B_r;
//   lat_hi: share may not drop below the sustainable minimum (min_share),
//           else a fixed multiple of the critical time (SubtaskLatencyBox).
//
// The bounds, variant weights, share coefficients and the subtask->path
// price index depend only on the workload, the model and the config, not on
// the prices, so the solver caches them in flat arrays (the bisection's h(x)
// used to recompute the bounds on every evaluation) and every cached solve
// runs the flat closed-form kernel SolveClosedSpan.  The cache is keyed to
// LatencyModel::revision(): shares change only through the model's setters,
// which bump it, so an online correction (Sec. 6.3) is picked up on the next
// solve.  The solver keeps no price-derived state: every solve gathers
// Lambda_s from the prices it is handed over the one subtask->path CSR, so
// a price move never needs a re-prepare.  SolveAll optionally fans the
// independent per-task solves out across a thread pool; tasks write
// disjoint latency slots, so results are bit-identical for any thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "core/prices.h"
#include "model/evaluation.h"
#include "model/latency_model.h"
#include "model/workload.h"

namespace lla {

/// lat_hi of a subtask without a min_share floor, per unit critical time.
inline constexpr double kLatCapFactor = 10.0;

struct LatencyBox {
  double lo = 0.0;
  double hi = 0.0;
};

/// The latency box of subtask `id` (see the file comment).  LatencySolver,
/// BarrierSolver and Phase1Solver all clamp to it, so the reference solvers
/// solve LLA's box by construction.
LatencyBox SubtaskLatencyBox(const Workload& workload,
                             const LatencyModel& model, SubtaskId id);

struct LatencySolverConfig {
  UtilityVariant variant = UtilityVariant::kPathWeighted;
  /// Disables the per-subtask invariant cache: bounds are recomputed on
  /// every evaluation and each subtask solves through the scalar
  /// SolveSubtask path, as the pre-workspace solver did.  Reference/bench
  /// mode only — results are bit-identical either way.
  bool cache_invariants = true;
};

class LatencySolver {
 public:
  /// Both `workload` and `model` must outlive the solver.  The model is
  /// consulted through a revision-checked cache, so online corrections
  /// (which replace share functions) still apply on the next solve.
  /// `workload` must number each task's subtasks contiguously, as
  /// Workload::Create does.
  LatencySolver(const Workload& workload, const LatencyModel& model,
                LatencySolverConfig config = {});

  /// Computes the Lagrangian-maximizing latencies of every subtask and
  /// stores them in `latencies` (which must have workload.subtask_count()
  /// entries): PrepareSolve, then SolveTaskRange over every task; with a
  /// pool the independent per-task solves run in parallel (static
  /// partitioning, bit-identical results).
  void SolveAll(const PriceVector& prices, Assignment* latencies,
                ThreadPool* pool = nullptr) const;

  /// Refreshes the model-derived invariant cache if the model revision
  /// moved (serial).  Call once before fanning SolveTaskRange out across
  /// threads; workers then only read the cache.
  void PrepareSolve() const;

  /// Solves tasks [begin, end) — the chunk body of a parallel solve, and a
  /// task controller's own solve.  Requires PrepareSolve first; writes only
  /// the latency slots of the chunk's own subtasks, so disjoint chunks
  /// compose race-free.
  void SolveTaskRange(std::size_t begin, std::size_t end,
                      const PriceVector& prices, Assignment* latencies) const;

  /// Clamping bounds for a subtask's latency.
  double LatLo(SubtaskId id) const;
  double LatHi(SubtaskId id) const;

  const LatencySolverConfig& config() const { return config_; }

 private:
  /// Recomputes the model-derived invariants at the current revision.
  void RebuildCache() const;

  /// The subtask's box: cached, or recomputed when cache_invariants is off.
  LatencyBox Box(SubtaskId id) const {
    return config_.cache_invariants
               ? LatencyBox{lat_lo_[id.value()], lat_hi_[id.value()]}
               : SubtaskLatencyBox(*workload_, *model_, id);
  }
  /// lat_s given the utility slope f_i'(X) at the coupling value X.
  double SolveSubtask(SubtaskId id, double utility_slope,
                      const PriceVector& prices) const;
  /// One task's solve, assuming the cache is fresh.
  void SolveTaskFresh(TaskId task, const PriceVector& prices,
                      Assignment* latencies) const;
  /// Flat closed-form stationarity kernel over the contiguous subtask span
  /// [begin, end): lat = clamp(err + sqrt(work / ((Lambda - w f') / mu))),
  /// evaluated over the cached SoA arrays with exactly the arithmetic of
  /// SolveSubtask + LatencyForNegSlope, so results are bit-identical to the
  /// scalar path.  `out` is indexed by global subtask id.
  void SolveClosedSpan(std::size_t begin, std::size_t end,
                       double utility_slope, const PriceVector& prices,
                       double* out) const;

  const Workload* workload_;
  const LatencyModel* model_;
  LatencySolverConfig config_;

  // Workload/config invariants (built once in the constructor).
  std::vector<double> weight_;           ///< w_s under config_.variant
  std::vector<std::size_t> path_offset_; ///< CSR offsets, subtask -> paths
  std::vector<std::size_t> path_index_;  ///< CSR values: global PathId values
  std::vector<std::size_t> resource_index_;  ///< subtask -> ResourceId value
  std::vector<std::size_t> task_begin_;  ///< task -> first subtask id
  std::vector<std::size_t> task_end_;    ///< task -> one-past-last subtask id

  // Model-derived invariants, built in the constructor and rebuilt when the
  // model revision moves (cache_invariants only).
  mutable std::uint64_t cached_revision_ = 0;
  mutable std::vector<double> lat_lo_;
  mutable std::vector<double> lat_hi_;
  mutable std::vector<double> closed_work_;  ///< share work_ms per subtask
  mutable std::vector<double> closed_err_;   ///< share error_ms per subtask
  /// Per-subtask scratch for the kernel's path-price gather; tasks own
  /// disjoint spans, so parallel chunks never collide.
  mutable std::vector<double> lambda_scratch_;
};

}  // namespace lla
