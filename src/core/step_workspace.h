// StepWorkspace: the fused per-iteration evaluation cache of the LLA core.
//
// One LLA step needs the same handful of aggregates many times over —
// resource share sums (congestion detection, Eq. 8 price update,
// feasibility, complementary slackness), path latencies (Eq. 9, feasibility,
// complementary slackness) and the task utility aggregates (iteration stats,
// convergence window).  Before this layer the engine recomputed each of them
// from the workload on every use, four-plus O(|subtasks|)+O(|paths|) sweeps
// per iteration.  FillStepWorkspace computes everything exactly once per
// step into flat arrays owned by the caller; every downstream consumer reads
// the arrays.  The buffers are reused across steps, so the steady-state
// iteration performs no allocation, and all values are bit-identical to the
// scalar oracles in model/evaluation.h for any thread count.
// ActiveSolveAndFill is the sparse form of a solve plus fill: one bitwise
// pass over each price space marks the tasks to re-solve, and only the
// aggregates their latencies touch are re-summed (DESIGN.md §7.6).
#pragma once

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "core/latency_solver.h"
#include "core/prices.h"
#include "model/evaluation.h"
#include "model/latency_model.h"
#include "model/workload.h"

namespace lla {

struct StepWorkspace {
  std::vector<double> resource_share_sums;     ///< by ResourceId (Eq. 3 lhs)
  std::vector<double> path_latencies;          ///< by PathId (Eq. 4 lhs)
  std::vector<double> task_utilities;          ///< f_i(X_i) by TaskId
  std::vector<bool> resource_congested;        ///< share sum > B_r
  double total_utility = 0.0;
  FeasibilitySummary feasibility;

  /// Sizes every buffer for `workload` (idempotent; call once up front so
  /// the per-step fills never allocate).
  void Resize(const Workload& workload);
};

/// Fills every array and scalar of `workspace` (sized by Resize) from
/// `latencies`: the fused replacement for the per-consumer sweeps.  Each of
/// the resource/path/task sweeps fans its Fill*Range body
/// (model/evaluation.h) across `pool` when given, one ParallelFor each; the
/// utility total and feasibility maxima are reduced serially in index order
/// so results do not depend on the thread count.  A dense engine step is
/// LatencySolver::SolveAll followed by this call.
void FillStepWorkspace(const Workload& workload, const LatencyModel& model,
                       const Assignment& latencies, UtilityVariant variant,
                       double feasibility_tol, ThreadPool* pool,
                       StepWorkspace* workspace);

/// Dirty-tracking state of the incremental (active-set) stepping mode.
///
/// The sparse step keys every skip on exact bitwise equality: a task whose
/// subtasks see bit-identical mu and lambda re-solves to bit-identical
/// latencies, so its persisted latency/workspace entries ARE the re-solve's
/// result; a resource/path whose member latencies are all bit-unchanged
/// re-aggregates to the same sum.  One pass over mu and one over lambda
/// compare the new prices with solve_prices and mark the dirty tasks as they
/// go.  Dirty items are recomputed in full with the dense arithmetic (never
/// delta-updated) over the same path-price CSR the dense solve gathers
/// through, which makes the incremental trajectory bit-for-bit equal to the
/// dense one at any thread count.
///
/// Invalidate(), a LatencyModel::revision() move or a shape change forces a
/// dense re-prime on the next step: a model correction changes solve results
/// without moving a price bit, so the revision check is what keeps the
/// baseline honest.
struct ActiveSetState {
  bool primed = false;
  std::uint64_t model_revision = 0;

  /// Inputs/outputs the current workspace and latency buffers were computed
  /// from (the baseline the next step diffs against).
  PriceVector solve_prices;
  Assignment prev_latencies;

  /// Reverse index: resource -> distinct tasks with a subtask on it (CSR,
  /// ascending task ids).  Built at prime time.
  std::vector<std::size_t> res_task_offset;
  std::vector<std::uint32_t> res_task_index;

  /// Per-step scratch, reused (allocation-free in steady state).
  std::vector<std::uint8_t> task_dirty;
  std::vector<std::uint8_t> resource_dirty;
  std::vector<std::uint8_t> path_dirty;
  std::vector<std::uint32_t> dirty_tasks;
  std::vector<std::uint32_t> dirty_resources;
  std::vector<std::uint32_t> dirty_paths;

  void Invalidate() { primed = false; }
};

/// What one incremental step actually computed (the skipped-work /
/// active-set observability signal; dense mode reports the full counts).
struct ActiveStepWork {
  std::size_t tasks_solved = 0;
  std::size_t subtasks_solved = 0;
  std::size_t resources_refreshed = 0;
  std::size_t paths_refreshed = 0;
  bool primed = false;  ///< this step ran the dense prime
};

/// LatencySolver::SolveAll + FillStepWorkspace with dirty tracking: only
/// tasks whose prices changed (bitwise, vs. state->solve_prices) are
/// re-solved, and only resources/paths/tasks with a bit-changed member
/// latency are re-aggregated; everything else reuses the persisted
/// workspace entries.  Results are bit-identical to that dense pair at any
/// thread count (see ActiveSetState).  The first call (or any call after
/// Invalidate(), a model revision move, or a shape change) primes densely
/// with the pair itself.  `latencies` and `workspace` must be the same
/// objects across calls, and `workspace` must be sized (Resize).
ActiveStepWork ActiveSolveAndFill(
    const LatencySolver& solver, const Workload& workload,
    const LatencyModel& model, const PriceVector& prices,
    UtilityVariant variant, double feasibility_tol, ThreadPool* pool,
    Assignment* latencies, StepWorkspace* workspace, ActiveSetState* state);

}  // namespace lla
