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
#pragma once

#include <vector>

#include "common/parallel.h"
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

/// The serial reduction of a filled workspace, in index order: the
/// congestion flags from the share sums, the utility total in task order
/// and SummarizeFeasibility over the share sums and path latencies.  The
/// result depends only on the three arrays, never on who filled them or on
/// how the fill was chunked.  FillStepWorkspace ends with it; the
/// distributed coordinator's monitor runs it alone over the workspace its
/// agents filled (DESIGN.md §7.11).
void ReduceStepWorkspace(const Workload& workload, double feasibility_tol,
                         StepWorkspace* workspace);

/// Fills every array and scalar of `workspace` (sized by Resize) from
/// `latencies`: the fused replacement for the per-consumer sweeps.  Each of
/// the resource/path/task sweeps fans its Fill*Range body
/// (model/evaluation.h) across `pool` when given, one ParallelFor each,
/// then ReduceStepWorkspace runs serially, so results do not depend on the
/// thread count.  An engine step is LatencySolver::SolveAll followed by
/// this call.
void FillStepWorkspace(const Workload& workload, const LatencyModel& model,
                       const Assignment& latencies, UtilityVariant variant,
                       double feasibility_tol, ThreadPool* pool,
                       StepWorkspace* workspace);

}  // namespace lla
