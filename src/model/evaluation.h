// Evaluation of a latency assignment against a workload: utilities,
// resource share sums, path latencies, and constraint violations.
//
// These are the quantities in the paper's objective (Eq. 2) and constraints
// (Eqs. 3-4), and the diagnostics its figures plot (total utility, per-
// resource share sums, critical-path-to-critical-time ratios).
//
// Two forms are provided.  The scalar helpers (ResourceShareSum,
// PathLatency, ...) evaluate one resource/path/task at a time and are the
// reference oracles.  The Fill*Range sweep bodies evaluate index ranges into
// caller-owned flat arrays — no allocation in steady state and each quantity
// computed exactly once per iteration — and SummarizeFeasibility derives
// feasibility from those arrays instead of re-walking the workload.  Every
// Fill*Range/SummarizeFeasibility result is bit-identical to the scalar
// oracle (same iteration order, same arithmetic), for any chunking.
#pragma once

#include <vector>

#include "common/ids.h"
#include "model/latency_model.h"
#include "model/workload.h"

namespace lla {

/// A latency assignment: latencies_ms[s] is the predicted latency of global
/// subtask s.  Produced by LLA, the baselines, and the reference solver.
using Assignment = std::vector<double>;

/// U_i = f_i(sum of weighted subtask latencies) for one task.
double TaskUtility(const Workload& workload, TaskId task,
                   const Assignment& latencies, UtilityVariant variant);

/// Objective of Eq. 2: sum of task utilities.
double TotalUtility(const Workload& workload, const Assignment& latencies,
                    UtilityVariant variant);

/// Left-hand side of Eq. 3 for one resource: sum of subtask shares.
double ResourceShareSum(const Workload& workload, const LatencyModel& model,
                        ResourceId resource, const Assignment& latencies);

/// Left-hand side of Eq. 4 for one path: sum of subtask latencies on it.
double PathLatency(const Workload& workload, PathId path,
                   const Assignment& latencies);

/// Latency of the task's critical path: max over its paths of PathLatency.
double CriticalPathLatency(const Workload& workload, TaskId task,
                           const Assignment& latencies);

/// Summary of how (in)feasible an assignment is.
struct FeasibilityReport {
  bool feasible = true;
  /// max over resources of (share sum - capacity), clamped at >= 0.
  double max_resource_excess = 0.0;
  /// max over paths of (path latency / critical time); > 1 means violated.
  double max_path_ratio = 0.0;
  /// per-resource share sums, indexed by ResourceId.
  std::vector<double> resource_share_sums;
  /// per-task critical-path latencies, indexed by TaskId.
  std::vector<double> critical_paths;
};

/// Checks Eq. 3 and Eq. 4 with the given tolerance (relative slack allowed
/// on each constraint; the dual algorithm converges to the boundary, so a
/// small tolerance is appropriate when classifying its output).
FeasibilityReport CheckFeasibility(const Workload& workload,
                                   const LatencyModel& model,
                                   const Assignment& latencies,
                                   double tolerance = 1e-6);

/// The sweep bodies of the per-step evaluation: each computes items
/// [begin, end) into an already-sized output array, writing only its own
/// slots with the scalar oracle's iteration order and arithmetic, so any
/// chunking stays bit-identical to the oracles.  FillStepWorkspace
/// (core/step_workspace.h) fans each out over the whole index space.
///   - FillResourceShareSumsRange: ResourceShareSum of resources [begin, end)
///     into `sums`, indexed by ResourceId.
///   - FillPathLatenciesRange: PathLatency of paths [begin, end) into
///     `latencies_out`, indexed by PathId.
///   - FillTaskAggregatesRange: each task's utility f_i(X_i) into
///     `utilities`, indexed by TaskId; the latency aggregate X_i (the
///     weighted subtask sum f_i is applied to) stays a local.  TotalUtility
///     is the serial sum of `utilities` in task order.
void FillResourceShareSumsRange(const Workload& workload,
                                const LatencyModel& model,
                                const Assignment& latencies, std::size_t begin,
                                std::size_t end, std::vector<double>* sums);
void FillPathLatenciesRange(const Workload& workload,
                            const Assignment& latencies, std::size_t begin,
                            std::size_t end,
                            std::vector<double>* latencies_out);
void FillTaskAggregatesRange(const Workload& workload,
                             const Assignment& latencies,
                             UtilityVariant variant, std::size_t begin,
                             std::size_t end, std::vector<double>* utilities);

/// The three FeasibilityReport scalars without the per-resource/per-task
/// vectors — the per-iteration form (no allocation).
struct FeasibilitySummary {
  bool feasible = true;
  double max_resource_excess = 0.0;
  double max_path_ratio = 0.0;
};

/// CheckFeasibility's verdict from already-computed share sums and path
/// latencies (as filled by FillResourceShareSumsRange /
/// FillPathLatenciesRange).
FeasibilitySummary SummarizeFeasibility(
    const Workload& workload, const std::vector<double>& resource_share_sums,
    const std::vector<double>& path_latencies, double tolerance = 1e-6);

}  // namespace lla
