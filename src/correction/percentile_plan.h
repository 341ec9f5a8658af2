// Per-subtask percentile planning (paper Sec. 2.1).
//
// When a task's SLA is stated on the p-th percentile of its end-to-end
// latency, per-subtask budgets must be held at the tighter per-subtask
// percentile q = p^(1/n) for an n-hop path.  For a subtask on several
// paths the longest one dominates (q grows with n), so the planner assigns
// each subtask q_s = p_i^(1 / max hops through s).
//
// The output plugs directly into the measurement side: ErrorCorrector
// accepts per-subtask percentiles, so the model is corrected against
// exactly the quantile the SLA math requires.
#pragma once

#include <vector>

#include "model/workload.h"

namespace lla::correction {

/// `task_targets[t]` is task t's end-to-end percentile target in (0, 1).
/// Returns the per-subtask percentile (fraction) per SubtaskId.
std::vector<double> PlanSubtaskPercentiles(
    const Workload& workload, const std::vector<double>& task_targets);

/// Convenience: the same end-to-end target for every task.
std::vector<double> PlanSubtaskPercentiles(const Workload& workload,
                                           double target);

}  // namespace lla::correction
