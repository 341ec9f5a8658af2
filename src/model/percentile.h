// Latency-percentile composition (paper Sec. 2.1).
//
// If each of the n subtasks on a path meets its latency bound with
// probability q (independently), the path meets the sum of the bounds with
// probability q^n.  So to compute utility from the p-th end-to-end latency
// percentile, each subtask must use its q = p^(1/n) percentile.  The paper
// states this in percent notation: q_pct = p_pct^(1/n) * 100^((n-1)/n).
#pragma once

namespace lla {

/// Per-subtask percentile (as a fraction in (0,1]) needed so that a path of
/// `path_length` subtasks achieves the end-to-end `path_fraction` percentile.
/// path_fraction in (0, 1], path_length >= 1.
double PerSubtaskPercentile(double path_fraction, int path_length);

/// Percent-notation variant matching the paper's formula:
/// returns p^(1/n) * 100^((n-1)/n) for p in (0, 100].
double PerSubtaskPercentilePct(double path_pct, int path_length);

}  // namespace lla
