// Numeric helpers: comparisons with tolerance and clamping.
//
// The latency solver needs no generic root finder: each subtask's
// stationarity condition (paper Eq. 7) has a closed form under the share
// model, and the per-task coupling of a concave utility is a monotone scalar
// fixed point that LatencySolver bisects in place.
#pragma once

namespace lla {

/// Relative/absolute tolerance equality for doubles.
bool AlmostEqual(double a, double b, double rel_tol = 1e-9,
                 double abs_tol = 1e-12);

/// Clamps `x` to [lo, hi]; requires lo <= hi.
double Clamp(double x, double lo, double hi);

}  // namespace lla
