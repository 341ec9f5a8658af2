// Numeric helpers: comparisons with tolerance, clamping, and a
// golden-section maximizer that tests use as an independent oracle.
//
// The latency solver needs no generic root finder: each subtask's
// stationarity condition (paper Eq. 7) has a closed form under the share
// model, and the per-task coupling of a concave utility is a monotone scalar
// fixed point that LatencySolver bisects in place.
#pragma once

#include <functional>

namespace lla {

/// Relative/absolute tolerance equality for doubles.
bool AlmostEqual(double a, double b, double rel_tol = 1e-9,
                 double abs_tol = 1e-12);

/// Clamps `x` to [lo, hi]; requires lo <= hi.
double Clamp(double x, double lo, double hi);

/// Golden-section maximization of a unimodal function on [lo, hi].
/// Used by tests to cross-check solver outputs.
double GoldenSectionMax(const std::function<double(double)>& f, double lo,
                        double hi, double x_tol = 1e-10);

}  // namespace lla
