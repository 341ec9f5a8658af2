// Numerical oracles the tests check the library against: a golden-section
// maximizer (an independent cross-check of the closed-form solver) and
// sampling property checks of share and utility functions.  No program
// calls them, so they live with the tests, not in `src/`.
#pragma once

#include <cassert>
#include <cmath>
#include <functional>

#include "common/math.h"
#include "model/share.h"

namespace lla {

/// Golden-section maximization of a unimodal function on [lo, hi].
inline double GoldenSectionMax(const std::function<double(double)>& f,
                               double lo, double hi, double x_tol = 1e-10) {
  static const double kInvPhi = (std::sqrt(5.0) - 1.0) / 2.0;
  double a = lo, b = hi;
  double c = b - kInvPhi * (b - a);
  double d = a + kInvPhi * (b - a);
  double fc = f(c), fd = f(d);
  while ((b - a) > x_tol) {
    if (fc > fd) {
      b = d;
      d = c;
      fd = fc;
      c = b - kInvPhi * (b - a);
      fc = f(c);
    } else {
      a = c;
      c = d;
      fc = fd;
      d = a + kInvPhi * (b - a);
      fd = f(d);
    }
  }
  return 0.5 * (a + b);
}

/// Numerically verifies that `s` is decreasing and convex on (lo, hi] and
/// that LatencyForShare inverts Share.
inline bool CheckShareFunction(const ShareFunction& s, double lo, double hi,
                               int samples = 257) {
  assert(samples >= 3);
  assert(s.MinLatency() < lo && lo < hi);
  const double step = (hi - lo) / (samples - 1);
  double prev_share = s.Share(lo);
  double prev_deriv = s.DShareDLat(lo);
  constexpr double kSlack = 1e-9;
  for (int i = 1; i < samples; ++i) {
    const double x = lo + i * step;
    const double share = s.Share(x);
    const double deriv = s.DShareDLat(x);
    if (deriv >= 0.0) return false;  // must be strictly decreasing
    if (share >= prev_share) return false;
    // Convexity: derivative non-decreasing.
    if (deriv < prev_deriv - kSlack * (1 + std::fabs(prev_deriv))) {
      return false;
    }
    // Inverse consistency.
    if (!AlmostEqual(s.LatencyForShare(share), x, 1e-6, 1e-9)) return false;
    prev_share = share;
    prev_deriv = deriv;
  }
  return true;
}

/// Numerically verifies concavity and monotonicity of `u`, anything with
/// Value and Derivative, by sampling [lo, hi]; returns false with no
/// diagnostics.
template <typename F>
bool CheckConcaveNonIncreasing(const F& u, double lo, double hi,
                               int samples = 257) {
  assert(samples >= 3);
  assert(lo < hi);
  const double step = (hi - lo) / (samples - 1);
  double prev_value = u.Value(lo);
  double prev_deriv = u.Derivative(lo);
  constexpr double kSlack = 1e-9;
  for (int i = 1; i < samples; ++i) {
    const double x = lo + i * step;
    const double value = u.Value(x);
    const double deriv = u.Derivative(x);
    if (deriv > kSlack) return false;                     // increasing
    if (value > prev_value + kSlack) return false;        // increasing
    if (deriv > prev_deriv + kSlack * (1 + std::fabs(prev_deriv))) {
      return false;  // derivative increased: convex region
    }
    prev_value = value;
    prev_deriv = deriv;
  }
  return true;
}

}  // namespace lla
