// Share function: the latency <-> resource-share model (paper Eq. 10).
//
// Under proportional-share scheduling, a subtask that receives share sigma of
// its resource finishes a job of worst-case execution time c in roughly
// (c + l)/sigma, where l is the scheduler lag.  Inverting gives the share
// demanded by a target latency: share(lat) = (c + l)/lat — strictly convex
// and decreasing, as the dual decomposition requires.
//
// Online error correction (paper Sec. 6.3) shifts the model by a measured
// additive error e: predicted latency = (c + l)/sigma + e, i.e.
// share(lat) = (c + l)/(lat - e).  The uncorrected model is e = 0, and the
// online model fitter installs fitted (work, offset) pairs in the same form,
// so one value type covers every model in the repository.  At e = 0 every
// method computes exactly the uncorrected arithmetic: lat - 0.0 == lat, and
// q + 0.0 == q for the positive quotients involved.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>

namespace lla {

/// share(lat) = work / (lat - error): strictly convex, strictly decreasing
/// and continuously differentiable for lat > MinLatency().
class ShareFunction {
 public:
  /// `work_ms` > 0 is the numerator (wcet + lag for the paper's model);
  /// `error_ms` may be negative (the common case: the uncorrected model
  /// over-predicts latency because job releases are not synchronized).
  ShareFunction(double work_ms, double error_ms)
      : work_ms_(work_ms), error_ms_(error_ms) {
    assert(work_ms > 0.0);
  }

  /// Resource fraction needed to achieve `latency_ms`; latency must exceed
  /// MinLatency().
  double Share(double latency_ms) const {
    assert(latency_ms > MinLatency());
    return work_ms_ / (latency_ms - error_ms_);
  }

  /// d(share)/d(latency); < 0.
  double DShareDLat(double latency_ms) const {
    assert(latency_ms > MinLatency());
    const double d = latency_ms - error_ms_;
    return -work_ms_ / (d * d);
  }

  /// Inverse of Share(); `share` must be > 0.
  double LatencyForShare(double share) const {
    assert(share > 0.0);
    return work_ms_ / share + error_ms_;
  }

  /// Infimum of achievable latencies; latency inputs must be strictly
  /// greater than this.
  double MinLatency() const { return error_ms_ > 0 ? error_ms_ : 0.0; }

  /// Solves -DShareDLat(lat) = g for lat in [lo, hi], the inverse of the
  /// stationarity condition (paper Eq. 7), in closed form:
  /// work/(lat - e)^2 = g  =>  lat = e + sqrt(work/g), clamped to [lo, hi].
  /// Requires g >= 0; g == 0 (no pressure) returns hi.
  double LatencyForNegSlope(double g, double lo, double hi) const {
    assert(g >= 0.0);
    assert(lo <= hi);
    if (g == 0.0) return hi;
    return std::min(std::max(error_ms_ + std::sqrt(work_ms_ / g), lo), hi);
  }

  double work_ms() const { return work_ms_; }
  double error_ms() const { return error_ms_; }

 private:
  double work_ms_;
  double error_ms_;
};

}  // namespace lla
