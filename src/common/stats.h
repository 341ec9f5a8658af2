// Online statistics used by the measurement and error-correction layers.
//
// The paper computes utility from configurable latency *percentiles*
// (Sec. 2.1) and corrects its latency model from "high percentile samples
// (greater than 90th percentile)" (Sec. 6.3).  `SampleQuantile` computes
// exact quantiles over the samples it recorded; `ExponentialSmoother` is the
// smoothing filter of Sec. 6.3.
#pragma once

#include <cstddef>
#include <vector>

namespace lla {

/// Exact quantiles over all recorded samples (O(n) memory); used where sample
/// counts are modest and exactness matters (tests, per-interval correction).
class SampleQuantile {
 public:
  void Add(double x) { samples_.push_back(x); }
  std::size_t count() const { return samples_.size(); }
  /// Returns the `q`-quantile (0 <= q <= 1) by linear interpolation between
  /// order statistics; 0 if empty.
  double Value(double q) const;

 private:
  std::vector<double> samples_;
};

/// First-order exponential smoothing: y <- alpha * x + (1 - alpha) * y.
class ExponentialSmoother {
 public:
  /// `alpha` in (0, 1]; larger reacts faster.
  explicit ExponentialSmoother(double alpha);

  /// Feeds a sample and returns the new smoothed value.  The first sample
  /// initializes the filter.
  double Add(double x);
  bool initialized() const { return initialized_; }
  double value() const { return value_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

}  // namespace lla
