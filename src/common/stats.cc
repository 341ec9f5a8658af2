#include "common/stats.h"

#include <algorithm>
#include <cassert>

namespace lla {

double SampleQuantile::Value(double q) const {
  if (samples_.empty()) return 0.0;
  assert(q >= 0.0 && q <= 1.0);
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  const double idx = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

ExponentialSmoother::ExponentialSmoother(double alpha) : alpha_(alpha) {
  assert(alpha > 0.0 && alpha <= 1.0);
}

double ExponentialSmoother::Add(double x) {
  if (!initialized_) {
    value_ = x;
    initialized_ = true;
  } else {
    value_ = alpha_ * x + (1.0 - alpha_) * value_;
  }
  return value_;
}

}  // namespace lla
