#include "model/percentile.h"

#include <cassert>
#include <cmath>

namespace lla {

double PerSubtaskPercentile(double path_fraction, int path_length) {
  assert(path_fraction > 0.0 && path_fraction <= 1.0);
  assert(path_length >= 1);
  return std::pow(path_fraction, 1.0 / path_length);
}

double PerSubtaskPercentilePct(double path_pct, int path_length) {
  assert(path_pct > 0.0 && path_pct <= 100.0);
  assert(path_length >= 1);
  const double n = path_length;
  return std::pow(path_pct, 1.0 / n) * std::pow(100.0, (n - 1.0) / n);
}

}  // namespace lla
