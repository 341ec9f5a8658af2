#include "common/math.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace lla {

bool AlmostEqual(double a, double b, double rel_tol, double abs_tol) {
  const double diff = std::fabs(a - b);
  if (diff <= abs_tol) return true;
  return diff <= rel_tol * std::max(std::fabs(a), std::fabs(b));
}

double Clamp(double x, double lo, double hi) {
  assert(lo <= hi);
  return std::min(std::max(x, lo), hi);
}

}  // namespace lla
