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

double GoldenSectionMax(const std::function<double(double)>& f, double lo,
                        double hi, double x_tol) {
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

}  // namespace lla
