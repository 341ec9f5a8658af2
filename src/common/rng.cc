#include "common/rng.h"

#include <cassert>
#include <cmath>

namespace lla {

double Rng::Exponential(double mean) {
  assert(mean > 0.0);
  // Avoid log(0): NextDouble() is in [0, 1), so 1 - u is in (0, 1].
  const double u = 1.0 - NextDouble();
  return -mean * std::log(u);
}

}  // namespace lla
