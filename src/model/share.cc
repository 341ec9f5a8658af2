#include "model/share.h"

#include <cassert>
#include <cmath>

#include "common/math.h"

namespace lla {

bool CheckShareFunction(const ShareFunction& s, double lo, double hi,
                        int samples) {
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

}  // namespace lla
