#include "stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace perfbench {
namespace {

// Samples ranked above rung `level` of the ladder: floor(n/2) for p50,
// floor(n / 10^level) for p90, p99, ...  Integer arithmetic, so p99 of 1000
// samples has exactly 10 above it.
std::size_t BeyondAtLevel(std::size_t n, int level) {
  if (level == 0) return n / 2;
  std::size_t divisor = 1;
  for (int i = 0; i < level; ++i) divisor *= 10;
  return n / divisor;
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t n = values.size();
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>(n / 2);
  std::nth_element(values.begin(), mid, values.end());
  const double upper = *mid;
  if (n % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), mid);
  return 0.5 * (lower + upper);
}

double AtRank(std::vector<double> values, std::size_t rank) {
  assert(rank >= 1 && rank <= values.size());
  const auto at = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values.begin(), at, values.end());
  return *at;
}

double LadderPercentile(int level) {
  return level == 0 ? 50.0 : 100.0 * (1.0 - std::pow(10.0, -level));
}

double AtLadder(std::vector<double> values, int level) {
  if (values.empty()) return 0.0;
  const std::size_t n = values.size();
  return AtRank(std::move(values), n - BeyondAtLevel(n, level));
}

Tail TailOf(std::vector<double> values, std::size_t min_beyond) {
  Tail tail;
  tail.count = values.size();
  if (values.empty()) return tail;
  int level = 0;
  while (BeyondAtLevel(tail.count, level + 1) >= min_beyond) ++level;
  tail.level = level;
  tail.percentile = LadderPercentile(level);
  tail.beyond = BeyondAtLevel(tail.count, level);
  tail.value = AtRank(std::move(values), tail.count - tail.beyond);
  return tail;
}

std::vector<double> FifoReplay(const std::vector<double>& arrivals_ms,
                               const std::vector<double>& service_ms) {
  assert(arrivals_ms.size() == service_ms.size());
  std::vector<double> latencies(arrivals_ms.size());
  double free_at = 0.0;
  for (std::size_t k = 0; k < arrivals_ms.size(); ++k) {
    const double start = std::max(arrivals_ms[k], free_at);
    free_at = start + service_ms[k];
    latencies[k] = free_at - arrivals_ms[k];
  }
  return latencies;
}

std::vector<double> ArrivalsAtRate(const std::vector<double>& unit_gaps,
                                   double rate_per_s) {
  std::vector<double> arrivals(unit_gaps.size());
  double at_s = 0.0;
  for (std::size_t k = 0; k < unit_gaps.size(); ++k) {
    at_s += unit_gaps[k];
    arrivals[k] = at_s / rate_per_s * 1e3;
  }
  return arrivals;
}

double Capacity(const std::vector<double>& service_ms) {
  double busy_ms = 0.0;
  for (double s : service_ms) busy_ms += s;
  return busy_ms > 0.0 ? static_cast<double>(service_ms.size()) /
                             (busy_ms / 1e3)
                       : 0.0;
}

double MaxRateInLimit(const std::vector<double>& unit_gaps,
                      const std::vector<double>& service_ms, double limit_ms,
                      int level) {
  const auto within = [&](double rate) {
    return AtLadder(FifoReplay(ArrivalsAtRate(unit_gaps, rate), service_ms),
                    level) <= limit_ms;
  };
  // An idle server serves every op in its own service time.
  if (AtLadder(service_ms, level) > limit_ms) return 0.0;
  double hi = Capacity(service_ms);
  if (within(hi)) return hi;
  double lo = 0.0;
  while (hi - lo > 1e-9 * hi) {
    const double mid = 0.5 * (lo + hi);
    (within(mid) ? lo : hi) = mid;
  }
  return lo;
}

}  // namespace perfbench
