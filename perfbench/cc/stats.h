// Order statistics, the tail-percentile rule, and the FIFO replay behind the
// benchmark's open-loop latencies and max_rate_in_limit.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 if empty.
double Median(std::vector<double> values);

/// Nearest-rank percentile of the 1-based rank `rank` in [1, n].
double AtRank(std::vector<double> values, std::size_t rank);

/// The tail of a sample: the highest percentile of the ladder p50, p90,
/// p99, p99.9, ... that has at least `min_beyond` samples ranked above its
/// nearest rank (rank = n - floor(n * (1 - q)), in integer arithmetic).  A
/// sample too small for even p50 to qualify reports p50.
struct Tail {
  int level = 0;            ///< rung of the ladder: 0 p50, 1 p90, 2 p99, ...
  double percentile = 0.0;  ///< e.g. 99.0
  double value = 0.0;
  std::size_t count = 0;   ///< samples
  std::size_t beyond = 0;  ///< samples above the chosen rank
};
Tail TailOf(std::vector<double> values, std::size_t min_beyond = 10);

/// Rung `level` of that ladder: 0 is p50, 1 is p90, 2 is p99, ...
double LadderPercentile(int level);
/// The sample's value at rung `level`, by the rule TailOf uses.
double AtLadder(std::vector<double> values, int level);

/// Single-server FIFO queue: op k arrives at arrivals_ms[k] (non-
/// decreasing) and needs service_ms[k]; returns each op's latency from
/// arrival to completion.
std::vector<double> FifoReplay(const std::vector<double>& arrivals_ms,
                               const std::vector<double>& service_ms);

/// Arrival times (ms) of ops whose unit-rate inter-arrival gaps are
/// `unit_gaps` (seconds at 1 op/s), offered at `rate_per_s`.
std::vector<double> ArrivalsAtRate(const std::vector<double>& unit_gaps,
                                   double rate_per_s);

/// Capacity of a server with these service times: ops / summed service
/// time, in ops per second.
double Capacity(const std::vector<double>& service_ms);

/// The highest offered rate (ops/s) at which the replayed latency at ladder
/// rung `level` stays within `limit_ms` and the backlog does not grow
/// (rate <= Capacity).  That latency is non-decreasing in the rate, so the
/// search bisects to a relative width of 1e-9.  0 when even an idle server
/// misses the limit.
double MaxRateInLimit(const std::vector<double>& unit_gaps,
                      const std::vector<double>& service_ms, double limit_ms,
                      int level);

}  // namespace perfbench
