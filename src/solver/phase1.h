// Phase-I feasibility solver: finds a strictly interior point of the
// constraint set (Eqs. 3-4), or certifies that none exists within numeric
// tolerance.
//
// Minimizes the smoothed maximum constraint violation
//
//   phi_t(lat) = (1/t) log( sum_r exp(t * g_r(lat)) + sum_p exp(t * g_p(lat)) )
//   g_r = share sum - B_r   (resource excess)
//   g_p = (path latency - C_i) / C_i   (normalized deadline excess)
//
// by projected gradient descent with backtracking, sharpening t on a
// schedule.  phi_t is convex (log-sum-exp of convex functions) and upper
// bounds max g within log(m)/t, so phi_t < -margin certifies strict
// feasibility.  This serves two roles:
//   * an interior starting point for BarrierSolver on workloads where the
//     equal-split scaling witness fails (e.g. the exactly-at-capacity
//     Table 1 workload);
//   * an optimizer-independent schedulability check to cross-validate
//     SchedulabilityTester.
#pragma once

#include "common/expected.h"
#include "model/evaluation.h"
#include "model/latency_model.h"
#include "model/workload.h"

namespace lla {

struct Phase1Result {
  Assignment latencies;
  /// max over constraints of the normalized violation at `latencies`;
  /// negative = strictly feasible.
  double max_violation = 0.0;
  bool strictly_feasible = false;
  int total_gradient_steps = 0;
};

class Phase1Solver {
 public:
  /// Works on LLA's latency box (SubtaskLatencyBox).
  Phase1Solver(const Workload& workload, const LatencyModel& model);

  /// Runs from the equal-split witness (or a caller-supplied start).
  Phase1Result Solve() const;
  Phase1Result SolveFrom(const Assignment& start) const;

 private:
  double MaxViolation(const Assignment& lat) const;
  double SmoothedMax(const Assignment& lat, double t) const;
  void Gradient(const Assignment& lat, double t, Assignment* grad) const;

  const Workload* workload_;
  const LatencyModel* model_;
  Assignment lo_;
  Assignment hi_;
};

}  // namespace lla
