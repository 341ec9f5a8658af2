// Centralized reference solver: log-barrier interior-point method.
//
// Maximizes  Phi_t(lat) = U(lat) + (1/t) [ sum_r log(B_r - share sum)
//                                        + sum_p log(C_i - path latency) ]
// by projected gradient ascent with Armijo backtracking, increasing t
// geometrically.  Phi_t is concave (U concave; resource slacks concave since
// shares are convex; path slacks affine), so the central path converges to
// the optimum of the paper's problem (Eqs. 2-4) with duality gap m/t.
//
// This is deliberately a *different* method from LLA's dual decomposition:
// tests and benches use it as the independent "optimal" yardstick.
#pragma once

#include "common/expected.h"
#include "model/evaluation.h"
#include "model/latency_model.h"
#include "model/workload.h"

namespace lla {

struct BarrierSolverConfig {
  UtilityVariant variant = UtilityVariant::kPathWeighted;
};

struct BarrierResult {
  Assignment latencies;
  double utility = 0.0;
  bool converged = false;
  int total_gradient_steps = 0;
};

class BarrierSolver {
 public:
  BarrierSolver(const Workload& workload, const LatencyModel& model,
                BarrierSolverConfig config = {});

  /// Solves from an automatically constructed strictly feasible start.
  /// Fails if no strictly interior point can be found (workload at or over
  /// capacity).
  Expected<BarrierResult> Solve() const;

  /// Solves from the given strictly feasible start (checked).
  Expected<BarrierResult> SolveFrom(const Assignment& start) const;

  /// A strictly feasible interior point, if one can be constructed by
  /// scaling the equal-split witness.
  Expected<Assignment> FindInteriorPoint() const;

 private:
  double Objective(const Assignment& lat, double t) const;
  void Gradient(const Assignment& lat, double t, Assignment* grad) const;
  bool StrictlyFeasible(const Assignment& lat) const;

  const Workload* workload_;
  const LatencyModel* model_;
  BarrierSolverConfig config_;
  Assignment lo_;  ///< per-subtask box bounds (SubtaskLatencyBox)
  Assignment hi_;
};

}  // namespace lla
