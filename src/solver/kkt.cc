#include "solver/kkt.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace lla {

std::string KktReport::Summary() const {
  std::ostringstream os;
  os << "stationarity=" << max_stationarity_violation
     << " primal=" << max_primal_violation << " dual=" << max_dual_violation
     << " complementarity=" << max_complementarity_violation;
  return os.str();
}

KktReport CheckKkt(const Workload& workload, const LatencyModel& model,
                   const LatencySolver& solver, const Assignment& latencies,
                   const PriceVector& prices, UtilityVariant variant) {
  KktReport report;

  // Dual feasibility.
  for (double mu : prices.mu) {
    report.max_dual_violation = std::max(report.max_dual_violation, -mu);
  }
  for (double lambda : prices.lambda) {
    report.max_dual_violation = std::max(report.max_dual_violation, -lambda);
  }

  // Primal feasibility + complementary slackness (resources).
  for (const ResourceInfo& resource : workload.resources()) {
    const double sum =
        ResourceShareSum(workload, model, resource.id, latencies);
    const double excess = sum - resource.capacity;
    report.max_primal_violation =
        std::max(report.max_primal_violation, excess);
    const double slack = std::max(0.0, -excess);
    report.max_complementarity_violation =
        std::max(report.max_complementarity_violation,
                 prices.mu[resource.id.value()] * slack);
  }

  // Primal feasibility + complementary slackness (paths); normalized by the
  // critical time like the price update (Eq. 9).
  for (const PathInfo& path : workload.paths()) {
    const double latency = PathLatency(workload, path.id, latencies);
    const double excess =
        (latency - path.critical_time_ms) / path.critical_time_ms;
    report.max_primal_violation =
        std::max(report.max_primal_violation, excess);
    const double slack = std::max(0.0, -excess);
    report.max_complementarity_violation =
        std::max(report.max_complementarity_violation,
                 prices.lambda[path.id.value()] * slack);
  }

  // Stationarity.  At an interior latency the Lagrangian derivative must
  // vanish; at the lower (upper) box bound it may be negative (positive) —
  // i.e. the unconstrained optimum lies beyond the bound.
  for (const TaskInfo& task : workload.tasks()) {
    double x = 0.0;
    for (SubtaskId sid : task.subtasks) {
      x += workload.Weight(sid, variant) * latencies[sid.value()];
    }
    const double slope = task.utility.Derivative(x);
    for (SubtaskId sid : task.subtasks) {
      const SubtaskInfo& sub = workload.subtask(sid);
      const double w = workload.Weight(sid, variant);
      const double lambda_sum = prices.PathPriceSum(workload, sid);
      const double mu = prices.mu[sub.resource.value()];
      const double lat = latencies[sid.value()];
      const double dlagrangian =
          w * slope - lambda_sum -
          mu * model.share(sid).DShareDLat(lat);

      const double lo = solver.LatLo(sid);
      const double hi = solver.LatHi(sid);
      const double span = std::max(hi - lo, 1e-12);
      double violation;
      if (lat <= lo + 1e-6 * span) {
        violation = std::max(0.0, dlagrangian);  // must not want to shrink
      } else if (lat >= hi - 1e-6 * span) {
        violation = std::max(0.0, -dlagrangian);  // must not want to grow
      } else {
        violation = std::fabs(dlagrangian);
      }
      report.max_stationarity_violation =
          std::max(report.max_stationarity_violation, violation);
    }
  }

  report.max_primal_violation = std::max(report.max_primal_violation, 0.0);
  return report;
}

}  // namespace lla
