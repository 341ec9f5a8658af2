#include "gap.h"

#include <cmath>

#include "core/latency_solver.h"

namespace perfbench {

double Lagrangian(const lla::Workload& workload, const lla::LatencyModel& model,
                  const lla::PriceVector& prices,
                  const lla::Assignment& latencies,
                  lla::UtilityVariant variant) {
  double value = lla::TotalUtility(workload, latencies, variant);
  for (const lla::ResourceInfo& resource : workload.resources()) {
    value -= prices.mu[resource.id.value()] *
             (lla::ResourceShareSum(workload, model, resource.id, latencies) -
              resource.capacity);
  }
  for (const lla::PathInfo& path : workload.paths()) {
    value -= prices.lambda[path.id.value()] *
             (lla::PathLatency(workload, path.id, latencies) -
              path.critical_time_ms);
  }
  return value;
}

double DualValue(const lla::Workload& workload, const lla::LatencyModel& model,
                 const lla::PriceVector& prices, lla::UtilityVariant variant) {
  lla::LatencySolverConfig config;
  config.variant = variant;
  const lla::LatencySolver solver(workload, model, config);
  lla::Assignment maximiser(workload.subtask_count());
  solver.SolveAll(prices, &maximiser);
  return Lagrangian(workload, model, prices, maximiser, variant);
}

double GapPpm(double dual, double utility) {
  return std::abs(dual - utility) / std::abs(utility) * 1e6;
}

}  // namespace perfbench
