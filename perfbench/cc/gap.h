// The duality-gap certificate, computed from outside the optimizer.
//
// The Lagrangian of Eqs. 2-4 at prices (mu, lambda) is
//
//   L(lat) = sum_i f_i(X_i) - sum_r mu_r (share sum_r - B_r)
//                           - sum_p lambda_p (path latency_p - C_p),
//
// and its maximum over the latency box is the dual value D(mu, lambda),
// attained by LatencySolver::SolveAll at those prices.  For any feasible
// assignment with utility U, U <= optimum <= D (weak duality), so D - U
// bounds how far the assignment is from optimal.
#pragma once

#include "core/prices.h"
#include "model/evaluation.h"
#include "model/latency_model.h"
#include "model/workload.h"

namespace perfbench {

/// L(latencies) at `prices`, from TotalUtility, ResourceShareSum and
/// PathLatency.
double Lagrangian(const lla::Workload& workload, const lla::LatencyModel& model,
                  const lla::PriceVector& prices,
                  const lla::Assignment& latencies,
                  lla::UtilityVariant variant);

/// D(prices): the Lagrangian at LatencySolver::SolveAll's maximiser.
double DualValue(const lla::Workload& workload, const lla::LatencyModel& model,
                 const lla::PriceVector& prices, lla::UtilityVariant variant);

/// |dual - utility| / |utility| in parts per million.
double GapPpm(double dual, double utility);

}  // namespace perfbench
