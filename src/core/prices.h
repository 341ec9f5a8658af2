// Dual variables of the LLA optimization (paper Sec. 4).
//
// mu[r] is the price per unit of resource r (multiplier of Eq. 3);
// lambda[p] is the price of path p (multiplier of Eq. 4).  Both are
// non-negative; gradient projection keeps them so.
#pragma once

#include <cstddef>
#include <vector>

#include "model/workload.h"

namespace lla {

struct PriceVector {
  std::vector<double> mu;      ///< indexed by ResourceId
  std::vector<double> lambda;  ///< indexed by PathId

  static PriceVector Zero(const Workload& workload) {
    PriceVector p;
    p.mu.assign(workload.resource_count(), 0.0);
    p.lambda.assign(workload.path_count(), 0.0);
    return p;
  }

  /// Uniform initialization; useful to start the dual iteration away from
  /// the all-zero corner.
  static PriceVector Uniform(const Workload& workload, double mu0,
                             double lambda0) {
    PriceVector p;
    p.mu.assign(workload.resource_count(), mu0);
    p.lambda.assign(workload.path_count(), lambda0);
    return p;
  }

  /// Sum of path prices over all paths containing subtask `s`
  /// (the Lambda_s term of the stationarity condition, Eq. 7).
  double PathPriceSum(const Workload& workload, SubtaskId s) const;
};

}  // namespace lla
