#include "core/prices.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace lla {

double PriceVector::MaxAbsDiff(const PriceVector& other) const {
  assert(mu.size() == other.mu.size());
  assert(lambda.size() == other.lambda.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < mu.size(); ++i) {
    worst = std::max(worst, std::fabs(mu[i] - other.mu[i]));
  }
  for (std::size_t i = 0; i < lambda.size(); ++i) {
    worst = std::max(worst, std::fabs(lambda[i] - other.lambda[i]));
  }
  return worst;
}

double PriceVector::PathPriceSum(const Workload& workload,
                                 SubtaskId s) const {
  double sum = 0.0;
  for (PathId pid : workload.subtask(s).paths) {
    sum += lambda[pid.value()];
  }
  return sum;
}

}  // namespace lla
