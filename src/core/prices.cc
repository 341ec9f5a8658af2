#include "core/prices.h"

namespace lla {

double PriceVector::PathPriceSum(const Workload& workload,
                                 SubtaskId s) const {
  double sum = 0.0;
  for (PathId pid : workload.subtask(s).paths) {
    sum += lambda[pid.value()];
  }
  return sum;
}

}  // namespace lla
