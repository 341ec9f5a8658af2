// Workload schedulability testing with LLA (paper Sec. 5.4).
//
// A schedulable workload converges to a feasible assignment; an
// unschedulable one either fails to converge or converges to latencies that
// violate the critical-time constraints (the paper observes critical paths
// at 1.75-2.41x the constraint on its unschedulable 6-task workload).  The
// tester runs the engine and classifies the outcome, also applying the
// cheap necessary condition sum(min_share) <= B_r first.
#pragma once

#include <string>
#include <vector>

#include "core/engine.h"
#include "model/latency_model.h"
#include "model/workload.h"

namespace lla {

enum class Schedulability { kSchedulable, kUnschedulable, kIndeterminate };

const char* ToString(Schedulability verdict);

struct SchedulabilityConfig {
  LlaConfig lla;
  int max_iterations = 2000;
};

struct SchedulabilityReport {
  Schedulability verdict = Schedulability::kIndeterminate;
  bool converged = false;
  int iterations = 0;
  /// Per-task critical-path / critical-time at the final iterate.
  std::vector<double> task_path_ratios;
  /// Trailing-window means of the two violation signals.
  double mean_max_path_ratio = 0.0;
  double mean_max_resource_excess = 0.0;
  double final_max_resource_excess = 0.0;
  std::string explanation;
};

class SchedulabilityTester {
 public:
  SchedulabilityTester(const Workload& workload, const LatencyModel& model,
                       SchedulabilityConfig config = {});

  SchedulabilityReport Test();

 private:
  const Workload* workload_;
  const LatencyModel* model_;
  SchedulabilityConfig config_;
};

}  // namespace lla
