// Utilization-based rate control, the paper's closest related work
// (Sec. 7: Lu et al. [20, 31], "End-to-end utilization control").
//
// Instead of assigning latencies, this family adjusts task *invocation
// rates* by feedback until every resource's utilization sits at a safe
// setpoint.  It is complementary to LLA (a form of admission/load control):
// it trades throughput for schedulability and leaves latency outcomes to
// the underlying scheduler.  We implement a proportional EUC-style
// controller so benches can compare the two philosophies on the same
// workloads:
//
//   u_r(rates) = sum over subtasks on r of rate_i * wcet_s / 1000
//   per iteration, each task nudges its rate toward the point where the
//   most-utilized resource it touches hits the setpoint, clamped to
//   [rate_min_factor, 1] x nominal.
//
// For evaluation the controlled rates are mapped to proportional shares
// (each subtask receives capacity in proportion to its utilization demand)
// and the implied PS latencies are scored with the same utility/feasibility
// machinery as LLA.
#pragma once

#include <vector>

#include "model/evaluation.h"
#include "model/latency_model.h"
#include "model/workload.h"

namespace lla::baselines {

/// Every resource's utilization is steered to the setpoint 0.7 (the classic
/// schedulable-bound setpoint; EUC papers use values near it).
struct RateControlConfig {
  int max_iterations = 300;
  /// Lower rate bound relative to the nominal (trigger) rate: tasks may be
  /// throttled down to this factor, never boosted past the nominal rate.
  double rate_min_factor = 0.1;
};

struct RateControlResult {
  /// Controlled invocation rate per task (per second).
  std::vector<double> rates;
  /// Final utilization per resource.
  std::vector<double> utilization;
  /// Implied latencies under utilization-proportional shares.
  Assignment latencies;
  double utility = 0.0;
  bool deadlines_met = false;
  /// Mean of rate / nominal-rate over tasks (1.0 = full throughput).
  double throughput_ratio = 0.0;
  int iterations = 0;
  bool converged = false;
};

RateControlResult RunRateControl(const Workload& workload,
                                 const LatencyModel& model,
                                 UtilityVariant variant,
                                 RateControlConfig config = {});

}  // namespace lla::baselines
