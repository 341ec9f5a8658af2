#include "baselines/rate_control.h"

#include <algorithm>
#include <cmath>

namespace lla::baselines {
namespace {

// Target utilization per resource, the proportional gain on the utilization
// error, the relative rate move below which the loop has converged, and the
// rate cap relative to nominal.
constexpr double kUtilizationSetpoint = 0.7;
static_assert(kUtilizationSetpoint > 0.0);
constexpr double kGain = 0.5;
constexpr double kTolerance = 1e-6;
constexpr double kRateMaxFactor = 1.0;

/// Utilization of every resource at the given task rates.
std::vector<double> Utilizations(const Workload& workload,
                                 const std::vector<double>& rates) {
  std::vector<double> utilization(workload.resource_count(), 0.0);
  for (const SubtaskInfo& sub : workload.subtasks()) {
    utilization[sub.resource.value()] +=
        rates[sub.task.value()] * sub.wcet_ms / 1000.0;
  }
  return utilization;
}

}  // namespace

RateControlResult RunRateControl(const Workload& workload,
                                 const LatencyModel& model,
                                 UtilityVariant variant,
                                 RateControlConfig config) {
  RateControlResult result;

  std::vector<double> nominal(workload.task_count());
  for (const TaskInfo& task : workload.tasks()) {
    nominal[task.id.value()] = task.trigger.MeanRatePerSecond();
  }
  result.rates = nominal;

  // Proportional feedback on the bottleneck utilization seen by each task.
  for (int iteration = 0; iteration < config.max_iterations; ++iteration) {
    const std::vector<double> utilization =
        Utilizations(workload, result.rates);
    double max_update = 0.0;
    for (const TaskInfo& task : workload.tasks()) {
      double bottleneck = 0.0;
      for (SubtaskId sid : task.subtasks) {
        const ResourceId r = workload.subtask(sid).resource;
        // Normalize by the capacity so partially-available resources are
        // handled like full ones.
        bottleneck = std::max(
            bottleneck,
            utilization[r.value()] / workload.resource(r).capacity);
      }
      const double error = kUtilizationSetpoint - bottleneck;
      const std::size_t t = task.id.value();
      const double updated = std::clamp(
          result.rates[t] * (1.0 + kGain * error),
          config.rate_min_factor * nominal[t], kRateMaxFactor * nominal[t]);
      max_update = std::max(
          max_update, std::fabs(updated - result.rates[t]) /
                          std::max(nominal[t], 1e-12));
      result.rates[t] = updated;
    }
    result.iterations = iteration + 1;
    if (max_update < kTolerance) {
      result.converged = true;
      break;
    }
  }

  result.utilization = Utilizations(workload, result.rates);

  // Map controlled rates to utilization-proportional shares and implied
  // latencies.
  result.latencies.assign(workload.subtask_count(), 0.0);
  for (const ResourceInfo& resource : workload.resources()) {
    double demand = 0.0;
    for (SubtaskId sid : resource.subtasks) {
      const SubtaskInfo& sub = workload.subtask(sid);
      demand += result.rates[sub.task.value()] * sub.wcet_ms / 1000.0;
    }
    for (SubtaskId sid : resource.subtasks) {
      const SubtaskInfo& sub = workload.subtask(sid);
      const double fraction =
          demand > 0.0
              ? (result.rates[sub.task.value()] * sub.wcet_ms / 1000.0) /
                    demand
              : 1.0 / static_cast<double>(resource.subtasks.size());
      const double share = std::max(resource.capacity * fraction, 1e-9);
      result.latencies[sid.value()] =
          model.share(sid).LatencyForShare(std::min(share, 1.0));
    }
  }

  result.utility = TotalUtility(workload, result.latencies, variant);
  const FeasibilityReport report =
      CheckFeasibility(workload, model, result.latencies, 1e-6);
  result.deadlines_met = report.max_path_ratio <= 1.0 + 1e-6;

  double ratio_sum = 0.0;
  for (const TaskInfo& task : workload.tasks()) {
    ratio_sum += result.rates[task.id.value()] /
                 std::max(nominal[task.id.value()], 1e-12);
  }
  result.throughput_ratio = ratio_sum / workload.task_count();
  return result;
}

}  // namespace lla::baselines
