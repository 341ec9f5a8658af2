#include "core/schedulability.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace lla {
namespace {
// A non-converged run is unschedulable when, averaged over the last
// kStableWindow iterations (one oscillation spike is no verdict), its
// critical path exceeds kViolationThreshold critical times or a share sum
// exceeds B_r by kResourceExcessThreshold (Figure 7 shows both).
constexpr double kViolationThreshold = 1.05;
constexpr double kResourceExcessThreshold = 0.05;
constexpr int kStableWindow = 25;
}  // namespace

const char* ToString(Schedulability verdict) {
  switch (verdict) {
    case Schedulability::kSchedulable:
      return "schedulable";
    case Schedulability::kUnschedulable:
      return "unschedulable";
    case Schedulability::kIndeterminate:
      return "indeterminate";
  }
  return "?";
}

SchedulabilityTester::SchedulabilityTester(const Workload& workload,
                                           const LatencyModel& model,
                                           SchedulabilityConfig config)
    : workload_(&workload), model_(&model), config_(config) {}

SchedulabilityReport SchedulabilityTester::Test() {
  SchedulabilityReport report;

  // Necessary condition: the sustainable-rate share floors alone must fit.
  for (const ResourceInfo& resource : workload_->resources()) {
    const double demand = workload_->MinShareDemand(resource.id);
    if (demand > resource.capacity) {
      report.verdict = Schedulability::kUnschedulable;
      std::ostringstream os;
      os << "minimum sustainable share demand " << demand << " on resource '"
         << resource.name << "' exceeds capacity " << resource.capacity;
      report.explanation = os.str();
      return report;
    }
  }

  LlaConfig lla_config = config_.lla;
  lla_config.record_history = true;
  LlaEngine engine(*workload_, *model_, lla_config);
  const RunResult run = engine.Run(config_.max_iterations);
  report.converged = run.converged;
  report.iterations = run.iterations;
  report.final_max_resource_excess =
      run.final_feasibility.max_resource_excess;

  for (const TaskInfo& task : workload_->tasks()) {
    const double crit =
        CriticalPathLatency(*workload_, task.id, engine.latencies());
    report.task_path_ratios.push_back(crit / task.critical_time_ms);
  }

  // Trailing-window means of the violation signals.
  const auto& history = engine.history();
  const int window =
      std::min<int>(kStableWindow, static_cast<int>(history.size()));
  double mean_ratio = 0.0;
  double mean_excess = 0.0;
  for (int i = 0; i < window; ++i) {
    mean_ratio += history[history.size() - 1 - i].max_path_ratio;
    mean_excess += history[history.size() - 1 - i].max_resource_excess;
  }
  if (window > 0) {
    mean_ratio /= window;
    mean_excess /= window;
  }
  report.mean_max_path_ratio = mean_ratio;
  report.mean_max_resource_excess = mean_excess;

  std::ostringstream os;
  if (run.converged && run.final_feasibility.feasible) {
    report.verdict = Schedulability::kSchedulable;
    os << "converged to a feasible assignment after " << run.iterations
       << " iterations";
  } else if (mean_ratio > kViolationThreshold ||
             mean_excess > kResourceExcessThreshold) {
    report.verdict = Schedulability::kUnschedulable;
    os << "no convergence after " << run.iterations
       << " iterations; critical paths persistently at " << mean_ratio
       << "x the critical-time constraint, resource share excess "
       << mean_excess;
  } else {
    report.verdict = Schedulability::kIndeterminate;
    os << "no convergence after " << run.iterations
       << " iterations but constraints are not persistently violated "
          "(trailing ratio "
       << mean_ratio << "); rerun with more iterations";
  }
  report.explanation = os.str();
  return report;
}

}  // namespace lla
