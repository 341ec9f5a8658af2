#include "model/evaluation.h"

#include <algorithm>
#include <cassert>

namespace lla {

double TaskUtility(const Workload& workload, TaskId task,
                   const Assignment& latencies, UtilityVariant variant) {
  assert(latencies.size() == workload.subtask_count());
  const TaskInfo& info = workload.task(task);
  double weighted = 0.0;
  for (SubtaskId sid : info.subtasks) {
    weighted += workload.Weight(sid, variant) * latencies[sid.value()];
  }
  return info.utility.Value(weighted);
}

double TotalUtility(const Workload& workload, const Assignment& latencies,
                    UtilityVariant variant) {
  double total = 0.0;
  for (const TaskInfo& task : workload.tasks()) {
    total += TaskUtility(workload, task.id, latencies, variant);
  }
  return total;
}

double ResourceShareSum(const Workload& workload, const LatencyModel& model,
                        ResourceId resource, const Assignment& latencies) {
  assert(latencies.size() == workload.subtask_count());
  double sum = 0.0;
  for (SubtaskId sid : workload.resource(resource).subtasks) {
    sum += model.share(sid).Share(latencies[sid.value()]);
  }
  return sum;
}

double PathLatency(const Workload& workload, PathId path,
                   const Assignment& latencies) {
  assert(latencies.size() == workload.subtask_count());
  double sum = 0.0;
  for (SubtaskId sid : workload.path(path).subtasks) {
    sum += latencies[sid.value()];
  }
  return sum;
}

double CriticalPathLatency(const Workload& workload, TaskId task,
                           const Assignment& latencies) {
  double worst = 0.0;
  for (PathId pid : workload.task(task).paths) {
    worst = std::max(worst, PathLatency(workload, pid, latencies));
  }
  return worst;
}

FeasibilityReport CheckFeasibility(const Workload& workload,
                                   const LatencyModel& model,
                                   const Assignment& latencies,
                                   double tolerance) {
  FeasibilityReport report;
  report.resource_share_sums.reserve(workload.resource_count());
  for (const ResourceInfo& resource : workload.resources()) {
    const double sum =
        ResourceShareSum(workload, model, resource.id, latencies);
    report.resource_share_sums.push_back(sum);
    const double excess = sum - resource.capacity;
    report.max_resource_excess = std::max(report.max_resource_excess, excess);
    if (excess > tolerance * resource.capacity) report.feasible = false;
  }
  report.critical_paths.reserve(workload.task_count());
  for (const TaskInfo& task : workload.tasks()) {
    const double crit = CriticalPathLatency(workload, task.id, latencies);
    report.critical_paths.push_back(crit);
    const double ratio = crit / task.critical_time_ms;
    report.max_path_ratio = std::max(report.max_path_ratio, ratio);
    if (ratio > 1.0 + tolerance) report.feasible = false;
  }
  report.max_resource_excess = std::max(report.max_resource_excess, 0.0);
  return report;
}

void FillResourceShareSumsRange(const Workload& workload,
                                const LatencyModel& model,
                                const Assignment& latencies, std::size_t begin,
                                std::size_t end, std::vector<double>* sums) {
  const std::vector<ResourceInfo>& resources = workload.resources();
  for (std::size_t r = begin; r < end; ++r) {
    double sum = 0.0;
    for (SubtaskId sid : resources[r].subtasks) {
      sum += model.share(sid).Share(latencies[sid.value()]);
    }
    (*sums)[r] = sum;
  }
}

void FillResourceShareSums(const Workload& workload, const LatencyModel& model,
                           const Assignment& latencies,
                           std::vector<double>* sums, ThreadPool* pool) {
  assert(latencies.size() == workload.subtask_count());
  sums->resize(workload.resource_count());
  StaticParallelFor(pool, workload.resources().size(),
                    [&](std::size_t begin, std::size_t end) {
                      FillResourceShareSumsRange(workload, model, latencies,
                                                 begin, end, sums);
                    });
}

void FillPathLatenciesRange(const Workload& workload,
                            const Assignment& latencies, std::size_t begin,
                            std::size_t end,
                            std::vector<double>* latencies_out) {
  const std::vector<PathInfo>& paths = workload.paths();
  for (std::size_t p = begin; p < end; ++p) {
    double sum = 0.0;
    for (SubtaskId sid : paths[p].subtasks) {
      sum += latencies[sid.value()];
    }
    (*latencies_out)[p] = sum;
  }
}

void FillPathLatencies(const Workload& workload, const Assignment& latencies,
                       std::vector<double>* latencies_out, ThreadPool* pool) {
  assert(latencies.size() == workload.subtask_count());
  latencies_out->resize(workload.path_count());
  StaticParallelFor(pool, workload.paths().size(),
                    [&](std::size_t begin, std::size_t end) {
                      FillPathLatenciesRange(workload, latencies, begin, end,
                                             latencies_out);
                    });
}

void FillTaskAggregatesRange(const Workload& workload,
                             const Assignment& latencies,
                             UtilityVariant variant, std::size_t begin,
                             std::size_t end,
                             std::vector<double>* weighted_latencies,
                             std::vector<double>* utilities) {
  const std::vector<TaskInfo>& tasks = workload.tasks();
  for (std::size_t t = begin; t < end; ++t) {
    double weighted = 0.0;
    for (SubtaskId sid : tasks[t].subtasks) {
      weighted += workload.Weight(sid, variant) * latencies[sid.value()];
    }
    (*weighted_latencies)[t] = weighted;
    (*utilities)[t] = tasks[t].utility.Value(weighted);
  }
}

void FillTaskAggregates(const Workload& workload, const Assignment& latencies,
                        UtilityVariant variant,
                        std::vector<double>* weighted_latencies,
                        std::vector<double>* utilities, ThreadPool* pool) {
  assert(latencies.size() == workload.subtask_count());
  weighted_latencies->resize(workload.task_count());
  utilities->resize(workload.task_count());
  StaticParallelFor(pool, workload.tasks().size(),
                    [&](std::size_t begin, std::size_t end) {
                      FillTaskAggregatesRange(workload, latencies, variant,
                                              begin, end, weighted_latencies,
                                              utilities);
                    });
}

FeasibilitySummary SummarizeFeasibility(
    const Workload& workload, const std::vector<double>& resource_share_sums,
    const std::vector<double>& path_latencies, double tolerance) {
  assert(resource_share_sums.size() == workload.resource_count());
  assert(path_latencies.size() == workload.path_count());
  FeasibilitySummary summary;
  for (const ResourceInfo& resource : workload.resources()) {
    const double excess =
        resource_share_sums[resource.id.value()] - resource.capacity;
    summary.max_resource_excess =
        std::max(summary.max_resource_excess, excess);
    if (excess > tolerance * resource.capacity) summary.feasible = false;
  }
  for (const TaskInfo& task : workload.tasks()) {
    double crit = 0.0;
    for (PathId pid : task.paths) {
      crit = std::max(crit, path_latencies[pid.value()]);
    }
    const double ratio = crit / task.critical_time_ms;
    summary.max_path_ratio = std::max(summary.max_path_ratio, ratio);
    if (ratio > 1.0 + tolerance) summary.feasible = false;
  }
  summary.max_resource_excess = std::max(summary.max_resource_excess, 0.0);
  return summary;
}

}  // namespace lla
