#include "core/step_workspace.h"

#include <cassert>

namespace lla {

void ReduceStepWorkspace(const Workload& workload, double feasibility_tol,
                         StepWorkspace* workspace) {
  const std::vector<ResourceInfo>& resources = workload.resources();
  for (std::size_t r = 0; r < resources.size(); ++r) {
    workspace->resource_congested[r] =
        workspace->resource_share_sums[r] > resources[r].capacity;
  }
  double total = 0.0;
  for (double utility : workspace->task_utilities) total += utility;
  workspace->total_utility = total;
  workspace->feasibility =
      SummarizeFeasibility(workload, workspace->resource_share_sums,
                           workspace->path_latencies, feasibility_tol);
}

void StepWorkspace::Resize(const Workload& workload) {
  resource_share_sums.resize(workload.resource_count());
  path_latencies.resize(workload.path_count());
  task_utilities.resize(workload.task_count());
  resource_congested.resize(workload.resource_count());
}

void FillStepWorkspace(const Workload& workload, const LatencyModel& model,
                       const Assignment& latencies, UtilityVariant variant,
                       double feasibility_tol, ThreadPool* pool,
                       StepWorkspace* workspace) {
  assert(latencies.size() == workload.subtask_count());
  StaticParallelFor(pool, workload.resource_count(),
                    [&](std::size_t begin, std::size_t end) {
                      FillResourceShareSumsRange(
                          workload, model, latencies, begin, end,
                          &workspace->resource_share_sums);
                    });
  StaticParallelFor(pool, workload.path_count(),
                    [&](std::size_t begin, std::size_t end) {
                      FillPathLatenciesRange(workload, latencies, begin, end,
                                             &workspace->path_latencies);
                    });
  StaticParallelFor(pool, workload.task_count(),
                    [&](std::size_t begin, std::size_t end) {
                      FillTaskAggregatesRange(workload, latencies, variant,
                                              begin, end,
                                              &workspace->task_utilities);
                    });
  ReduceStepWorkspace(workload, feasibility_tol, workspace);
}

}  // namespace lla
