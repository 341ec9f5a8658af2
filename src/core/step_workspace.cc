#include "core/step_workspace.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace lla {
namespace {

// Serial reductions in index order: identical for every thread count.
void ReduceWorkspace(const Workload& workload, double feasibility_tol,
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

}  // namespace

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
  ReduceWorkspace(workload, feasibility_tol, workspace);
}

namespace {

inline bool SameBits(double a, double b) {
  std::uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

/// Builds the workload-shape parts of the state (reverse indexes, zeroed
/// flag arrays).  Called at prime time only.
void BindActiveSetState(const Workload& workload, ActiveSetState* state) {
  const std::vector<ResourceInfo>& resources = workload.resources();
  state->res_task_offset.assign(resources.size() + 1, 0);
  state->res_task_index.clear();
  std::vector<std::uint32_t> tasks_of_resource;
  for (std::size_t r = 0; r < resources.size(); ++r) {
    tasks_of_resource.clear();
    for (SubtaskId sid : resources[r].subtasks) {
      tasks_of_resource.push_back(
          static_cast<std::uint32_t>(workload.subtask(sid).task.value()));
    }
    std::sort(tasks_of_resource.begin(), tasks_of_resource.end());
    tasks_of_resource.erase(
        std::unique(tasks_of_resource.begin(), tasks_of_resource.end()),
        tasks_of_resource.end());
    state->res_task_index.insert(state->res_task_index.end(),
                                 tasks_of_resource.begin(),
                                 tasks_of_resource.end());
    state->res_task_offset[r + 1] = state->res_task_index.size();
  }
  state->task_dirty.assign(workload.task_count(), 0);
  state->resource_dirty.assign(workload.resource_count(), 0);
  state->path_dirty.assign(workload.path_count(), 0);
  state->dirty_tasks.clear();
  state->dirty_resources.clear();
  state->dirty_paths.clear();
}

}  // namespace

ActiveStepWork ActiveSolveAndFill(
    const LatencySolver& solver, const Workload& workload,
    const LatencyModel& model, const PriceVector& prices,
    UtilityVariant variant, double feasibility_tol, ThreadPool* pool,
    Assignment* latencies, StepWorkspace* workspace, ActiveSetState* state) {
  ActiveStepWork work;
  const bool shape_ok =
      state->prev_latencies.size() == workload.subtask_count() &&
      state->solve_prices.mu.size() == prices.mu.size() &&
      state->solve_prices.lambda.size() == prices.lambda.size();
  if (!state->primed || state->model_revision != model.revision() ||
      !shape_ok) {
    // Dense prime: one full solve + fill, then snapshot the inputs/outputs
    // it was computed from.  A baseline solve at these prices is exactly
    // what the first incremental step would recompute, so the next Step()
    // can already diff against it.
    solver.SolveAll(prices, latencies, pool);
    FillStepWorkspace(workload, model, *latencies, variant, feasibility_tol,
                      pool, workspace);
    BindActiveSetState(workload, state);
    state->solve_prices = prices;
    state->prev_latencies = *latencies;
    state->model_revision = model.revision();
    state->primed = true;
    work.primed = true;
    work.tasks_solved = workload.task_count();
    work.subtasks_solved = workload.subtask_count();
    work.resources_refreshed = workload.resource_count();
    work.paths_refreshed = workload.path_count();
    return work;
  }
  assert(latencies->size() == workload.subtask_count());

  // 1. Mark dirty tasks in one pass per index space: a task with a subtask
  //    on a resource whose mu changed, or owning a path whose lambda
  //    changed, must re-solve.  "Changed" compares bits, not values, against
  //    the prices the current buffers were solved at, and no tolerance ever
  //    creeps in: -0.0 and +0.0 count as different (conservative), and a NaN
  //    that keeps its payload counts as unchanged (a re-solve with the same
  //    NaN inputs reproduces the same outputs).  Each changed entry is
  //    copied into the baseline as it is found.
  state->dirty_tasks.clear();
  const auto mark = [state](std::uint32_t t) {
    if (state->task_dirty[t] == 0) {
      state->task_dirty[t] = 1;
      state->dirty_tasks.push_back(t);
    }
  };
  for (std::size_t r = 0; r < prices.mu.size(); ++r) {
    if (SameBits(prices.mu[r], state->solve_prices.mu[r])) continue;
    state->solve_prices.mu[r] = prices.mu[r];
    for (std::size_t i = state->res_task_offset[r];
         i < state->res_task_offset[r + 1]; ++i) {
      mark(state->res_task_index[i]);
    }
  }
  for (std::size_t p = 0; p < prices.lambda.size(); ++p) {
    if (SameBits(prices.lambda[p], state->solve_prices.lambda[p])) continue;
    state->solve_prices.lambda[p] = prices.lambda[p];
    mark(static_cast<std::uint32_t>(workload.path(PathId(p)).task.value()));
  }

  if (!state->dirty_tasks.empty()) {
    std::sort(state->dirty_tasks.begin(), state->dirty_tasks.end());

    // 2. Re-solve the dirty tasks only.  Clean tasks would reproduce their
    //    persisted latencies bit-for-bit (identical inputs, identical
    //    arithmetic), so reusing the buffer entries IS the dense result.
    solver.PrepareSolve();
    const std::uint32_t* task_ids = state->dirty_tasks.data();
    StaticParallelFor(pool, state->dirty_tasks.size(),
                      [&](std::size_t begin, std::size_t end) {
                        solver.SolveTaskList(task_ids, begin, end, prices,
                                             latencies);
                      });

    // 3. Diff the re-solved latencies; a resource/path is dirty iff one of
    //    its member subtasks changed bits.  Clean aggregates keep their
    //    persisted values (a full re-sum over unchanged bits is a no-op).
    state->dirty_resources.clear();
    state->dirty_paths.clear();
    for (std::uint32_t t : state->dirty_tasks) {
      state->task_dirty[t] = 0;  // reset for the next step
      for (SubtaskId sid : workload.task(TaskId(t)).subtasks) {
        const std::size_t s = sid.value();
        ++work.subtasks_solved;
        if (SameBits((*latencies)[s], state->prev_latencies[s])) continue;
        state->prev_latencies[s] = (*latencies)[s];
        const SubtaskInfo& sub = workload.subtask(sid);
        const std::size_t r = sub.resource.value();
        if (state->resource_dirty[r] == 0) {
          state->resource_dirty[r] = 1;
          state->dirty_resources.push_back(static_cast<std::uint32_t>(r));
        }
        for (PathId pid : sub.paths) {
          const std::size_t p = pid.value();
          if (state->path_dirty[p] == 0) {
            state->path_dirty[p] = 1;
            state->dirty_paths.push_back(static_cast<std::uint32_t>(p));
          }
        }
      }
    }
    work.tasks_solved = state->dirty_tasks.size();
    work.resources_refreshed = state->dirty_resources.size();
    work.paths_refreshed = state->dirty_paths.size();

    // 4. Re-aggregate dirty items in full (never delta arithmetic): each
    //    item's sum runs the dense inner loop over ALL its members in index
    //    order, so the bits match the dense sweep exactly.
    const std::uint32_t* dirty_resources = state->dirty_resources.data();
    StaticParallelFor(
        pool, state->dirty_resources.size(),
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            const std::size_t r = dirty_resources[i];
            FillResourceShareSumsRange(workload, model, *latencies, r, r + 1,
                                       &workspace->resource_share_sums);
          }
        });
    const std::uint32_t* dirty_paths = state->dirty_paths.data();
    StaticParallelFor(pool, state->dirty_paths.size(),
                      [&](std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) {
                          const std::size_t p = dirty_paths[i];
                          FillPathLatenciesRange(workload, *latencies, p,
                                                 p + 1,
                                                 &workspace->path_latencies);
                        }
                      });
    StaticParallelFor(
        pool, state->dirty_tasks.size(),
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            const std::size_t t = task_ids[i];
            FillTaskAggregatesRange(workload, *latencies, variant, t, t + 1,
                                    &workspace->task_utilities);
          }
        });
    for (std::uint32_t r : state->dirty_resources) {
      state->resource_dirty[r] = 0;
    }
    for (std::uint32_t p : state->dirty_paths) state->path_dirty[p] = 0;
  }

  // 5. The reductions stay dense: they read only the (bit-identical)
  //    workspace arrays, cost O(R + P + task paths), and keeping them whole
  //    means the congestion flags, utility total and feasibility summary
  //    need no dirtiness reasoning at all.
  ReduceWorkspace(workload, feasibility_tol, workspace);
  return work;
}

}  // namespace lla
