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
  task_weighted_latencies.resize(workload.task_count());
  task_utilities.resize(workload.task_count());
  resource_congested.resize(workload.resource_count());
}

void FillStepWorkspace(const Workload& workload, const LatencyModel& model,
                       const Assignment& latencies, UtilityVariant variant,
                       double feasibility_tol, ThreadPool* pool,
                       StepWorkspace* workspace) {
  assert(latencies.size() == workload.subtask_count());
  FillResourceShareSums(workload, model, latencies,
                        &workspace->resource_share_sums, pool);
  FillPathLatencies(workload, latencies, &workspace->path_latencies, pool);
  FillTaskAggregates(workload, latencies, variant,
                     &workspace->task_weighted_latencies,
                     &workspace->task_utilities, pool);
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

  // 1. Diff the prices against the ones the current buffers were solved at.
  DiffPrices(prices, state->solve_prices, &state->mu_changed,
             &state->lambda_changed);

  // 2. Mark dirty tasks: any task with a subtask on a changed-mu resource or
  //    a changed-lambda path must re-solve.  Also detect whether the lambda
  //    ZERO-PATTERN moved — only then does the compacted gather CSR need a
  //    rebuild (a nonzero->nonzero change keeps the index valid).
  state->dirty_tasks.clear();
  bool lambda_pattern_changed = false;
  for (std::size_t r = 0; r < state->mu_changed.size(); ++r) {
    if (state->mu_changed[r] == 0) continue;
    for (std::size_t i = state->res_task_offset[r];
         i < state->res_task_offset[r + 1]; ++i) {
      const std::uint32_t t = state->res_task_index[i];
      if (state->task_dirty[t] == 0) {
        state->task_dirty[t] = 1;
        state->dirty_tasks.push_back(t);
      }
    }
  }
  for (std::size_t p = 0; p < state->lambda_changed.size(); ++p) {
    if (state->lambda_changed[p] == 0) continue;
    if (prices.lambda[p] == 0.0 || state->solve_prices.lambda[p] == 0.0) {
      lambda_pattern_changed = true;
    }
    const std::uint32_t t =
        static_cast<std::uint32_t>(workload.path(PathId(p)).task.value());
    if (state->task_dirty[t] == 0) {
      state->task_dirty[t] = 1;
      state->dirty_tasks.push_back(t);
    }
  }

  // Snapshot the new solve prices (vector assignment reuses capacity).
  state->solve_prices = prices;

  if (!state->dirty_tasks.empty()) {
    std::sort(state->dirty_tasks.begin(), state->dirty_tasks.end());

    // 3. Re-solve the dirty tasks only.  Clean tasks would reproduce their
    //    persisted latencies bit-for-bit (identical inputs, identical
    //    arithmetic), so reusing the buffer entries IS the dense result.
    solver.RefreshCache();
    if (!solver.has_active_gather() || lambda_pattern_changed) {
      solver.PrepareSolve(prices);
    }
    const std::uint32_t* task_ids = state->dirty_tasks.data();
    StaticParallelFor(pool, state->dirty_tasks.size(),
                      [&](std::size_t begin, std::size_t end) {
                        solver.SolveTaskList(task_ids, begin, end, prices,
                                             latencies);
                      });

    // 4. Diff the re-solved latencies; a resource/path is dirty iff one of
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

    // 5. Re-aggregate dirty items in full (never delta arithmetic): each
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
                                    &workspace->task_weighted_latencies,
                                    &workspace->task_utilities);
          }
        });
    for (std::uint32_t r : state->dirty_resources) {
      state->resource_dirty[r] = 0;
    }
    for (std::uint32_t p : state->dirty_paths) state->path_dirty[p] = 0;
  }

  // 6. The reductions stay dense: they read only the (bit-identical)
  //    workspace arrays, cost O(R + P + task paths), and keeping them whole
  //    means the congestion flags, utility total and feasibility summary
  //    need no dirtiness reasoning at all.
  ReduceWorkspace(workload, feasibility_tol, workspace);
  return work;
}

}  // namespace lla
