#include "core/latency_solver.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/math.h"

namespace lla {
namespace {
// Tolerance and iteration cap of the per-task fixed point (nonlinear f_i).
constexpr double kFixedPointTol = 1e-10;
constexpr int kFixedPointMaxIter = 200;
}  // namespace

LatencyBox SubtaskLatencyBox(const Workload& workload,
                             const LatencyModel& model, SubtaskId id) {
  const SubtaskInfo& sub = workload.subtask(id);
  const ShareFunction& share = model.share(id);
  const double cap = workload.resource(sub.resource).capacity;
  // The subtask may not demand more than the whole available fraction; with
  // corrected models the inverse can dip to/below MinLatency, so guard it.
  const double floor =
      std::max(share.MinLatency() * (1.0 + 1e-12) + 1e-12, 1e-9);
  LatencyBox box;
  box.lo = std::max(share.LatencyForShare(cap), floor);
  const double critical_time = workload.task(sub.task).critical_time_ms;
  const double hi = sub.min_share > 0.0
                        ? share.LatencyForShare(sub.min_share)
                        : kLatCapFactor * critical_time;
  box.hi = std::max(hi, box.lo);
  return box;
}

LatencySolver::LatencySolver(const Workload& workload,
                             const LatencyModel& model,
                             LatencySolverConfig config)
    : workload_(&workload), model_(&model), config_(config) {
  const std::size_t n = workload.subtask_count();
  weight_.reserve(n);
  resource_index_.reserve(n);
  path_offset_.reserve(n + 1);
  path_offset_.push_back(0);
  for (const SubtaskInfo& sub : workload.subtasks()) {
    weight_.push_back(workload.Weight(sub.id, config_.variant));
    resource_index_.push_back(sub.resource.value());
    for (PathId pid : sub.paths) path_index_.push_back(pid.value());
    path_offset_.push_back(path_index_.size());
  }
  // Per-task subtask spans.  Workload::Create numbers subtasks task by
  // task, so each task owns the contiguous id range SolveClosedSpan walks.
  const std::vector<TaskInfo>& tasks = workload.tasks();
  task_begin_.resize(tasks.size());
  task_end_.resize(tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const std::vector<SubtaskId>& subs = tasks[t].subtasks;
    task_begin_[t] = subs.front().value();
    task_end_[t] = subs.back().value() + 1;
    assert(task_end_[t] - task_begin_[t] == subs.size());
  }
  if (config_.cache_invariants) RebuildCache();
}

void LatencySolver::PrepareSolve() const {
  if (config_.cache_invariants && cached_revision_ != model_->revision()) {
    RebuildCache();
  }
}

void LatencySolver::RebuildCache() const {
  const std::size_t n = workload_->subtask_count();
  lat_lo_.resize(n);
  lat_hi_.resize(n);
  closed_work_.resize(n);
  closed_err_.resize(n);
  lambda_scratch_.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    const SubtaskId id(s);
    const LatencyBox box = SubtaskLatencyBox(*workload_, *model_, id);
    lat_lo_[s] = box.lo;
    lat_hi_[s] = box.hi;
    const ShareFunction& share = model_->share(id);
    closed_work_[s] = share.work_ms();
    closed_err_[s] = share.error_ms();
  }
  cached_revision_ = model_->revision();
}

double LatencySolver::LatLo(SubtaskId id) const {
  PrepareSolve();
  return Box(id).lo;
}

double LatencySolver::LatHi(SubtaskId id) const {
  PrepareSolve();
  return Box(id).hi;
}

double LatencySolver::SolveSubtask(SubtaskId id, double utility_slope,
                                   const PriceVector& prices) const {
  const std::size_t s = id.value();
  const auto [lo, hi] = Box(id);
  if (lo >= hi) return lo;

  const double w = weight_[s];
  double lambda_sum = 0.0;
  for (std::size_t i = path_offset_[s]; i < path_offset_[s + 1]; ++i) {
    lambda_sum += prices.lambda[path_index_[i]];
  }
  const double mu =
      prices.mu[workload_->subtask(id).resource.value()];

  // Marginal benefit of shrinking this latency (>= 0 since f' <= 0).
  const double pressure = lambda_sum - w * utility_slope;
  if (mu <= 0.0) {
    // Free resource: shrinking latency costs nothing.  Any positive pressure
    // drives the latency to its floor; zero pressure leaves it indifferent,
    // and we also pick the floor (work-conserving choice).
    return pressure > 0.0 ? lo : hi;
  }
  if (pressure <= 0.0) {
    // No benefit from shrinking (flat utility, no binding paths): release
    // the resource entirely.
    return hi;
  }
  return model_->share(id).LatencyForNegSlope(pressure / mu, lo, hi);
}

void LatencySolver::SolveClosedSpan(std::size_t begin, std::size_t end,
                                    double utility_slope,
                                    const PriceVector& prices,
                                    double* out) const {
  // Gather pass: per-subtask path-price sums, accumulated in CSR order
  // (matching SolveSubtask exactly).
  const double* lambda = prices.lambda.data();
  for (std::size_t s = begin; s < end; ++s) {
    double lambda_sum = 0.0;
    for (std::size_t i = path_offset_[s]; i < path_offset_[s + 1]; ++i) {
      lambda_sum += lambda[path_index_[i]];
    }
    lambda_scratch_[s] = lambda_sum;
  }
  // Closed-form pass over flat arrays.  Every expression mirrors
  // SolveSubtask / ShareFunction::LatencyForNegSlope operation-for-operation
  // (division by mu first, then work/g, then err + sqrt, then clamp) so the
  // result is bit-identical to the scalar reference path.
  const double* mu = prices.mu.data();
  for (std::size_t s = begin; s < end; ++s) {
    const double lo = lat_lo_[s];
    const double hi = lat_hi_[s];
    double lat;
    if (lo >= hi) {
      lat = lo;
    } else {
      const double m = mu[resource_index_[s]];
      const double pressure =
          lambda_scratch_[s] - weight_[s] * utility_slope;
      if (m <= 0.0) {
        lat = pressure > 0.0 ? lo : hi;
      } else if (pressure <= 0.0) {
        lat = hi;
      } else {
        const double g = pressure / m;
        if (g == 0.0) {
          lat = hi;
        } else {
          double v = closed_err_[s] + std::sqrt(closed_work_[s] / g);
          v = v < lo ? lo : v;  // == Clamp(v, lo, hi)
          v = v > hi ? hi : v;
          lat = v;
        }
      }
    }
    out[s] = lat;
  }
}

void LatencySolver::SolveTaskFresh(TaskId task, const PriceVector& prices,
                                   Assignment* latencies) const {
  assert(latencies->size() == workload_->subtask_count());
  const TaskInfo& info = workload_->task(task);
  const Utility& f = info.utility;
  const bool cached = config_.cache_invariants;
  const std::size_t span_begin = task_begin_[task.value()];
  const std::size_t span_end = task_end_[task.value()];

  // Bracket the coupling value X = sum of weighted latencies.
  double x_lo = 0.0, x_hi = 0.0;
  for (SubtaskId sid : info.subtasks) {
    const LatencyBox box = Box(sid);
    x_lo += weight_[sid.value()] * box.lo;
    x_hi += weight_[sid.value()] * box.hi;
  }

  // If f' is (numerically) constant over the bracket — the linear case —
  // the subtasks decouple and one pass suffices.
  const double slope_lo = f.Derivative(x_lo);
  const double slope_hi = f.Derivative(x_hi);
  double slope = slope_lo;
  if (!AlmostEqual(slope_lo, slope_hi, 1e-12, 1e-15)) {
    // General concave f: solve X = h(X).  h is non-increasing in X because
    // f' is non-increasing, so g(X) = h(X) - X is strictly decreasing and
    // has a unique root in [x_lo, x_hi].
    // Each h evaluation writes the task's own latency span (overwritten by
    // the final pass below, and disjoint from other tasks' spans), which
    // lets the closed-form kernel serve the fixed point too.
    const auto h = [&](double x) {
      const double fx = f.Derivative(x);
      double sum = 0.0;
      if (cached) {
        SolveClosedSpan(span_begin, span_end, fx, prices, latencies->data());
        for (std::size_t s = span_begin; s < span_end; ++s) {
          sum += weight_[s] * (*latencies)[s];
        }
      } else {
        for (SubtaskId sid : info.subtasks) {
          sum += weight_[sid.value()] * SolveSubtask(sid, fx, prices);
        }
      }
      return sum;
    };
    double lo = x_lo, hi = x_hi;
    double x = 0.5 * (lo + hi);
    for (int iter = 0; iter < kFixedPointMaxIter; ++iter) {
      x = 0.5 * (lo + hi);
      const double gap = h(x) - x;
      if (std::fabs(gap) <= kFixedPointTol * (1.0 + x) ||
          (hi - lo) <= kFixedPointTol * (1.0 + x)) {
        break;
      }
      if (gap > 0.0) {
        lo = x;
      } else {
        hi = x;
      }
    }
    slope = f.Derivative(x);
  }

  if (cached) {
    SolveClosedSpan(span_begin, span_end, slope, prices, latencies->data());
  } else {
    for (SubtaskId sid : info.subtasks) {
      (*latencies)[sid.value()] = SolveSubtask(sid, slope, prices);
    }
  }
}

void LatencySolver::SolveTaskRange(std::size_t begin, std::size_t end,
                                   const PriceVector& prices,
                                   Assignment* latencies) const {
  const std::vector<TaskInfo>& tasks = workload_->tasks();
  for (std::size_t t = begin; t < end; ++t) {
    SolveTaskFresh(tasks[t].id, prices, latencies);
  }
}

void LatencySolver::SolveAll(const PriceVector& prices, Assignment* latencies,
                             ThreadPool* pool) const {
  assert(latencies->size() == workload_->subtask_count());
  // Refresh serially before fanning out; workers then only read the cache.
  PrepareSolve();
  StaticParallelFor(pool, workload_->tasks().size(),
                    [&](std::size_t begin, std::size_t end) {
                      SolveTaskRange(begin, end, prices, latencies);
                    });
}

}  // namespace lla
