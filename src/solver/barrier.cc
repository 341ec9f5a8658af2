#include "solver/barrier.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/math.h"
#include "core/latency_solver.h"
#include "solver/phase1.h"

namespace lla {
namespace {
constexpr double kBoxMargin = 1e-9;
// t runs from kT0 to kTMax by factors of kTGrowth (duality gap m/t); a stage
// takes at most kMaxGradientStepsPerStage steps, fewer at kGradientTol.
constexpr double kT0 = 1.0;
constexpr double kTGrowth = 8.0;
constexpr double kTMax = 1e8;
constexpr int kMaxGradientStepsPerStage = 4000;
constexpr double kGradientTol = 1e-8;
}  // namespace

BarrierSolver::BarrierSolver(const Workload& workload,
                             const LatencyModel& model,
                             BarrierSolverConfig config)
    : workload_(&workload), model_(&model), config_(config) {
  lo_.resize(workload.subtask_count());
  hi_.resize(workload.subtask_count());
  for (const SubtaskInfo& sub : workload.subtasks()) {
    const LatencyBox box = SubtaskLatencyBox(workload, model, sub.id);
    lo_[sub.id.value()] = box.lo;
    hi_[sub.id.value()] = box.hi;
  }
}

bool BarrierSolver::StrictlyFeasible(const Assignment& lat) const {
  for (const ResourceInfo& resource : workload_->resources()) {
    const double sum =
        ResourceShareSum(*workload_, *model_, resource.id, lat);
    if (sum >= resource.capacity) return false;
  }
  for (const PathInfo& path : workload_->paths()) {
    if (PathLatency(*workload_, path.id, lat) >= path.critical_time_ms) {
      return false;
    }
  }
  return true;
}

Expected<Assignment> BarrierSolver::FindInteriorPoint() const {
  // Equal-split witness scaled up: latencies lambda * base have shares
  // shrinking like 1/lambda and path latencies growing like lambda.
  Assignment base(workload_->subtask_count(), 0.0);
  for (const ResourceInfo& resource : workload_->resources()) {
    const double n_r = static_cast<double>(resource.subtasks.size());
    for (SubtaskId sid : resource.subtasks) {
      const double share = resource.capacity / n_r;
      base[sid.value()] = model_->share(sid).LatencyForShare(share);
    }
  }
  double lambda_max = std::numeric_limits<double>::infinity();
  for (const PathInfo& path : workload_->paths()) {
    const double latency = PathLatency(*workload_, path.id, base);
    lambda_max = std::min(lambda_max, path.critical_time_ms / latency);
  }
  // Candidate scale factors between "just above equal-split" and "just
  // below the deadline wall".
  const double candidates[] = {std::sqrt(std::max(lambda_max, 1.0)),
                               0.5 * (1.0 + lambda_max), 1.05, 1.2,
                               0.9 * lambda_max};
  for (double lambda : candidates) {
    if (!(lambda > 1.0) || lambda >= lambda_max) continue;
    Assignment candidate(base.size());
    for (std::size_t s = 0; s < base.size(); ++s) {
      candidate[s] = Clamp(lambda * base[s], lo_[s] + kBoxMargin,
                           std::max(lo_[s] + kBoxMargin, hi_[s] - kBoxMargin));
    }
    if (StrictlyFeasible(candidate)) return candidate;
  }

  // Scaling the equal-split witness failed (typical for workloads parked
  // exactly at capacity, like the Table 1 instance): fall back to the
  // Phase-I solver, which minimizes the smoothed maximum violation.
  Phase1Solver phase1(*workload_, *model_);
  const Phase1Result result = phase1.Solve();
  if (result.strictly_feasible && StrictlyFeasible(result.latencies)) {
    return result.latencies;
  }
  return Expected<Assignment>::Error(
      "BarrierSolver: no strictly feasible interior point found (workload "
      "is at or over capacity; Phase-I residual " +
      std::to_string(result.max_violation) + ")");
}

double BarrierSolver::Objective(const Assignment& lat, double t) const {
  double value = TotalUtility(*workload_, lat, config_.variant);
  for (const ResourceInfo& resource : workload_->resources()) {
    const double slack =
        resource.capacity -
        ResourceShareSum(*workload_, *model_, resource.id, lat);
    if (slack <= 0.0) return -std::numeric_limits<double>::infinity();
    value += std::log(slack) / t;
  }
  for (const PathInfo& path : workload_->paths()) {
    const double slack =
        path.critical_time_ms - PathLatency(*workload_, path.id, lat);
    if (slack <= 0.0) return -std::numeric_limits<double>::infinity();
    value += std::log(slack) / t;
  }
  return value;
}

void BarrierSolver::Gradient(const Assignment& lat, double t,
                             Assignment* grad) const {
  grad->assign(lat.size(), 0.0);

  // Utility term: w_s * f_i'(X_i).
  for (const TaskInfo& task : workload_->tasks()) {
    double x = 0.0;
    for (SubtaskId sid : task.subtasks) {
      x += workload_->Weight(sid, config_.variant) * lat[sid.value()];
    }
    const double slope = task.utility->Derivative(x);
    for (SubtaskId sid : task.subtasks) {
      (*grad)[sid.value()] +=
          workload_->Weight(sid, config_.variant) * slope;
    }
  }

  // Resource barrier: d/dlat log(B - S) = -share'(lat) / slack (>= 0).
  for (const ResourceInfo& resource : workload_->resources()) {
    const double slack =
        resource.capacity -
        ResourceShareSum(*workload_, *model_, resource.id, lat);
    assert(slack > 0.0);
    for (SubtaskId sid : resource.subtasks) {
      const double dshare = model_->share(sid).DShareDLat(lat[sid.value()]);
      (*grad)[sid.value()] += (-dshare / slack) / t;
    }
  }

  // Path barrier: d/dlat log(C - sum lat) = -1 / slack.
  for (const PathInfo& path : workload_->paths()) {
    const double slack =
        path.critical_time_ms - PathLatency(*workload_, path.id, lat);
    assert(slack > 0.0);
    for (SubtaskId sid : path.subtasks) {
      (*grad)[sid.value()] -= (1.0 / slack) / t;
    }
  }
}

Expected<BarrierResult> BarrierSolver::Solve() const {
  auto start = FindInteriorPoint();
  if (!start.ok()) return Expected<BarrierResult>::Error(start.error());
  return SolveFrom(start.value());
}

Expected<BarrierResult> BarrierSolver::SolveFrom(
    const Assignment& start) const {
  if (start.size() != workload_->subtask_count()) {
    return Expected<BarrierResult>::Error(
        "BarrierSolver: start has wrong size");
  }
  if (!StrictlyFeasible(start)) {
    return Expected<BarrierResult>::Error(
        "BarrierSolver: start is not strictly feasible");
  }

  BarrierResult result;
  Assignment lat = start;
  Assignment grad(lat.size()), trial(lat.size());

  for (double t = kT0; t <= kTMax; t *= kTGrowth) {
    for (int step = 0; step < kMaxGradientStepsPerStage; ++step) {
      Gradient(lat, t, &grad);
      const double base_value = Objective(lat, t);

      // Projected-gradient stationarity measure on the box.
      double stationarity = 0.0;
      for (std::size_t s = 0; s < lat.size(); ++s) {
        double g = grad[s];
        if (lat[s] <= lo_[s] + kBoxMargin && g < 0.0) g = 0.0;
        if (lat[s] >= hi_[s] - kBoxMargin && g > 0.0) g = 0.0;
        stationarity = std::max(stationarity, std::fabs(g));
      }
      if (stationarity <= kGradientTol) break;
      ++result.total_gradient_steps;

      // Backtracking line search along the projected gradient arc.
      double alpha = 1.0;
      bool accepted = false;
      for (int bt = 0; bt < 60; ++bt) {
        for (std::size_t s = 0; s < lat.size(); ++s) {
          trial[s] = Clamp(lat[s] + alpha * grad[s], lo_[s] + kBoxMargin,
                           std::max(lo_[s] + kBoxMargin,
                                    hi_[s] - kBoxMargin));
        }
        const double trial_value = Objective(trial, t);
        if (trial_value > base_value + 1e-18) {
          lat = trial;
          accepted = true;
          break;
        }
        alpha *= 0.5;
      }
      if (!accepted) break;  // at numerical stationarity for this stage
    }
  }

  result.latencies = lat;
  result.utility = TotalUtility(*workload_, lat, config_.variant);
  result.converged = true;
  return result;
}

}  // namespace lla
