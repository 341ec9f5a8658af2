#include "solver/phase1.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/math.h"
#include "core/latency_solver.h"

namespace lla {
namespace {
constexpr double kBoxMargin = 1e-9;
// t runs from kT0 to kTMax by factors of kTGrowth; a stage takes at most
// kMaxGradientStepsPerStage steps, fewer at kGradientTol.  The solve stops
// once the max violation is below -kTargetMargin (normalized units).
constexpr double kT0 = 2.0;
constexpr double kTGrowth = 4.0;
constexpr double kTMax = 4096.0;
constexpr int kMaxGradientStepsPerStage = 2000;
constexpr double kGradientTol = 1e-9;
constexpr double kTargetMargin = 1e-4;
}  // namespace

Phase1Solver::Phase1Solver(const Workload& workload, const LatencyModel& model)
    : workload_(&workload), model_(&model) {
  lo_.resize(workload.subtask_count());
  hi_.resize(workload.subtask_count());
  for (const SubtaskInfo& sub : workload.subtasks()) {
    const LatencyBox box = SubtaskLatencyBox(workload, model, sub.id);
    lo_[sub.id.value()] = box.lo;
    hi_[sub.id.value()] = box.hi;
  }
}

double Phase1Solver::MaxViolation(const Assignment& lat) const {
  double worst = -std::numeric_limits<double>::infinity();
  for (const ResourceInfo& resource : workload_->resources()) {
    worst = std::max(worst,
                     ResourceShareSum(*workload_, *model_, resource.id, lat) -
                         resource.capacity);
  }
  for (const PathInfo& path : workload_->paths()) {
    worst = std::max(worst, (PathLatency(*workload_, path.id, lat) -
                             path.critical_time_ms) /
                                path.critical_time_ms);
  }
  return worst;
}

double Phase1Solver::SmoothedMax(const Assignment& lat, double t) const {
  // Collect all constraint values, then log-sum-exp with max subtracted.
  double peak = -std::numeric_limits<double>::infinity();
  std::vector<double> values;
  values.reserve(workload_->resource_count() + workload_->path_count());
  for (const ResourceInfo& resource : workload_->resources()) {
    values.push_back(
        ResourceShareSum(*workload_, *model_, resource.id, lat) -
        resource.capacity);
  }
  for (const PathInfo& path : workload_->paths()) {
    values.push_back((PathLatency(*workload_, path.id, lat) -
                      path.critical_time_ms) /
                     path.critical_time_ms);
  }
  for (double v : values) peak = std::max(peak, v);
  double sum = 0.0;
  for (double v : values) sum += std::exp(t * (v - peak));
  return peak + std::log(sum) / t;
}

void Phase1Solver::Gradient(const Assignment& lat, double t,
                            Assignment* grad) const {
  grad->assign(lat.size(), 0.0);
  // Two passes: first compute constraint values for the softmax weights.
  const std::size_t num_resources = workload_->resource_count();
  std::vector<double> values(num_resources + workload_->path_count());
  for (const ResourceInfo& resource : workload_->resources()) {
    values[resource.id.value()] =
        ResourceShareSum(*workload_, *model_, resource.id, lat) -
        resource.capacity;
  }
  for (const PathInfo& path : workload_->paths()) {
    values[num_resources + path.id.value()] =
        (PathLatency(*workload_, path.id, lat) - path.critical_time_ms) /
        path.critical_time_ms;
  }
  double peak = -std::numeric_limits<double>::infinity();
  for (double v : values) peak = std::max(peak, v);
  double z = 0.0;
  for (double v : values) z += std::exp(t * (v - peak));

  for (const ResourceInfo& resource : workload_->resources()) {
    const double weight =
        std::exp(t * (values[resource.id.value()] - peak)) / z;
    if (weight <= 0.0) continue;
    for (SubtaskId sid : resource.subtasks) {
      (*grad)[sid.value()] +=
          weight * model_->share(sid).DShareDLat(lat[sid.value()]);
    }
  }
  for (const PathInfo& path : workload_->paths()) {
    const double weight =
        std::exp(t * (values[num_resources + path.id.value()] - peak)) / z;
    if (weight <= 0.0) continue;
    for (SubtaskId sid : path.subtasks) {
      (*grad)[sid.value()] += weight / path.critical_time_ms;
    }
  }
}

Phase1Result Phase1Solver::Solve() const {
  // Equal-split witness as the start.
  Assignment start(workload_->subtask_count(), 0.0);
  for (const ResourceInfo& resource : workload_->resources()) {
    const double n_r = static_cast<double>(resource.subtasks.size());
    for (SubtaskId sid : resource.subtasks) {
      start[sid.value()] = Clamp(
          model_->share(sid).LatencyForShare(resource.capacity / n_r),
          lo_[sid.value()] + kBoxMargin,
          std::max(lo_[sid.value()] + kBoxMargin,
                   hi_[sid.value()] - kBoxMargin));
    }
  }
  return SolveFrom(start);
}

Phase1Result Phase1Solver::SolveFrom(const Assignment& start) const {
  assert(start.size() == workload_->subtask_count());
  Phase1Result result;
  Assignment lat = start;
  Assignment grad(lat.size()), trial(lat.size());

  for (double t = kT0; t <= kTMax; t *= kTGrowth) {
    for (int step = 0; step < kMaxGradientStepsPerStage; ++step) {
      if (MaxViolation(lat) < -kTargetMargin) break;  // done early
      Gradient(lat, t, &grad);
      const double base = SmoothedMax(lat, t);

      double stationarity = 0.0;
      for (std::size_t s = 0; s < lat.size(); ++s) {
        double g = grad[s];
        if (lat[s] <= lo_[s] + kBoxMargin && g > 0.0) g = 0.0;
        if (lat[s] >= hi_[s] - kBoxMargin && g < 0.0) g = 0.0;
        stationarity = std::max(stationarity, std::fabs(g));
      }
      if (stationarity <= kGradientTol) break;
      ++result.total_gradient_steps;

      double alpha = 1.0;
      bool accepted = false;
      for (int bt = 0; bt < 60; ++bt) {
        for (std::size_t s = 0; s < lat.size(); ++s) {
          trial[s] = Clamp(lat[s] - alpha * grad[s], lo_[s] + kBoxMargin,
                           std::max(lo_[s] + kBoxMargin,
                                    hi_[s] - kBoxMargin));
        }
        if (SmoothedMax(trial, t) < base - 1e-18) {
          lat = trial;
          accepted = true;
          break;
        }
        alpha *= 0.5;
      }
      if (!accepted) break;
    }
    if (MaxViolation(lat) < -kTargetMargin) break;
  }

  result.latencies = lat;
  result.max_violation = MaxViolation(lat);
  result.strictly_feasible = result.max_violation < 0.0;
  return result;
}

}  // namespace lla
