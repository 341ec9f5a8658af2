#include "core/step_size.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace lla {
namespace {

// Aborts, naming `owner` and `name`, unless `value` is finite and in range.
void RequireStepParameter(bool in_range, double value, const char* owner,
                          const char* name, const char* range) {
  if (in_range && std::isfinite(value)) return;
  std::fprintf(stderr, "%s: step parameter %s = %g must be finite and %s\n",
               owner, name, value, range);
  std::abort();
}

}  // namespace

const char* ToString(StepPolicyKind kind) {
  switch (kind) {
    case StepPolicyKind::kFixed:
      return "fixed";
    case StepPolicyKind::kAdaptive:
      return "adaptive";
    case StepPolicyKind::kDiminishing:
      return "diminishing";
  }
  return "?";
}

StepSchedule::StepSchedule(StepPolicyKind kind, double gamma0, double cap,
                           double tau, const char* owner)
    : kind_(kind), gamma0_(gamma0), cap_(cap), tau_(tau), gamma_(gamma0) {
  RequireStepParameter(gamma0 > 0.0, gamma0, owner, "gamma0", "> 0");
  RequireStepParameter(cap >= 1.0, cap, owner, "adaptive_max_multiplier",
                       ">= 1");
  RequireStepParameter(tau > 0.0, tau, owner, "diminishing_tau", "> 0");
}

void StepSchedule::Reset(const Workload& workload) {
  gamma_ = gamma0_;
  iteration_ = 0;
  if (kind_ == StepPolicyKind::kAdaptive) {
    resource_multiplier_.assign(workload.resource_count(), 1.0);
    path_multiplier_.assign(workload.path_count(), 1.0);
  }
}

void StepSchedule::Advance(const Workload& workload,
                           const std::vector<bool>& resource_congested) {
  assert(resource_congested.size() == workload.resource_count());
  if (kind_ == StepPolicyKind::kDiminishing) {
    gamma_ = gamma0_ / (1.0 + static_cast<double>(iteration_) / tau_);
    ++iteration_;
  }
  if (kind_ != StepPolicyKind::kAdaptive) return;
  // Every engine binds one workload for life, so a mismatch is a caller
  // bug; resizing here would resume misindexed (or out-of-bounds) state.
  if (resource_multiplier_.size() != workload.resource_count() ||
      path_multiplier_.size() != workload.path_count()) {
    std::fprintf(stderr,
                 "StepSchedule::Advance: workload shape (%zu resources, %zu "
                 "paths) does not match the schedule's (%zu, %zu)\n",
                 workload.resource_count(), workload.path_count(),
                 resource_multiplier_.size(), path_multiplier_.size());
    std::abort();
  }
  for (std::size_t r = 0; r < resource_multiplier_.size(); ++r) {
    AdvanceResource(r, resource_congested[r]);
  }
  for (const PathInfo& path : workload.paths()) {
    bool any_congested = false;
    for (SubtaskId sid : path.subtasks) {
      if (resource_congested[workload.subtask(sid).resource.value()]) {
        any_congested = true;
        break;
      }
    }
    AdvancePath(path.id.value(), any_congested);
  }
}

void StepSchedule::Adopt(std::vector<double> resource_multiplier,
                         std::vector<double> path_multiplier,
                         std::int64_t iteration) {
  assert(iteration >= 0);
  if (kind_ == StepPolicyKind::kDiminishing) iteration_ = iteration;
  // A misfit keeps the Reset() state (all 1.0) rather than adopting
  // misindexed multipliers.
  if (kind_ == StepPolicyKind::kAdaptive &&
      resource_multiplier.size() == resource_multiplier_.size() &&
      path_multiplier.size() == path_multiplier_.size()) {
    resource_multiplier_ = std::move(resource_multiplier);
    path_multiplier_ = std::move(path_multiplier);
  }
}

}  // namespace lla
