#include "core/step_size.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace lla {
namespace {

void RequireStepParameter(bool in_range, double value, const char* owner,
                          const char* name, const char* range) {
  if (in_range && std::isfinite(value)) return;
  std::fprintf(stderr, "%s: step parameter %s = %g must be finite and %s\n",
               owner, name, value, range);
  std::abort();
}

}  // namespace

void RequirePositiveStepParameter(double value, const char* owner,
                                  const char* name) {
  RequireStepParameter(value > 0.0, value, owner, name, "> 0");
}

void RequireStepMultiplierCap(double value, const char* owner,
                              const char* name) {
  RequireStepParameter(value >= 1.0, value, owner, name, ">= 1");
}

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

FixedStepSize::FixedStepSize(double gamma) : gamma_(gamma) {
  RequirePositiveStepParameter(gamma, "FixedStepSize", "gamma");
}

void FixedStepSize::Reset(const Workload& /*workload*/) {}

void FixedStepSize::Update(const Workload& workload,
                           const std::vector<bool>& /*resource_congested*/,
                           StepSizes* steps) {
  steps->resource.assign(workload.resource_count(), gamma_);
  steps->path.assign(workload.path_count(), gamma_);
}

std::string FixedStepSize::Describe() const {
  std::ostringstream os;
  os << "fixed(gamma=" << gamma_ << ")";
  return os.str();
}

AdaptiveStepSize::AdaptiveStepSize(double gamma0, double max_multiplier)
    : gamma0_(gamma0), max_multiplier_(max_multiplier) {
  RequirePositiveStepParameter(gamma0, "AdaptiveStepSize", "gamma0");
  RequireStepMultiplierCap(max_multiplier, "AdaptiveStepSize",
                           "max_multiplier");
}

void AdaptiveStepSize::Reset(const Workload& workload) {
  resource_multiplier_.assign(workload.resource_count(), 1.0);
  path_multiplier_.assign(workload.path_count(), 1.0);
}

void AdaptiveStepSize::Update(const Workload& workload,
                              const std::vector<bool>& resource_congested,
                              StepSizes* steps) {
  assert(resource_congested.size() == workload.resource_count());
  // Rebuild on any size mismatch.  Checking only the resource vector left
  // path_multiplier_ stale (or undersized — an out-of-bounds write below)
  // when a workload transform changed the path count but not the resource
  // count, e.g. a task add/remove on a fixed resource set.
  if (resource_multiplier_.size() != workload.resource_count() ||
      path_multiplier_.size() != workload.path_count()) {
    Reset(workload);
  }
  for (std::size_t r = 0; r < workload.resource_count(); ++r) {
    resource_multiplier_[r] = NextStepMultiplier(
        resource_multiplier_[r], resource_congested[r], max_multiplier_);
  }
  // A path doubles while any resource it traverses is congested.
  for (const PathInfo& path : workload.paths()) {
    bool any_congested = false;
    for (SubtaskId sid : path.subtasks) {
      if (resource_congested[workload.subtask(sid).resource.value()]) {
        any_congested = true;
        break;
      }
    }
    double& mult = path_multiplier_[path.id.value()];
    mult = NextStepMultiplier(mult, any_congested, max_multiplier_);
  }

  steps->resource.resize(workload.resource_count());
  for (std::size_t r = 0; r < workload.resource_count(); ++r) {
    steps->resource[r] = gamma0_ * resource_multiplier_[r];
  }
  steps->path.resize(workload.path_count());
  for (std::size_t p = 0; p < workload.path_count(); ++p) {
    steps->path[p] = gamma0_ * path_multiplier_[p];
  }
}

void AdaptiveStepSize::SaveState(StepPolicyState* out) const {
  out->resource_multiplier = resource_multiplier_;
  out->path_multiplier = path_multiplier_;
}

void AdaptiveStepSize::LoadState(const StepPolicyState& in) {
  // Size mismatches fall back to the Reset() state (all 1.0) rather than
  // adopting misindexed multipliers; Update() rebuilds on mismatch anyway.
  if (in.resource_multiplier.size() == resource_multiplier_.size() &&
      in.path_multiplier.size() == path_multiplier_.size()) {
    resource_multiplier_ = in.resource_multiplier;
    path_multiplier_ = in.path_multiplier;
  }
}

std::string AdaptiveStepSize::Describe() const {
  std::ostringstream os;
  os << "adaptive(gamma0=" << gamma0_ << ", cap=" << max_multiplier_ << ")";
  return os.str();
}

DiminishingStepSize::DiminishingStepSize(double gamma0, double tau)
    : gamma0_(gamma0), tau_(tau) {
  RequirePositiveStepParameter(gamma0, "DiminishingStepSize", "gamma0");
  RequirePositiveStepParameter(tau, "DiminishingStepSize", "tau");
}

void DiminishingStepSize::Reset(const Workload& /*workload*/) {
  iteration_ = 0;
}

void DiminishingStepSize::Update(const Workload& workload,
                                 const std::vector<bool>& /*congested*/,
                                 StepSizes* steps) {
  const double gamma = gamma0_ / (1.0 + iteration_ / tau_);
  ++iteration_;
  steps->resource.assign(workload.resource_count(), gamma);
  steps->path.assign(workload.path_count(), gamma);
}

void DiminishingStepSize::SaveState(StepPolicyState* out) const {
  out->iteration = iteration_;
}

void DiminishingStepSize::LoadState(const StepPolicyState& in) {
  iteration_ = static_cast<int>(in.iteration);
}

std::string DiminishingStepSize::Describe() const {
  std::ostringstream os;
  os << "diminishing(gamma0=" << gamma0_ << ", tau=" << tau_ << ")";
  return os.str();
}

}  // namespace lla
