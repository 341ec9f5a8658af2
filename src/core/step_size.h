// The step size gamma of the gradient-projection price updates (Eqs. 8-9).
//
// The paper studies fixed step sizes (Figure 5: gamma = 0.1 converges
// slowly, 1 converges in ~500 iterations, 10 oscillates) and proposes an
// adaptive heuristic (Sec. 5.2): while a resource is congested, double its
// step size and the step sizes of all paths traversing it; revert to the
// initial value once it becomes uncongested.  A diminishing schedule
// (gamma_t = gamma0 / (1 + t/tau)) is included as the textbook
// convergence-guaranteed alternative.  All three only choose gamma; how a
// price moves by it is core/price_dynamics.h.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "model/workload.h"

namespace lla {

/// Which schedule an LlaConfig selects.
enum class StepPolicyKind { kFixed, kAdaptive, kDiminishing };

const char* ToString(StepPolicyKind kind);

/// The Sec. 5.2 doubling rule for one step-size multiplier: double while
/// congested, capped at `cap`, and revert to 1 as soon as uncongested.  The
/// engine's StepSchedule and the distributed agents all step their
/// multipliers through this one definition.
inline double NextStepMultiplier(double multiplier, bool congested,
                                 double cap) {
  return congested ? std::min(multiplier * 2.0, cap) : 1.0;
}

/// Range checks on step parameters, in every build mode: each aborts with a
/// message naming `owner` and `name` unless `value` is finite and > 0 (a
/// step, tau) or finite and >= 1 (a doubling cap).
void RequirePositiveStepParameter(double value, const char* owner,
                                  const char* name);
void RequireStepMultiplierCap(double value, const char* owner,
                              const char* name);

/// The step sizes of one engine, as a value.  Component c (a resource or a
/// path) steps gamma_t * m_c, or gamma_t alone when the schedule keeps no
/// multipliers, which only adaptive does:
///   fixed        gamma_t = gamma0;
///   adaptive     gamma_t = gamma0, and each m_c moves by NextStepMultiplier
///                (a path is congested while any resource it crosses is);
///   diminishing  gamma_t = gamma0 / (1 + t / tau), t counting Advance calls.
class StepSchedule {
 public:
  /// Aborts, naming `owner`, in every build mode unless gamma0 and tau are
  /// finite and > 0 and cap is finite and >= 1, whatever `kind` selects.
  StepSchedule(StepPolicyKind kind, double gamma0, double cap, double tau,
               const char* owner = "StepSchedule");

  /// Back to t = 0 for `workload`: adaptive multipliers all 1, counter 0.
  void Reset(const Workload& workload);

  /// Chooses the steps of the next price update from the Eq. 3 congestion
  /// flags of the latencies just allocated.  Aborts in every build mode when
  /// `workload` is not the shape the last Reset() sized the multipliers for.
  void Advance(const Workload& workload,
               const std::vector<bool>& resource_congested);

  double resource_step(std::size_t r) const {
    return resource_multiplier_.empty() ? gamma_
                                        : gamma_ * resource_multiplier_[r];
  }
  double path_step(std::size_t p) const {
    return path_multiplier_.empty() ? gamma_ : gamma_ * path_multiplier_[p];
  }

  /// The checkpointed state (DESIGN.md §7.7): the multipliers (empty unless
  /// adaptive) and the counter (0 unless diminishing).
  const std::vector<double>& resource_multiplier() const {
    return resource_multiplier_;
  }
  const std::vector<double>& path_multiplier() const {
    return path_multiplier_;
  }
  std::int64_t iteration() const { return iteration_; }

  /// Adopts checkpointed state after Reset(), keeping only what this kind
  /// saves: adaptive takes the multipliers when both vectors fit, diminishing
  /// the counter (>= 0), fixed nothing.
  void Adopt(std::vector<double> resource_multiplier,
             std::vector<double> path_multiplier, std::int64_t iteration);

 private:
  StepPolicyKind kind_;
  double gamma0_;
  double cap_;
  double tau_;
  double gamma_;
  std::vector<double> resource_multiplier_;
  std::vector<double> path_multiplier_;
  std::int64_t iteration_ = 0;
};

}  // namespace lla
