// The step size gamma of the gradient-projection price updates (Eqs. 8-9).
//
// The paper studies fixed step sizes (Figure 5: gamma = 0.1 converges
// slowly, 1 converges in ~500 iterations, 10 oscillates) and proposes an
// adaptive heuristic (Sec. 5.2): while a resource is congested, double its
// step size and the step sizes of all paths traversing it; revert to the
// initial value once it becomes uncongested.  A diminishing schedule
// (gamma_t = gamma0 / (1 + t/tau)) is included as the textbook
// convergence-guaranteed alternative.  All three only choose gamma; how a
// price moves by it is core/price_dynamics.h.  StepSchedule is the one rule
// of both backends: the engine advances its schedule once per step, the
// distributed agents their components of one shared schedule (DESIGN.md
// §7.12).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "model/workload.h"

namespace lla {

/// Which schedule an LlaConfig selects.
enum class StepPolicyKind { kFixed, kAdaptive, kDiminishing };

const char* ToString(StepPolicyKind kind);

/// The defaults of LlaConfig's doubling cap and diminishing tau; the
/// distributed deployment's schedule runs with them too.
inline constexpr double kDefaultStepMultiplierCap = 8.0;
inline constexpr double kDefaultDiminishingTau = 50.0;

/// The step sizes of one optimizer, as a value.  Component c (a resource or
/// a path) steps gamma_t * m_c, or gamma_t alone when the schedule keeps no
/// multipliers, which only adaptive does:
///   fixed        gamma_t = gamma0;
///   adaptive     gamma_t = gamma0, and each m_c doubles while congested,
///                capped at `cap`, and reverts to 1 as soon as it is not (a
///                path is congested while any resource it crosses is);
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
  /// flags of the latencies just allocated: the diminishing tick, then
  /// AdvanceResource and AdvancePath on every component.  Aborts in every
  /// build mode when `workload` is not the shape the last Reset() sized the
  /// multipliers for.
  void Advance(const Workload& workload,
               const std::vector<bool>& resource_congested);

  /// The per-component form: the doubling rule on one multiplier, a reset
  /// of it to 1, or the adoption of a checkpointed value.  No-ops for kinds
  /// that keep no multipliers; none touches gamma_t or t, so lanes may call
  /// them concurrently on disjoint components.
  void AdvanceResource(std::size_t r, bool congested) {
    if (resource_multiplier_.empty()) return;
    resource_multiplier_[r] = NextMultiplier(resource_multiplier_[r], congested);
  }
  void AdvancePath(std::size_t p, bool congested) {
    if (path_multiplier_.empty()) return;
    path_multiplier_[p] = NextMultiplier(path_multiplier_[p], congested);
  }
  void ResetResource(std::size_t r) { AdoptResource(r, 1.0); }
  void ResetPath(std::size_t p) { AdoptPath(p, 1.0); }
  void AdoptResource(std::size_t r, double multiplier) {
    if (!resource_multiplier_.empty()) resource_multiplier_[r] = multiplier;
  }
  void AdoptPath(std::size_t p, double multiplier) {
    if (!path_multiplier_.empty()) path_multiplier_[p] = multiplier;
  }

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
  /// The Sec. 5.2 doubling rule for one multiplier: double while congested,
  /// capped at cap_, and revert to 1 as soon as uncongested.
  double NextMultiplier(double multiplier, bool congested) const {
    return congested ? std::min(multiplier * 2.0, cap_) : 1.0;
  }

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
