// Step-size policies for the gradient-projection price updates (Eqs. 8-9).
//
// The paper studies fixed step sizes (Figure 5: gamma = 0.1 converges
// slowly, 1 converges in ~500 iterations, 10 oscillates) and proposes an
// adaptive heuristic (Sec. 5.2): while a resource is congested, double its
// step size and the step sizes of all paths traversing it; revert to the
// initial value once it becomes uncongested.  A diminishing schedule
// (gamma_t = gamma0 / (1 + t/tau)) is included as the textbook
// convergence-guaranteed alternative.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "model/workload.h"

namespace lla {

/// Per-resource and per-path step sizes for one price update.
struct StepSizes {
  std::vector<double> resource;  ///< indexed by ResourceId
  std::vector<double> path;      ///< indexed by PathId
};

/// Serializable state of a step-size policy, for engine checkpoints
/// (DESIGN.md §7.7).  A policy only fills / reads the fields it owns:
/// adaptive uses the multiplier vectors, diminishing the iteration counter,
/// fixed nothing.
struct StepPolicyState {
  std::vector<double> resource_multiplier;
  std::vector<double> path_multiplier;
  std::int64_t iteration = 0;
};

class StepSizePolicy {
 public:
  virtual ~StepSizePolicy() = default;

  /// Clears internal state and sizes the output for `workload`.
  virtual void Reset(const Workload& workload) = 0;

  /// Computes the step sizes for the next price update.
  /// `resource_congested[r]` reports whether Eq. 3 is violated at the
  /// latencies just produced by latency allocation.
  virtual void Update(const Workload& workload,
                      const std::vector<bool>& resource_congested,
                      StepSizes* steps) = 0;

  /// Checkpoint hooks: SaveState writes the policy's mutable state into
  /// `out` (leaving foreign fields untouched); LoadState restores it.
  /// Stateless policies inherit the no-ops.  Call Reset() before LoadState
  /// so vectors not covered by the saved state are correctly sized.
  virtual void SaveState(StepPolicyState* out) const { (void)out; }
  virtual void LoadState(const StepPolicyState& in) { (void)in; }

  virtual std::string Describe() const = 0;
};

/// Constant gamma for all resources and paths.
class FixedStepSize final : public StepSizePolicy {
 public:
  explicit FixedStepSize(double gamma);
  void Reset(const Workload& workload) override;
  void Update(const Workload& workload,
              const std::vector<bool>& resource_congested,
              StepSizes* steps) override;
  std::string Describe() const override;

 private:
  double gamma_;
};

/// The paper's doubling heuristic.  `max_multiplier` caps the growth (the
/// paper does not cap, but an unschedulable workload — Figure 7 — keeps
/// resources congested indefinitely and an uncapped double overflows).
class AdaptiveStepSize final : public StepSizePolicy {
 public:
  explicit AdaptiveStepSize(double gamma0, double max_multiplier = 8.0);
  void Reset(const Workload& workload) override;
  void Update(const Workload& workload,
              const std::vector<bool>& resource_congested,
              StepSizes* steps) override;
  void SaveState(StepPolicyState* out) const override;
  void LoadState(const StepPolicyState& in) override;
  std::string Describe() const override;

 private:
  double gamma0_;
  double max_multiplier_;
  std::vector<double> resource_multiplier_;
  std::vector<double> path_multiplier_;
};

/// gamma_t = gamma0 / (1 + t / tau): satisfies the diminishing-step
/// conditions under which dual subgradient methods provably converge.
class DiminishingStepSize final : public StepSizePolicy {
 public:
  DiminishingStepSize(double gamma0, double tau);
  void Reset(const Workload& workload) override;
  void Update(const Workload& workload,
              const std::vector<bool>& resource_congested,
              StepSizes* steps) override;
  void SaveState(StepPolicyState* out) const override;
  void LoadState(const StepPolicyState& in) override;
  std::string Describe() const override;

 private:
  double gamma0_;
  double tau_;
  int iteration_ = 0;
};

/// The Sec. 5.2 doubling rule for one step-size multiplier: double while
/// congested, capped at `cap`, and revert to 1 as soon as uncongested.  The
/// engine's AdaptiveStepSize and the distributed agents all step their
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

/// Which policy an LlaConfig selects.
enum class StepPolicyKind { kFixed, kAdaptive, kDiminishing };

const char* ToString(StepPolicyKind kind);

}  // namespace lla
