// Price computation (paper Sec. 4.3): gradient projection on the dual.
//
//   mu_r     <- [ mu_r - gamma_r * (B_r - sum of shares at r) ]+        (Eq. 8)
//   lambda_p <- [ lambda_p - gamma_p * (1 - path latency / C_i) ]+      (Eq. 9)
//
// Prices rise while their constraint is violated and decay toward zero when
// it is slack; the projection at zero keeps them dual-feasible.
//
// Each update exists in two forms: the scalar form recomputes the share
// sums / path latencies from the assignment (reference oracle), and the
// array form consumes sums already computed into a StepWorkspace so the
// per-iteration sweep over the workload happens exactly once.  Both produce
// bit-identical prices.
#pragma once

#include <cstdint>
#include <vector>

#include "core/price_dynamics.h"
#include "core/prices.h"
#include "core/step_size.h"
#include "model/evaluation.h"
#include "model/latency_model.h"
#include "model/workload.h"

namespace lla {

/// Consecutive settled updates at exactly 0 before UpdateActive retires a
/// constraint.
inline constexpr std::uint32_t kRetireAfterEpochs = 3;

/// Dirty/quiescence state of the incremental price update (UpdateActive).
///
/// A constraint is RETIRED when its multiplier has sat clamped at exactly 0
/// for kRetireAfterEpochs consecutive computed updates; retired constraints
/// skip the gradient-projection arithmetic entirely until any input bit
/// changes.  The skip is exact and step-size independent: a computed update
/// that output 0 proves mu_prev - gamma * slack <= 0 with mu_prev >= 0,
/// hence slack >= 0; with the share sum (or path latency) bitwise unchanged,
/// max(0, 0 - gamma' * slack) == +0.0 for ANY gamma' >= 0.
struct ActivePriceState {
  bool primed = false;
  /// Last computed update for this constraint output exactly 0.0.
  std::vector<std::uint8_t> mu_settled;
  std::vector<std::uint8_t> lambda_settled;
  /// Consecutive updates (computed or skipped) with the multiplier at 0.
  std::vector<std::uint32_t> mu_zero_epochs;
  std::vector<std::uint32_t> lambda_zero_epochs;
  /// Inputs of the previous update, for exact (bitwise) change detection.
  std::vector<double> prev_share_sums;
  std::vector<double> prev_path_latencies;

  void Invalidate() { primed = false; }
};

/// Work/sparsity report of one UpdateActive call.
struct ActivePriceWork {
  std::size_t mu_updated = 0;
  std::size_t mu_skipped = 0;  ///< retired constraints (exact, at 0)
  std::size_t lambda_updated = 0;
  std::size_t lambda_skipped = 0;
  std::size_t mu_nonzero = 0;      ///< active-set size after the update
  std::size_t lambda_nonzero = 0;
};

class PriceUpdater {
 public:
  PriceUpdater(const Workload& workload, const LatencyModel& model);

  /// Applies Eq. 8 to every resource price.
  void UpdateResourcePrices(const Assignment& latencies,
                            const StepSizes& steps, PriceVector* prices) const;

  /// Applies Eq. 9 to every path price.
  void UpdatePathPrices(const Assignment& latencies, const StepSizes& steps,
                        PriceVector* prices) const;

  /// Both updates (scalar form: re-evaluates the workload).
  void Update(const Assignment& latencies, const StepSizes& steps,
              PriceVector* prices) const;

  /// Both updates from precomputed per-resource share sums and per-path
  /// latencies (as filled by FillStepWorkspace) — no workload re-walk.
  ///
  /// Every multiplier moves by StepComponentDynamics under `dynamics`
  /// (price_dynamics.h).  Momentum kinds read and write one
  /// ComponentDynamicsState per multiplier, `(*mu_state)[r]` and
  /// `(*lambda_state)[p]`, and count adaptive restarts into `*restarts`;
  /// plain dynamics keep no state, so plain callers pass empty vectors.
  void Update(const std::vector<double>& resource_share_sums,
              const std::vector<double>& path_latencies,
              const StepSizes& steps, const DynamicsConfig& dynamics,
              std::vector<ComponentDynamicsState>* mu_state,
              std::vector<ComponentDynamicsState>* lambda_state,
              std::uint64_t* restarts, PriceVector* prices) const;

  /// The array-form Update with retirement: the written prices and
  /// dynamics state are bit-identical to Update() for every constraint.
  /// Non-retired constraints run the same step, and retired ones skip a
  /// step proven to leave them at +0.0 (see ActivePriceState).  Retirement
  /// keys off StepComponentDynamics' `settled` bit, which certifies the
  /// component's whole dynamics state (value AND velocity) is at the
  /// absorbing zero — that is what keeps sparse and dense momentum
  /// trajectories bit-identical.
  ActivePriceWork UpdateActive(
      const std::vector<double>& resource_share_sums,
      const std::vector<double>& path_latencies, const StepSizes& steps,
      const DynamicsConfig& dynamics,
      std::vector<ComponentDynamicsState>* mu_state,
      std::vector<ComponentDynamicsState>* lambda_state,
      std::uint64_t* restarts, PriceVector* prices,
      ActivePriceState* state) const;

  /// True for every resource whose share sum exceeds its capacity at the
  /// given latencies (the congestion signal the adaptive policy consumes).
  std::vector<bool> ResourceCongestion(const Assignment& latencies) const;

  /// Allocation-free variant: writes into `congested` (resized to
  /// resource_count); reuse the buffer across iterations.
  void ResourceCongestion(const Assignment& latencies,
                          std::vector<bool>* congested) const;

 private:
  const Workload* workload_;
  const LatencyModel* model_;
};

}  // namespace lla
