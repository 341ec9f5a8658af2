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

class PriceUpdater {
 public:
  PriceUpdater(const Workload& workload, const LatencyModel& model);

  /// Applies Eq. 8 to every resource price.
  void UpdateResourcePrices(const Assignment& latencies,
                            const StepSchedule& steps,
                            PriceVector* prices) const;

  /// Applies Eq. 9 to every path price.
  void UpdatePathPrices(const Assignment& latencies, const StepSchedule& steps,
                        PriceVector* prices) const;

  /// Both updates (scalar form: re-evaluates the workload).
  void Update(const Assignment& latencies, const StepSchedule& steps,
              PriceVector* prices) const;

  /// Both updates from precomputed per-resource share sums and per-path
  /// latencies (as filled by FillStepWorkspace) — no workload re-walk.
  /// The engine's only price update.
  ///
  /// Every multiplier moves by StepComponentDynamics under `dynamics`
  /// (price_dynamics.h).  Momentum kinds read and write one
  /// ComponentDynamicsState per multiplier, `(*mu_state)[r]` and
  /// `(*lambda_state)[p]`, and count adaptive restarts into `*restarts`;
  /// plain dynamics keep no state, so plain callers pass empty vectors.
  void Update(const std::vector<double>& resource_share_sums,
              const std::vector<double>& path_latencies,
              const StepSchedule& steps, const DynamicsConfig& dynamics,
              std::vector<ComponentDynamicsState>* mu_state,
              std::vector<ComponentDynamicsState>* lambda_state,
              std::uint64_t* restarts, PriceVector* prices) const;

  /// True for every resource whose share sum exceeds its capacity at the
  /// given latencies (the congestion signal the adaptive schedule consumes;
  /// the engine reads it from its StepWorkspace instead).
  std::vector<bool> ResourceCongestion(const Assignment& latencies) const;

 private:
  const Workload* workload_;
  const LatencyModel* model_;
};

}  // namespace lla
