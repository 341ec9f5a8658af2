// Accelerated first-order dynamics for the Eq. 8-9 projected dual updates.
//
// The plain gradient-projection price update moves each multiplier by
// gamma * gradient and projects at zero.  Accelerated Distributed Allocation
// (arXiv:2401.15598) and Momentum-based Distributed Resource Scheduling
// (arXiv:2503.06167) show that the same distributed allocation dynamics
// converge in a fraction of the iterations when augmented with a momentum
// term; this file provides those variants as pluggable policies the engine
// composes with any StepSizePolicy (the step sizes gamma stay per-resource /
// per-path and per-iteration, chosen exactly as before):
//
//   plain       mu <- [mu + gamma*g]+                       (g = -slack)
//   heavy-ball  v  <- beta*v + gamma*g;  mu <- [mu + v]+
//   Nesterov    x' <- [y + gamma*g]+;  v <- x' - x;
//               y' <- [x' + beta*v]+                        (published = y)
//
// The dual function here is nonsmooth (the latency allocation is a
// projection onto box constraints) and the iterates are themselves
// projected at zero, so raw momentum can overshoot and oscillate the way
// Figure 5's gamma=10 run does.  Two guards make acceleration safe:
//
//   * Adaptive restart (O'Donoghue-Candes gradient restart, per component):
//     when the momentum direction opposes the current gradient (v*g < 0)
//     the velocity is reset to zero, so built-up momentum can never carry a
//     multiplier uphill for more than one step.  A restart also resets the
//     component's momentum RAMP: the coefficient actually applied is
//     beta_t = min(beta, t / (t + 3)) with t the steps since that
//     component's last restart.  Far from the optimum the iterates travel
//     monotonically, t grows, and the full beta drives the acceleration;
//     near the optimum (a warm restart after a small perturbation) the
//     overshoot/restart cycle pins t — and with it the effective momentum —
//     low, so the dynamics degrade gracefully into the plain update instead
//     of ringing at the sqrt(beta)-per-step envelope fixed-beta momentum
//     settles at.  Without the ramp a beta=0.9 warm restart takes ~12x the
//     plain iteration count on the paper workload; with it, parity.
//   * Zero-clamp: whenever a multiplier projects to exactly 0, its velocity
//     (and Nesterov base iterate) is forced to exactly +0.0.  This keeps
//     the absorbing state of the active-set retirement proof intact: a
//     settled multiplier is (value=0, velocity=0, base=0), from which a
//     computed update with unchanged inputs returns the same state for ANY
//     step size — so retired constraints can skip the arithmetic and the
//     sparse trajectory stays bit-identical to the dense one.
//
// With beta = 0 every variant reduces to the plain update bit-for-bit
// (0*v contributes a signed zero that IEEE addition absorbs), which is the
// regression anchor price_dynamics_test pins by memcmp.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/prices.h"
#include "model/workload.h"

namespace lla {

/// Which dual space a component index addresses.
enum class DualSpace { kResource, kPath };

enum class DynamicsKind { kPlain, kHeavyBall, kNesterov };

const char* ToString(DynamicsKind kind);

/// Price-dynamics selection an LlaConfig carries.
struct DynamicsConfig {
  DynamicsKind kind = DynamicsKind::kPlain;
  /// Momentum coefficient beta in [0, 1).  0 is exactly the plain dynamics.
  double momentum = 0.9;
  /// Reset a component's velocity (and momentum ramp) when it opposes the
  /// current gradient.  Disabling this also disables the ramp — pure
  /// fixed-beta momentum, for experiments only: under projection,
  /// unrestarted momentum can diverge the way Figure 5's large fixed steps
  /// do.
  bool adaptive_restart = true;
};

/// Serializable state of a dynamics policy, for engine checkpoints
/// (StateSnapshot).  A policy only fills / reads the fields it owns: plain
/// nothing, heavy-ball velocities + ramp phases, Nesterov those + base
/// iterates.  Phases are per-component steps-since-restart counters (small
/// integers stored as doubles so they share the f64 snapshot sections).
/// `restarts` is the cumulative adaptive-restart count.
struct DynamicsPolicyState {
  std::vector<double> mu_velocity;
  std::vector<double> lambda_velocity;
  std::vector<double> mu_base;
  std::vector<double> lambda_base;
  std::vector<double> mu_phase;
  std::vector<double> lambda_phase;
  std::uint64_t restarts = 0;
};

/// Result of one per-component dynamics step.
struct DynamicsStep {
  /// The projected published multiplier.
  double value = 0.0;
  /// True when the component's whole state (published value, velocity and,
  /// for Nesterov, the base iterate) is at the absorbing zero — the
  /// precondition for active-set retirement.
  bool settled = false;
};

/// Momentum state of ONE dual component, for holders that own their
/// components individually rather than as workload-wide vectors — the
/// distributed shard agents (DESIGN.md §7.12), where velocity lives per
/// hosted resource.  Zero-initialized state
/// is exactly "fresh momentum": no velocity, no ramp credit, base at the
/// projection boundary.  Whenever the published value is re-seeded from
/// outside the dynamics (repair adoption, snapshot restore without momentum
/// fields), call ReseedAt(value) so the Nesterov base tracks the published
/// point instead of replaying a stale extrapolation.
struct ComponentDynamicsState {
  double velocity = 0.0;
  /// Nesterov base iterate x (unused by plain/heavy-ball).
  double base = 0.0;
  /// Steps since this component's last restart (the ramp clock t).
  double phase = 0.0;

  /// Drops momentum and re-bases at `value`: the state a component has right
  /// after a restart at that published point.
  void ReseedAt(double value) {
    velocity = 0.0;
    base = value;
    phase = 0.0;
  }
  /// Drops momentum without touching the base: the gradient stream became
  /// discontinuous (e.g. a peer's incarnation-stale traffic was rejected),
  /// so built-up velocity must not be replayed into the next gradient.
  void DropMomentum() {
    velocity = 0.0;
    phase = 0.0;
  }
};

/// One projected dual step on a single component, operation-for-operation
/// identical to the corresponding PriceDynamicsPolicy::Step — the vector
/// policies below are implemented ON these functions, so the engine and the
/// distributed agents share one arithmetic definition and beta = 0 heavy-ball
/// stays bit-identical to plain in both deployments.  `restarts` (nullable)
/// is incremented on each adaptive restart.
DynamicsStep StepComponentDynamics(const DynamicsConfig& config,
                                   ComponentDynamicsState* state, double value,
                                   double gamma, double slack,
                                   std::uint64_t* restarts);

/// The heavy-ball arithmetic on raw velocity/phase slots (the vector policy
/// passes &velocity_[i]).
DynamicsStep HeavyBallComponentStep(double beta, bool adaptive_restart,
                                    double value, double gamma, double slack,
                                    double* velocity, double* phase,
                                    std::uint64_t* restarts);

/// The Nesterov two-sequence arithmetic on raw velocity/base/phase slots.
DynamicsStep NesterovComponentStep(double beta, bool adaptive_restart,
                                   double value, double gamma, double slack,
                                   double* velocity, double* base,
                                   double* phase, std::uint64_t* restarts);

/// One accelerated variant of the projected dual update.  The policy owns
/// the per-resource mu and per-path lambda velocity vectors; PriceUpdater
/// calls Step() once per computed (non-retired) component, passing the
/// current published (or, under epsilon-quiescence, shadow) value, the step
/// size the StepSizePolicy chose, and the Eq. 8/9 constraint slack.
///
/// Policies are deterministic and single-threaded by contract: the price
/// update runs serially after the fused parallel solve, so velocity state
/// needs no synchronization and results are bit-identical at any engine
/// thread count.
class PriceDynamicsPolicy {
 public:
  virtual ~PriceDynamicsPolicy() = default;

  virtual DynamicsKind kind() const = 0;
  /// The configured momentum coefficient (0 for plain).
  virtual double beta() const { return 0.0; }

  /// Zeroes velocities and sizes state for `workload`; `prices` seeds the
  /// Nesterov base iterate (before any momentum the published vector IS the
  /// base).  Call whenever the engine's dual state is (re)initialized —
  /// Reset, WarmStart, Restore.
  virtual void Reset(const Workload& workload, const PriceVector& prices) = 0;

  /// Applies one projected dual step to component `i` of `space`.  `slack`
  /// follows the Eq. 8/9 sign convention (positive = constraint satisfied),
  /// so the ascent gradient is -slack.
  virtual DynamicsStep Step(DualSpace space, std::size_t i, double value,
                            double gamma, double slack) = 0;

  /// Cumulative adaptive restarts since construction / LoadState.  The
  /// engine differences this across a Step() to report per-iteration
  /// restarts in traces and metrics.
  std::uint64_t total_restarts() const { return total_restarts_; }

  /// Checkpoint hooks, mirroring StepSizePolicy: SaveState writes only the
  /// fields this policy owns; LoadState adopts matching-size vectors and
  /// keeps the Reset() state otherwise (so a foreign-policy snapshot, or one
  /// without dynamics sections, restores with fresh momentum instead of
  /// misindexed velocities).
  virtual void SaveState(DynamicsPolicyState* out) const;
  virtual void LoadState(const DynamicsPolicyState& in);

  virtual std::string Describe() const = 0;

 protected:
  std::uint64_t total_restarts_ = 0;
};

/// The unaccelerated Eq. 8/9 update, stateless.  Exists so the policy API is
/// total; the engine short-circuits this kind to the original inline
/// arithmetic (bit-identical either way — pinned by price_dynamics_test).
class PlainDynamics final : public PriceDynamicsPolicy {
 public:
  DynamicsKind kind() const override { return DynamicsKind::kPlain; }
  void Reset(const Workload& workload, const PriceVector& prices) override;
  DynamicsStep Step(DualSpace space, std::size_t i, double value,
                    double gamma, double slack) override;
  std::string Describe() const override;
};

/// Polyak heavy-ball: v <- beta*v + gamma*g, value <- [value + v]+.  Under a
/// persistently violated constraint (Figure 7's unschedulable workload) the
/// velocity converges to gamma*g/(1-beta) — bounded, so an unschedulable
/// run grows prices linearly like the plain dynamics and never overflows
/// (the same rationale as AdaptiveStepSize's max_multiplier cap).
class HeavyBallDynamics final : public PriceDynamicsPolicy {
 public:
  HeavyBallDynamics(double beta, bool adaptive_restart);
  DynamicsKind kind() const override { return DynamicsKind::kHeavyBall; }
  double beta() const override { return beta_; }
  void Reset(const Workload& workload, const PriceVector& prices) override;
  DynamicsStep Step(DualSpace space, std::size_t i, double value,
                    double gamma, double slack) override;
  void SaveState(DynamicsPolicyState* out) const override;
  void LoadState(const DynamicsPolicyState& in) override;
  std::string Describe() const override;

 private:
  double beta_;
  bool adaptive_restart_;
  std::vector<double> mu_velocity_;
  std::vector<double> lambda_velocity_;
  std::vector<double> mu_phase_;
  std::vector<double> lambda_phase_;
};

/// Nesterov acceleration in its projected two-sequence form.  The PUBLISHED
/// multiplier is the extrapolated point y (the next solve evaluates the
/// gradient there, which is what distinguishes Nesterov from heavy-ball);
/// the base iterate x lives inside the policy.
class NesterovDynamics final : public PriceDynamicsPolicy {
 public:
  NesterovDynamics(double beta, bool adaptive_restart);
  DynamicsKind kind() const override { return DynamicsKind::kNesterov; }
  double beta() const override { return beta_; }
  void Reset(const Workload& workload, const PriceVector& prices) override;
  DynamicsStep Step(DualSpace space, std::size_t i, double value,
                    double gamma, double slack) override;
  void SaveState(DynamicsPolicyState* out) const override;
  void LoadState(const DynamicsPolicyState& in) override;
  std::string Describe() const override;

 private:
  double beta_;
  bool adaptive_restart_;
  std::vector<double> mu_velocity_;
  std::vector<double> lambda_velocity_;
  std::vector<double> mu_base_;
  std::vector<double> lambda_base_;
  std::vector<double> mu_phase_;
  std::vector<double> lambda_phase_;
};

/// Builds the dynamics policy a DynamicsConfig describes.
std::unique_ptr<PriceDynamicsPolicy> MakeDynamicsPolicy(
    const DynamicsConfig& config);

}  // namespace lla
