// Accelerated first-order dynamics for the Eq. 8-9 projected dual updates.
//
// The plain gradient-projection price update moves each multiplier by
// gamma * gradient and projects at zero.  Accelerated Distributed Allocation
// (arXiv:2401.15598) and Momentum-based Distributed Resource Scheduling
// (arXiv:2503.06167) show that the same distributed allocation dynamics
// converge in a fraction of the iterations when augmented with a momentum
// term.  This file defines the one projected step every price holder takes
// — the engine's PriceUpdater and the distributed shard agents alike — for
// each variant, composed with any step schedule (the step sizes gamma stay
// per-resource / per-path and per-iteration, chosen by core/step_size.h):
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
//     (and Nesterov base iterate) is forced to exactly +0.0 and its ramp
//     restarts, so a component parked at the projection boundary holds
//     exactly the state ReseedAt(0) gives a fresh one.  Without it a parked
//     heavy-ball multiplier would keep integrating a negative velocity the
//     projection swallows, and the first violated step after it would be
//     counted as a restart.  With the clamp, (0, 0, 0) is a fixed point of
//     every step whose slack is >= 0, whatever the step size, so the price
//     update can walk every component every step without a parked one's
//     hidden state drifting.
//
// With beta = 0 every variant reduces to the plain update bit-for-bit
// (0*v contributes a signed zero that IEEE addition absorbs), which is the
// regression anchor price_dynamics_test pins by memcmp.
#pragma once

#include <algorithm>
#include <cstdint>

namespace lla {

enum class DynamicsKind { kPlain, kHeavyBall, kNesterov };

const char* ToString(DynamicsKind kind);

/// Price-dynamics selection an LlaConfig or CoordinatorConfig carries.
struct DynamicsConfig {
  DynamicsKind kind = DynamicsKind::kPlain;
  /// Momentum coefficient beta in [0, 1).  0 is exactly the plain dynamics.
  double momentum = 0.9;
};

/// Aborts with a message naming `owner`, in every build mode, unless
/// `config.momentum` is finite and in [0, 1).  LlaEngine and Coordinator
/// call it from their constructors: a NaN beta would poison every velocity
/// and pin every multiplier at 0, and beta >= 1 makes the velocity
/// recursion unstable.
void ValidateDynamicsConfig(const DynamicsConfig& config, const char* owner);

/// Momentum state of ONE dual component.  The engine keeps one per mu and
/// per lambda, a shard agent one per hosted resource (DESIGN.md §7.12);
/// plain dynamics keep none.  Zero-initialized state is exactly "fresh
/// momentum": no velocity, no ramp credit, base at the projection boundary.
/// Whenever the published value is re-seeded from outside the dynamics
/// (reset, repair adoption, snapshot restore without momentum fields), call
/// ReseedAt(value) so the Nesterov base tracks the published point instead
/// of replaying a stale extrapolation.
struct ComponentDynamicsState {
  double velocity = 0.0;
  /// Nesterov base iterate x (unused by plain/heavy-ball).
  double base = 0.0;
  /// Steps since this component's last restart (the ramp clock t; a small
  /// integer stored as a double so it shares the f64 snapshot sections).
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

namespace internal {
/// The heavy-ball and Nesterov cases of StepComponentDynamics.  Out of line
/// so the plain case stays a few inline instructions at every call site;
/// call StepComponentDynamics, never this.
double StepAcceleratedDynamics(const DynamicsConfig& config,
                               ComponentDynamicsState* state, double value,
                               double gamma, double slack,
                               std::uint64_t* restarts);
}  // namespace internal

/// The projected Eq. 8/9 step on one component: the only definition of the
/// price move in the tree.  `value` is the published multiplier, `gamma` the
/// step size the step schedule chose and `slack` the constraint slack
/// (positive = satisfied), so the ascent gradient is -slack.  Returns the
/// projected published multiplier.  Momentum kinds read and write
/// `*state`; plain dynamics never touch it, so plain callers may pass null.
/// `restarts` (nullable) is incremented on each adaptive restart.  The
/// plain case compiles inline to the bare max(0, value - gamma * slack);
/// every other rule is one case of internal::StepAcceleratedDynamics.
inline double StepComponentDynamics(const DynamicsConfig& config,
                                    ComponentDynamicsState* state,
                                    double value, double gamma, double slack,
                                    std::uint64_t* restarts) {
  if (config.kind != DynamicsKind::kPlain) {
    return internal::StepAcceleratedDynamics(config, state, value, gamma,
                                             slack, restarts);
  }
  return std::max(0.0, value - gamma * slack);
}

}  // namespace lla
