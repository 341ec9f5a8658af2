#include "core/price_dynamics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace lla {

const char* ToString(DynamicsKind kind) {
  switch (kind) {
    case DynamicsKind::kPlain:
      return "plain";
    case DynamicsKind::kHeavyBall:
      return "heavy-ball";
    case DynamicsKind::kNesterov:
      return "nesterov";
  }
  return "?";
}

void ValidateDynamicsConfig(const DynamicsConfig& config, const char* owner) {
  // Written so that NaN fails too: every comparison with NaN is false.
  if (!(config.momentum >= 0.0 && config.momentum < 1.0)) {
    std::fprintf(stderr,
                 "%s: dynamics momentum %g is outside [0, 1) (a NaN or "
                 "out-of-range beta would poison or destabilize every "
                 "velocity)\n",
                 owner, config.momentum);
    std::abort();
  }
}

namespace internal {

double StepAcceleratedDynamics(const DynamicsConfig& config,
                               ComponentDynamicsState* state, double value,
                               double gamma, double slack,
                               std::uint64_t* restarts) {
  // Ascent gradient of the dual in this component (Eq. 8/9 move the price
  // up while its constraint is violated, i.e. while slack < 0).
  const double g = -slack;
  switch (config.kind) {
    case DynamicsKind::kPlain:
      break;
    case DynamicsKind::kHeavyBall: {
      double v = state->velocity;
      double t = state->phase;
      if (v * g < 0.0) {
        // Momentum points against the current gradient: built-up velocity
        // would carry the multiplier uphill.  Drop it and restart the ramp
        // (gradient restart).
        v = 0.0;
        t = 0.0;
        if (restarts != nullptr) ++*restarts;
      }
      // The ramp (price_dynamics.h): momentum re-earns its coefficient
      // after every restart, so a component in an overshoot/restart cycle
      // near the optimum runs nearly plain while a long monotone crawl gets
      // the full beta.
      const double beta_t = std::min(config.momentum, t / (t + 3.0));
      v = beta_t * v + gamma * g;
      const double proposed = std::max(0.0, value + v);
      // Zero-clamp: a multiplier parked at the projection boundary carries
      // no velocity and no ramp credit (price_dynamics.h).
      if (proposed == 0.0) {
        v = 0.0;
        t = 0.0;
      } else {
        t += 1.0;
      }
      state->velocity = v;
      state->phase = t;
      return proposed;
    }
    case DynamicsKind::kNesterov: {
      // `value` is the extrapolated point y the last step published; the
      // solve that produced `slack` evaluated the gradient THERE, so this is
      // the real Nesterov scheme, not a lookahead approximation.
      double t = state->phase;
      const double x_new = std::max(0.0, value + gamma * g);
      double v = x_new - state->base;
      if (x_new == 0.0) v = 0.0;  // zero-clamp, as in heavy-ball
      if (v * g < 0.0) {
        // The freshly realized step opposes the gradient at the
        // extrapolated point: overshoot.  Publish the un-extrapolated
        // iterate and restart the ramp.
        v = 0.0;
        t = 0.0;
        if (restarts != nullptr) ++*restarts;
      }
      // Same ramp as heavy-ball.
      const double beta_t = std::min(config.momentum, t / (t + 3.0));
      const double y_new = std::max(0.0, x_new + beta_t * v);
      state->base = x_new;
      state->velocity = v;
      if (x_new == 0.0) {
        t = 0.0;  // zero-clamp the ramp, as for the velocity
      } else {
        t += 1.0;
      }
      state->phase = t;
      return y_new;
    }
  }
  // StepComponentDynamics steps kPlain inline and never sends it here.
  return StepComponentDynamics(config, state, value, gamma, slack, restarts);
}

}  // namespace internal

}  // namespace lla
