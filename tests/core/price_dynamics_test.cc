// StepComponentDynamics (DESIGN.md §7.8): accelerated dual dynamics.
//
// The anchors:
//   * beta = 0 reduces every accelerated variant to the plain dynamics
//     bit-for-bit (memcmp on prices and latencies, every step);
//   * the adaptive restart rule actually fires on an oscillating run
//     (large fixed step sizes, the Figure 5 regime);
//   * an unschedulable workload (Figure 7) does not overflow or NaN under
//     momentum — velocity is bounded by gamma*|g|/(1-beta), mirroring the
//     adaptive schedule's multiplier cap rationale;
//   * a component that projects to zero carries exactly zero velocity, the
//     state of a fresh component at zero;
//   * a NaN or out-of-range beta is refused loudly in every build mode.
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/price_dynamics.h"
#include "obs/trace.h"
#include "workloads/paper.h"

namespace lla {
namespace {

LlaConfig MakeConfig(DynamicsKind kind, double beta, bool active,
                     int num_threads) {
  LlaConfig config;
  config.step_policy = StepPolicyKind::kAdaptive;
  config.gamma0 = 3.0;
  config.record_history = false;
  config.num_threads = num_threads;
  config.parallel.max_concurrency = num_threads;
  config.parallel.min_items_per_thread = 1;
  config.active_set.enabled = active;
  config.dynamics.kind = kind;
  config.dynamics.momentum = beta;
  return config;
}

void ExpectSamePrices(const PriceVector& a, const PriceVector& b, int step,
                      const char* label) {
  ASSERT_EQ(
      std::memcmp(a.mu.data(), b.mu.data(), a.mu.size() * sizeof(double)), 0)
      << label << ": mu diverges at step " << step;
  ASSERT_EQ(std::memcmp(a.lambda.data(), b.lambda.data(),
                        a.lambda.size() * sizeof(double)),
            0)
      << label << ": lambda diverges at step " << step;
}

// beta = 0 must run the plain trajectory bit-for-bit: 0 * v contributes a
// signed zero IEEE addition absorbs, and max(0.0, x) normalizes -0.  This is
// the regression anchor that proves the dynamics layer rewrites nothing
// when momentum is off.
TEST(PriceDynamicsTest, BetaZeroIsBitIdenticalToPlain) {
  auto workload = MakeScaledSimWorkload(1, /*scale_critical_times=*/true);
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);
  for (const DynamicsKind kind :
       {DynamicsKind::kHeavyBall, DynamicsKind::kNesterov}) {
    for (const bool active : {false, true}) {
      LlaEngine plain(w, model,
                      MakeConfig(DynamicsKind::kPlain, 0.0, active, 1));
      LlaEngine accel(w, model, MakeConfig(kind, 0.0, active, 1));
      for (int step = 0; step < 200; ++step) {
        plain.Step();
        accel.Step();
        ExpectSamePrices(plain.prices(), accel.prices(), step,
                         ToString(kind));
        const Assignment& a = plain.latencies();
        const Assignment& b = accel.latencies();
        ASSERT_EQ(
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
            << ToString(kind) << ": latencies diverge at step " << step;
      }
      // (Restarts may still fire at beta = 0 — the stored "velocity" is
      // last step's gamma * g, and the guard compares it against the new
      // gradient — but resetting a velocity that beta = 0 is about to
      // multiply away cannot perturb the trajectory, which is the claim the
      // memcmp above pins.)
    }
  }
}

// Large fixed steps oscillate (the Figure 5 gamma = 10 regime); momentum on
// top of that MUST trip the gradient-restart guard, or built-up velocity
// would amplify the oscillation instead of damping it.
TEST(PriceDynamicsTest, RestartFiresUnderOscillation) {
  auto workload = MakeScaledSimWorkload(1, /*scale_critical_times=*/true);
  ASSERT_TRUE(workload.ok()) << workload.error();
  LatencyModel model(workload.value());
  LlaConfig config = MakeConfig(DynamicsKind::kHeavyBall, 0.9, true, 1);
  config.step_policy = StepPolicyKind::kFixed;
  config.gamma0 = 10.0;
  LlaEngine engine(workload.value(), model, config);
  for (int i = 0; i < 300; ++i) engine.Step();
  EXPECT_GT(engine.momentum_restarts(), 0u);
}

// Figure 7's unschedulable workload: prices grow without bound, but they
// must grow FINITELY — the velocity recursion v <- beta*v + gamma*g has a
// bounded fixed point gamma*g/(1-beta), so momentum only multiplies the
// growth rate by a constant, never compounds it geometrically.
TEST(PriceDynamicsTest, UnschedulableWorkloadStaysFinite) {
  auto workload = MakeScaledSimWorkload(2, /*scale_critical_times=*/false);
  ASSERT_TRUE(workload.ok()) << workload.error();
  LatencyModel model(workload.value());
  for (const DynamicsKind kind :
       {DynamicsKind::kHeavyBall, DynamicsKind::kNesterov}) {
    LlaEngine engine(workload.value(), model, MakeConfig(kind, 0.9, true, 1));
    for (int i = 0; i < 2000; ++i) {
      const IterationStats stats = engine.Step();
      ASSERT_TRUE(std::isfinite(stats.total_utility))
          << ToString(kind) << " utility at iteration " << i;
    }
    for (double mu : engine.prices().mu) {
      ASSERT_TRUE(std::isfinite(mu)) << ToString(kind);
    }
    for (double lambda : engine.prices().lambda) {
      ASSERT_TRUE(std::isfinite(lambda)) << ToString(kind);
    }
    EXPECT_FALSE(engine.Converged()) << ToString(kind);
  }
}

// The zero-clamp invariant: any component the projection parks at 0 must
// store velocity exactly +0.0 (and, for Nesterov, base 0), the state a
// fresh component has at 0.
TEST(PriceDynamicsTest, ProjectedZeroCarriesZeroVelocity) {
  for (const DynamicsKind kind :
       {DynamicsKind::kHeavyBall, DynamicsKind::kNesterov}) {
    DynamicsConfig config;
    config.kind = kind;
    config.momentum = 0.9;
    // Fresh momentum at a published price of 1.0.
    ComponentDynamicsState state;
    state.ReseedAt(1.0);
    // Positive slack (satisfied constraint) large enough to project to 0.
    const double value =
        StepComponentDynamics(config, &state, /*value=*/1.0, /*gamma=*/1.0,
                              /*slack=*/5.0, nullptr);
    EXPECT_EQ(value, 0.0) << ToString(kind);
    EXPECT_EQ(state.velocity, 0.0) << ToString(kind);
    EXPECT_FALSE(std::signbit(state.velocity)) << ToString(kind);
    // The momentum ramp resets with the velocity: the absorbing state is
    // (value, velocity, phase) = (0, 0, 0).
    EXPECT_EQ(state.phase, 0.0) << ToString(kind);
    if (kind == DynamicsKind::kNesterov) {
      EXPECT_EQ(state.base, 0.0);
    }
  }
}

// Restart accounting: velocity built downhill, then a flipped gradient
// must reset it and count one restart per opposing component step.
TEST(PriceDynamicsTest, RestartCountsOpposingSteps) {
  DynamicsConfig config;
  config.kind = DynamicsKind::kHeavyBall;
  config.momentum = 0.9;
  ComponentDynamicsState state;
  state.ReseedAt(1.0);
  std::uint64_t restarts = 0;
  // Violated constraint: velocity accumulates upward (v > 0, g > 0).
  StepComponentDynamics(config, &state, 1.0, 1.0, /*slack=*/-2.0, &restarts);
  EXPECT_EQ(restarts, 0u);
  // Constraint flips satisfied: v * g < 0 -> restart.
  StepComponentDynamics(config, &state, 3.0, 1.0, /*slack=*/1.0, &restarts);
  EXPECT_EQ(restarts, 1u);
}

// Momentum trace fields flow end-to-end through the engine: present (and
// sane) under accelerated dynamics, absent under plain.
TEST(PriceDynamicsTest, TraceCarriesMomentumDiagnostics) {
  auto workload = MakeScaledSimWorkload(1, /*scale_critical_times=*/true);
  ASSERT_TRUE(workload.ok()) << workload.error();
  LatencyModel model(workload.value());
  obs::RingBufferTraceSink sink(8);
  LlaConfig config = MakeConfig(DynamicsKind::kHeavyBall, 0.9, true, 1);
  config.trace_sink = &sink;
  LlaEngine engine(workload.value(), model, config);
  for (int i = 0; i < 8; ++i) engine.Step();
  ASSERT_EQ(sink.size(), 8u);
  for (std::size_t i = 0; i < sink.size(); ++i) {
    const obs::IterationTrace& trace = sink.at(i);
    EXPECT_GE(trace.momentum_restarts, 0);
    EXPECT_GE(trace.effective_beta, 0.0);
    EXPECT_LE(trace.effective_beta, 0.9);
  }

  obs::RingBufferTraceSink plain_sink(8);
  LlaConfig plain = MakeConfig(DynamicsKind::kPlain, 0.9, true, 1);
  plain.trace_sink = &plain_sink;
  LlaEngine plain_engine(workload.value(), model, plain);
  plain_engine.Step();
  EXPECT_EQ(plain_sink.at(0).momentum_restarts, -1);
  EXPECT_EQ(plain_sink.at(0).effective_beta, -1.0);
}

TEST(PriceDynamicsTest, NamesAndFactory) {
  EXPECT_STREQ(ToString(DynamicsKind::kPlain), "plain");
  EXPECT_STREQ(ToString(DynamicsKind::kHeavyBall), "heavy-ball");
  EXPECT_STREQ(ToString(DynamicsKind::kNesterov), "nesterov");
}

// A NaN beta poisons every velocity (std::min(NaN, ramp) is NaN) and
// std::max(0.0, NaN) then pins every multiplier at 0, so the run burns its
// whole budget unconverged; beta >= 1 makes the velocity recursion
// unstable.  Release builds compile asserts out, so the engine refuses
// these in every build mode, whatever the dynamics kind.
TEST(PriceDynamicsDeathTest, EngineRejectsInvalidMomentum) {
  auto workload = MakeScaledSimWorkload(1, /*scale_critical_times=*/true);
  ASSERT_TRUE(workload.ok()) << workload.error();
  LatencyModel model(workload.value());
  for (const double beta : {std::nan(""), -0.1, 1.0}) {
    for (const DynamicsKind kind :
         {DynamicsKind::kPlain, DynamicsKind::kHeavyBall,
          DynamicsKind::kNesterov}) {
      EXPECT_DEATH(
          LlaEngine(workload.value(), model, MakeConfig(kind, beta, true, 1)),
          "LlaEngine: dynamics momentum .* is outside \\[0, 1\\)")
          << ToString(kind) << " beta " << beta;
    }
  }
}

}  // namespace
}  // namespace lla
