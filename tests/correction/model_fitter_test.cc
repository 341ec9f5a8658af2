#include "correction/model_fitter.h"

#include <cmath>

#include <gtest/gtest.h>

#include "correction/closed_loop.h"
#include "workloads/paper.h"

namespace lla::correction {
namespace {

class ModelFitterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto workload = MakePrototypeWorkload();
    ASSERT_TRUE(workload.ok());
    workload_ = std::make_unique<Workload>(std::move(workload).value());
    model_ = std::make_unique<LatencyModel>(*workload_);
  }

  /// Feeds an observation of (share, latency) for subtask 0.
  void Feed(ShareModelFitter& fitter, double share, double latency,
            int samples = 50) {
    std::vector<SampleQuantile> measured(workload_->subtask_count());
    for (int i = 0; i < samples; ++i) {
      measured[0].Add(latency);
    }
    std::vector<double> shares(workload_->subtask_count(), 0.0);
    shares[0] = share;
    fitter.Observe(measured, shares);
  }

  std::unique_ptr<Workload> workload_;
  std::unique_ptr<LatencyModel> model_;
};

TEST_F(ModelFitterTest, RecoversExactCurve) {
  // Ground truth: latency = 7/share - 12.
  FitterConfig config;
  config.min_samples = 3;
  ShareModelFitter fitter(*workload_, model_.get(), config);
  for (double share : {0.2, 0.3, 0.45}) {
    Feed(fitter, share, 7.0 / share - 12.0);
  }
  const auto fit = fitter.fit(SubtaskId(0u));
  ASSERT_TRUE(fit.valid);
  EXPECT_NEAR(fit.work_ms, 7.0, 1e-6);
  EXPECT_NEAR(fit.offset_ms, -12.0, 1e-6);
  // The installed share function inverts the learned curve.
  EXPECT_NEAR(model_->share(SubtaskId(0u)).Share(7.0 / 0.25 - 12.0), 0.25,
              1e-9);
}

TEST_F(ModelFitterTest, RefusesConstantShareHistory) {
  // All observations at the same share: two parameters are unidentifiable.
  ShareModelFitter fitter(*workload_, model_.get(), {});
  for (int i = 0; i < 10; ++i) Feed(fitter, 0.25, 30.0);
  EXPECT_FALSE(fitter.fit(SubtaskId(0u)).valid);
  // Model untouched: still the nominal (wcet 5 + lag 5)/lat.
  EXPECT_DOUBLE_EQ(model_->share(SubtaskId(0u)).Share(40.0), 0.25);
}

TEST_F(ModelFitterTest, RequiresMinimumSamples) {
  FitterConfig config;
  config.min_samples = 4;
  ShareModelFitter fitter(*workload_, model_.get(), config);
  Feed(fitter, 0.2, 40.0);
  Feed(fitter, 0.4, 20.0);
  Feed(fitter, 0.3, 26.0);
  EXPECT_FALSE(fitter.fit(SubtaskId(0u)).valid);
  Feed(fitter, 0.25, 33.0);
  EXPECT_TRUE(fitter.fit(SubtaskId(0u)).valid);
}

TEST_F(ModelFitterTest, RejectsInsaneWork) {
  // Latencies imply an effective work far above the nominal 10 ms.
  FitterConfig config;
  config.min_samples = 3;
  ShareModelFitter fitter(*workload_, model_.get(), config);
  for (double share : {0.2, 0.3, 0.45}) {
    Feed(fitter, share, 100.0 / share);  // work 100 >> 4 * 10
  }
  EXPECT_FALSE(fitter.fit(SubtaskId(0u)).valid);
}

TEST_F(ModelFitterTest, ForgettingTracksDrift) {
  FitterConfig config;
  config.min_samples = 3;
  config.forgetting = 0.5;  // aggressive for the test
  ShareModelFitter fitter(*workload_, model_.get(), config);
  // Old regime: latency = 10/share.
  for (double share : {0.2, 0.3, 0.45}) Feed(fitter, share, 10.0 / share);
  ASSERT_TRUE(fitter.fit(SubtaskId(0u)).valid);
  EXPECT_NEAR(fitter.fit(SubtaskId(0u)).work_ms, 10.0, 1e-6);
  // New regime: the system slowed down, latency = 16/share - 5.
  for (int round = 0; round < 12; ++round) {
    for (double share : {0.2, 0.3, 0.45}) {
      Feed(fitter, share, 16.0 / share - 5.0);
    }
  }
  EXPECT_NEAR(fitter.fit(SubtaskId(0u)).work_ms, 16.0, 0.2);
  EXPECT_NEAR(fitter.fit(SubtaskId(0u)).offset_ms, -5.0, 0.5);
}

TEST_F(ModelFitterTest, ClosedLoopFittedModeReachesAccurateOptimum) {
  // The Figure 8 experiment driven by the fitter.  Unlike the additive
  // corrector (which keeps the nominal wcet+lag numerator and so still
  // parks the fast tasks at their floor), the fitted model learns the much
  // smaller *effective* work of the fast tasks; under it the fast deadline
  // no longer binds and the optimizer balances marginal latencies,
  // saturating the CPUs at a distinct, model-accurate equilibrium.
  ClosedLoopConfig config;
  config.lla.step_policy = StepPolicyKind::kAdaptive;
  config.lla.gamma0 = 3.0;
  config.lla.record_history = false;
  config.sim.duration_ms = 15000.0;
  config.epochs = 14;
  config.enable_correction_at_epoch = 3;
  config.mode = CorrectionMode::kFitted;
  config.fitter.min_samples = 2;
  config.fitter.min_regressor_spread = 0.02;
  ClosedLoop loop(*workload_, config);
  const auto records = loop.Run();
  const auto& after = records.back();
  // CPUs saturated at the corrected equilibrium...
  const double cpu_sum = 2.0 * (after.shares[0] + after.shares[6]);
  EXPECT_NEAR(cpu_sum, 0.90, 0.02);
  // ...with shares strictly above the sustainable floors on both classes.
  EXPECT_GT(after.shares[0], 0.21);
  EXPECT_GT(after.shares[6], 0.14);
  // Model accuracy: predictions track measurements within ~15%.
  for (int s : {0, 6}) {
    EXPECT_NEAR(after.predicted_ms[s], after.measured_ms[s],
                0.15 * after.measured_ms[s])
        << "subtask " << s;
  }
}

}  // namespace
}  // namespace lla::correction
