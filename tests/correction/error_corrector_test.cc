#include "correction/error_corrector.h"

#include <gtest/gtest.h>

#include "workloads/paper.h"

namespace lla::correction {
namespace {

std::vector<SampleQuantile> MakeSamples(const Workload& w, SubtaskId target,
                                        std::initializer_list<double> values) {
  std::vector<SampleQuantile> samples(w.subtask_count());
  for (double v : values) samples[target.value()].Add(v);
  return samples;
}

class ErrorCorrectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto workload = MakePrototypeWorkload();
    ASSERT_TRUE(workload.ok());
    workload_ = std::make_unique<Workload>(std::move(workload).value());
    model_ = std::make_unique<LatencyModel>(*workload_);
  }
  std::unique_ptr<Workload> workload_;
  std::unique_ptr<LatencyModel> model_;
};

TEST_F(ErrorCorrectorTest, LearnsNegativeErrorFromFastMeasurements) {
  CorrectionConfig config;
  config.alpha = 1.0;  // no smoothing for exactness
  config.min_samples = 3;
  ErrorCorrector corrector(*workload_, model_.get(), config);

  // Fast subtask 0: work = 10, share 0.25 -> predicted 40 ms; measure ~20.
  std::vector<double> shares(workload_->subtask_count(), 0.25);
  auto samples = MakeSamples(*workload_, SubtaskId(0u),
                             {18.0, 20.0, 19.0, 21.0, 20.0});
  corrector.Observe(samples, shares);
  // p95 of the samples is ~21; error = 21 - 40 = -19.
  EXPECT_NEAR(corrector.error(SubtaskId(0u)), -19.2, 0.5);
  // The model was updated: share to achieve latency 20.8 is now
  // 10 / (20.8 + 19.2) = 0.25.
  EXPECT_NEAR(model_->AdditiveError(SubtaskId(0u)),
              corrector.error(SubtaskId(0u)), 1e-12);
}

TEST_F(ErrorCorrectorTest, SkipsSubtasksWithTooFewSamples) {
  CorrectionConfig config;
  config.min_samples = 10;
  ErrorCorrector corrector(*workload_, model_.get(), config);
  std::vector<double> shares(workload_->subtask_count(), 0.25);
  auto samples = MakeSamples(*workload_, SubtaskId(0u), {5.0, 6.0});
  corrector.Observe(samples, shares);
  EXPECT_DOUBLE_EQ(corrector.error(SubtaskId(0u)), 0.0);
  EXPECT_DOUBLE_EQ(model_->AdditiveError(SubtaskId(0u)), 0.0);
}

TEST_F(ErrorCorrectorTest, SmoothsAcrossWindows) {
  CorrectionConfig config;
  config.alpha = 0.5;
  config.min_samples = 1;
  ErrorCorrector corrector(*workload_, model_.get(), config);
  std::vector<double> shares(workload_->subtask_count(), 0.25);
  // Predicted 40; first window measures 30 (error -10).
  corrector.Observe(MakeSamples(*workload_, SubtaskId(0u), {30.0}), shares);
  EXPECT_NEAR(corrector.error(SubtaskId(0u)), -10.0, 1e-9);
  // Second window measures 20 (raw error -20): smoothed -15.
  corrector.Observe(MakeSamples(*workload_, SubtaskId(0u), {20.0}), shares);
  EXPECT_NEAR(corrector.error(SubtaskId(0u)), -15.0, 1e-9);
}

TEST_F(ErrorCorrectorTest, ClampsWildNegativeErrors) {
  CorrectionConfig config;
  config.alpha = 1.0;
  config.min_samples = 1;
  ErrorCorrector corrector(*workload_, model_.get(), config);
  std::vector<double> shares(workload_->subtask_count(), 0.25);
  // Measured ~0 would give error -40 == -predicted; clamp keeps 5% margin.
  corrector.Observe(MakeSamples(*workload_, SubtaskId(0u), {0.001}), shares);
  EXPECT_NEAR(corrector.error(SubtaskId(0u)), -0.95 * 40.0, 1e-9);
}

TEST_F(ErrorCorrectorTest, PositiveErrorsSupported) {
  CorrectionConfig config;
  config.alpha = 1.0;
  config.min_samples = 1;
  ErrorCorrector corrector(*workload_, model_.get(), config);
  std::vector<double> shares(workload_->subtask_count(), 0.25);
  // Model under-predicts: measured 50 vs predicted 40.
  corrector.Observe(MakeSamples(*workload_, SubtaskId(0u), {50.0}), shares);
  EXPECT_NEAR(corrector.error(SubtaskId(0u)), 10.0, 1e-9);
  // Corrected share function demands more share for the same latency.
  EXPECT_GT(model_->share(SubtaskId(0u)).Share(40.0), 0.25);
}

TEST_F(ErrorCorrectorTest, IgnoresZeroShares) {
  CorrectionConfig config;
  config.min_samples = 1;
  ErrorCorrector corrector(*workload_, model_.get(), config);
  std::vector<double> shares(workload_->subtask_count(), 0.0);
  corrector.Observe(MakeSamples(*workload_, SubtaskId(0u), {20.0}), shares);
  EXPECT_DOUBLE_EQ(corrector.error(SubtaskId(0u)), 0.0);
}

}  // namespace
}  // namespace lla::correction
