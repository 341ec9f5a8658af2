#include "correction/error_corrector.h"

#include <algorithm>
#include <cassert>

namespace lla::correction {
namespace {
// The corrected latency floor kept above zero: error >= -(1 - margin) *
// predicted.
constexpr double kClampMargin = 0.05;
static_assert(kClampMargin > 0.0 && kClampMargin < 1.0);
}  // namespace

ErrorCorrector::ErrorCorrector(const Workload& workload, LatencyModel* model,
                               CorrectionConfig config)
    : workload_(&workload), model_(model), config_(config) {
  assert(model != nullptr);
  assert(config.per_subtask_percentiles.empty() ||
         config.per_subtask_percentiles.size() == workload.subtask_count());
  smoothers_.assign(workload.subtask_count(),
                    ExponentialSmoother(config.alpha));
}

void ErrorCorrector::Observe(const std::vector<SampleQuantile>& measured,
                             const std::vector<double>& enacted_shares) {
  assert(measured.size() == workload_->subtask_count());
  assert(enacted_shares.size() == workload_->subtask_count());
  for (const SubtaskInfo& sub : workload_->subtasks()) {
    const std::size_t s = sub.id.value();
    if (measured[s].count() < config_.min_samples) continue;
    const double share = enacted_shares[s];
    if (share <= 0.0) continue;

    // Base (uncorrected) model prediction at the enacted share.
    const double predicted = sub.work_ms / share;
    const double percentile = config_.per_subtask_percentiles.empty()
                                  ? kMeasuredPercentile
                                  : config_.per_subtask_percentiles[s];
    const double observed = measured[s].Value(percentile);
    const double raw_error = observed - predicted;
    // Keep the corrected latency floor positive.
    const double clamped = std::max(
        raw_error, -(1.0 - kClampMargin) * predicted);
    const double smoothed = smoothers_[s].Add(clamped);
    model_->SetAdditiveError(sub.id, smoothed);
  }
}

}  // namespace lla::correction
