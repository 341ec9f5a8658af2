// Online model error correction (paper Sec. 6.3).
//
// The share model share = (wcet + lag)/lat is conservative: it assumes every
// job contends with worst-case interference, but in the running system job
// releases are not synchronized and schedulers are work-conserving, so
// measured latencies undershoot the prediction.  The corrector compares a
// high percentile of the measured per-subtask latency against the *base*
// model's prediction at the enacted share, smooths the difference
// exponentially, and installs the additively corrected share function
// share = (wcet + lag)/(lat - error) into the LatencyModel — which the
// optimizer consults on its next iteration.
#pragma once

#include <vector>

#include "common/stats.h"
#include "model/latency_model.h"
#include "model/workload.h"

namespace lla::correction {

/// Percentile of the measured latency that the correction modules read as
/// their sample ("greater than 90th percentile" per the paper): the
/// corrector's error, the fitter's regression target and the closed loop's
/// recorded latency.
inline constexpr double kMeasuredPercentile = 0.95;
static_assert(kMeasuredPercentile > 0.0 && kMeasuredPercentile < 1.0);

/// Errors are clamped so the corrected model keeps a positive latency floor,
/// error >= -(1 - 0.05) * predicted: a wild early sample cannot drive it to
/// zero.
struct CorrectionConfig {
  /// Optional per-subtask percentiles (by SubtaskId), e.g. from
  /// PlanSubtaskPercentiles; when non-empty it overrides
  /// kMeasuredPercentile.
  std::vector<double> per_subtask_percentiles;
  /// Exponential smoothing factor for the error value.
  double alpha = 0.3;
  /// Subtasks with fewer samples in an observation window are skipped.
  std::size_t min_samples = 20;
};

class ErrorCorrector {
 public:
  /// `model` must outlive the corrector; corrections are installed into it.
  ErrorCorrector(const Workload& workload, LatencyModel* model,
                 CorrectionConfig config = {});

  /// Feeds one observation window: `measured[s]` holds the latency samples
  /// of subtask s and `enacted_shares[s]` the share in force while they
  /// were collected.  Updates the model for every subtask with enough
  /// samples.
  void Observe(const std::vector<SampleQuantile>& measured,
               const std::vector<double>& enacted_shares);

  /// Current smoothed error of a subtask (0 until first update).
  double error(SubtaskId id) const {
    return smoothers_[id.value()].initialized()
               ? smoothers_[id.value()].value()
               : 0.0;
  }

 private:
  const Workload* workload_;
  LatencyModel* model_;
  CorrectionConfig config_;
  std::vector<ExponentialSmoother> smoothers_;
};

}  // namespace lla::correction
