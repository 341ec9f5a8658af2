// Online share-model construction (paper Sec. 1: "the model itself can be
// constructed on-line, and iteratively improved as the system is running").
//
// Where ErrorCorrector trusts the (wcet + lag) numerator and learns only an
// additive offset, ShareModelFitter learns the whole curve: it fits
//
//     latency_q(share) = work_eff / share + offset
//
// by recursive least squares over observed (enacted share, measured
// latency-percentile) pairs, with exponential forgetting so drifting
// systems keep adapting.  The fitted curve is installed into the
// LatencyModel as ShareFunction(work_eff, offset) — exactly the family the
// optimizer already knows how to invert in closed form.
//
// A fit requires diversity: at least `min_samples` observations whose
// 1/share values span a minimal relative spread (a constant-share history
// cannot identify two parameters); until then the subtask's model is left
// untouched.
#pragma once

#include <vector>

#include "common/stats.h"
#include "model/latency_model.h"
#include "model/workload.h"

namespace lla::correction {

/// The regression target is the kMeasuredPercentile latency
/// (correction/error_corrector.h).  A fit whose work exceeds 4x the nominal
/// (wcet + lag) is rejected that round.
struct FitterConfig {
  /// Exponential forgetting factor per observation window (1 = remember
  /// everything).
  double forgetting = 0.98;
  std::size_t min_samples = 3;
  /// Required relative spread of 1/share across remembered observations.
  double min_regressor_spread = 0.05;
};

class ShareModelFitter {
 public:
  struct Fit {
    double work_ms = 0.0;    ///< fitted numerator (effective work)
    double offset_ms = 0.0;  ///< fitted additive term
    bool valid = false;      ///< installed into the model?
    std::size_t observations = 0;
  };

  /// `model` must outlive the fitter; fitted curves are installed into it.
  ShareModelFitter(const Workload& workload, LatencyModel* model,
                   FitterConfig config = {});

  /// Feeds one observation window (same contract as ErrorCorrector).
  void Observe(const std::vector<SampleQuantile>& measured,
               const std::vector<double>& enacted_shares);

  Fit fit(SubtaskId id) const { return fits_[id.value()]; }

 private:
  struct RlsState {
    // Normal equations with forgetting for y = theta1 * x + theta2,
    // x = 1/share, y = measured latency percentile.
    double sxx = 0.0, sx1 = 0.0, s11 = 0.0;  ///< weighted moments
    double sxy = 0.0, s1y = 0.0;
    double x_min = 0.0, x_max = 0.0;
    std::size_t count = 0;
  };

  void TryInstall(SubtaskId id);

  const Workload* workload_;
  LatencyModel* model_;
  FitterConfig config_;
  std::vector<RlsState> states_;
  std::vector<Fit> fits_;
};

}  // namespace lla::correction
