#include "correction/model_fitter.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "correction/error_corrector.h"
#include "model/share.h"

namespace lla::correction {
namespace {
// Observation windows with fewer latency samples than this are skipped.
constexpr std::size_t kMinWindowSamples = 20;
// Fitted work must stay positive and at most this multiple of the nominal
// (wcet + lag); otherwise the fit is rejected this round.
constexpr double kMaxWorkRatio = 4.0;
}  // namespace

ShareModelFitter::ShareModelFitter(const Workload& workload,
                                   LatencyModel* model, FitterConfig config)
    : workload_(&workload), model_(model), config_(config) {
  assert(model != nullptr);
  assert(config.forgetting > 0.0 && config.forgetting <= 1.0);
  assert(config.min_samples >= 2);
  states_.resize(workload.subtask_count());
  fits_.resize(workload.subtask_count());
}

void ShareModelFitter::Observe(const std::vector<SampleQuantile>& measured,
                               const std::vector<double>& enacted_shares) {
  assert(measured.size() == workload_->subtask_count());
  assert(enacted_shares.size() == workload_->subtask_count());
  for (const SubtaskInfo& sub : workload_->subtasks()) {
    const std::size_t s = sub.id.value();
    if (measured[s].count() < kMinWindowSamples) continue;
    const double share = enacted_shares[s];
    if (share <= 0.0) continue;

    const double x = 1.0 / share;
    const double y = measured[s].Value(kMeasuredPercentile);

    RlsState& state = states_[s];
    const double f = config_.forgetting;
    state.sxx = f * state.sxx + x * x;
    state.sx1 = f * state.sx1 + x;
    state.s11 = f * state.s11 + 1.0;
    state.sxy = f * state.sxy + x * y;
    state.s1y = f * state.s1y + y;
    if (state.count == 0) {
      state.x_min = state.x_max = x;
    } else {
      state.x_min = std::min(state.x_min, x);
      state.x_max = std::max(state.x_max, x);
    }
    ++state.count;

    TryInstall(sub.id);
  }
}

void ShareModelFitter::TryInstall(SubtaskId id) {
  const std::size_t s = id.value();
  const RlsState& state = states_[s];
  Fit& fit = fits_[s];
  fit.observations = state.count;

  if (state.count < config_.min_samples) return;
  const double mean_x = state.sx1 / state.s11;
  if (mean_x <= 0.0) return;
  if ((state.x_max - state.x_min) < config_.min_regressor_spread * mean_x) {
    return;  // regressors too clustered to identify two parameters
  }

  // Solve the 2x2 normal equations
  //   [sxx sx1][theta1]   [sxy]
  //   [sx1 s11][theta2] = [s1y].
  const double det = state.sxx * state.s11 - state.sx1 * state.sx1;
  if (std::fabs(det) < 1e-12 * std::max(1.0, state.sxx * state.s11)) return;
  const double work = (state.sxy * state.s11 - state.sx1 * state.s1y) / det;
  const double offset = (state.sxx * state.s1y - state.sx1 * state.sxy) / det;

  // Sanity: positive effective work, bounded relative to the nominal.
  const SubtaskInfo& sub = workload_->subtask(id);
  if (work <= 0.0 || work > kMaxWorkRatio * sub.work_ms) return;
  // The fitted curve must keep a usable latency range: at the largest
  // observed share the predicted latency must stay positive.
  const double min_x = state.x_min;
  if (work * min_x + offset <= 0.0) return;

  fit.work_ms = work;
  fit.offset_ms = offset;
  fit.valid = true;
  // share(lat) = work / (lat - offset) inverts the fitted curve.
  model_->SetShareFunction(id, ShareFunction(work, offset));
}

}  // namespace lla::correction
