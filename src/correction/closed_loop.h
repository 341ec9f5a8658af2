// ClosedLoop: the full feedback system of the paper's Sec. 6 experiment.
//
// Epoch structure (one epoch ~ one observation interval of the prototype):
//   1. run the optimizer to convergence on the current (possibly corrected)
//      latency model and enact the resulting shares;
//   2. execute the workload on the discrete-event substrate under those
//      shares for `epoch_ms`, collecting latency samples;
//   3. if correction is enabled this epoch, feed the samples to the
//      ErrorCorrector, which updates the model the optimizer sees next.
//
// Correction can be enabled at a configurable epoch, reproducing Figure 8's
// before/after structure: uncorrected shares first, then the optimizer
// discovering it can meet the fast tasks' deadline with their sustainable
// minimum share and reassigning the surplus to the slow tasks.
#pragma once

#include <vector>

#include "core/engine.h"
#include "correction/error_corrector.h"
#include "correction/model_fitter.h"
#include "model/latency_model.h"
#include "model/workload.h"
#include "sim/system_sim.h"

namespace lla::correction {

/// Which online model-improvement strategy the loop applies (Sec. 6.3 uses
/// the additive corrector; the RLS fitter is the "model constructed
/// on-line" extension).
enum class CorrectionMode { kAdditive, kFitted };

struct ClosedLoopConfig {
  LlaConfig lla;
  sim::SimConfig sim;
  CorrectionConfig correction;
  FitterConfig fitter;
  CorrectionMode mode = CorrectionMode::kAdditive;
  int epochs = 20;
  /// Epoch index at which correction turns on (epochs before it reproduce
  /// the uncorrected phase); negative disables correction entirely.
  int enable_correction_at_epoch = 5;
};

struct EpochRecord {
  int epoch = 0;
  bool correction_active = false;
  /// Enacted shares per subtask (model share at the optimizer's latencies).
  std::vector<double> shares;
  /// Smoothed additive error per subtask.
  std::vector<double> errors_ms;
  /// Measured latency percentile per subtask (the corrector's input).
  std::vector<double> measured_ms;
  /// Model-predicted latency per subtask (optimizer's assignment).
  std::vector<double> predicted_ms;
  double optimizer_utility = 0.0;
  bool optimizer_converged = false;
  std::uint64_t job_sets_completed = 0;
};

class ClosedLoop {
 public:
  ClosedLoop(const Workload& workload, ClosedLoopConfig config = {});

  /// Runs all epochs and returns one record per epoch.
  std::vector<EpochRecord> Run();

  const LatencyModel& model() const { return model_; }

 private:
  const Workload* workload_;
  ClosedLoopConfig config_;
  LatencyModel model_;
};

}  // namespace lla::correction
