#include "correction/closed_loop.h"

#include <cassert>

namespace lla::correction {
namespace {
// Optimizer budget per epoch; the engine keeps its prices across epochs.
constexpr int kOptimizerIterationsPerEpoch = 4000;
}  // namespace

ClosedLoop::ClosedLoop(const Workload& workload, ClosedLoopConfig config)
    : workload_(&workload), config_(config), model_(workload) {
  assert(config.epochs >= 1);
}

std::vector<EpochRecord> ClosedLoop::Run() {
  const Workload& w = *workload_;
  LlaEngine engine(w, model_, config_.lla);
  ErrorCorrector corrector(w, &model_, config_.correction);
  ShareModelFitter fitter(w, &model_, config_.fitter);

  std::vector<EpochRecord> records;
  records.reserve(config_.epochs);

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    EpochRecord record;
    record.epoch = epoch;
    record.correction_active =
        config_.enable_correction_at_epoch >= 0 &&
        epoch >= config_.enable_correction_at_epoch;

    // 1. Optimize on the current model and enact.  The engine keeps its
    // price state across epochs, mirroring the continuously-running
    // optimizer of Sec. 4.4 (model updates shift its fixed point).
    const RunResult run = engine.Run(kOptimizerIterationsPerEpoch);
    record.optimizer_utility = run.final_utility;
    record.optimizer_converged = run.converged;

    record.predicted_ms = engine.latencies();
    record.shares.resize(w.subtask_count());
    for (const SubtaskInfo& sub : w.subtasks()) {
      record.shares[sub.id.value()] = model_.share(sub.id).Share(
          engine.latencies()[sub.id.value()]);
    }

    // 2. Execute on the substrate under the enacted shares.
    sim::SimConfig sim_config = config_.sim;
    sim_config.seed = config_.sim.seed + static_cast<std::uint64_t>(epoch);
    sim::SystemSimulator epoch_sim(w, sim_config);
    const sim::SimResult sim_result = epoch_sim.Run(record.shares);
    record.job_sets_completed = sim_result.job_sets_completed;
    record.measured_ms.resize(w.subtask_count());
    for (std::size_t s = 0; s < w.subtask_count(); ++s) {
      record.measured_ms[s] =
          sim_result.subtask_latencies[s].Value(kMeasuredPercentile);
    }

    // 3. Feed the corrector (the model the engine reads mutates here).
    if (record.correction_active) {
      if (config_.mode == CorrectionMode::kAdditive) {
        corrector.Observe(sim_result.subtask_latencies, record.shares);
      } else {
        // Fitted mode: the RLS needs share diversity to identify two
        // parameters, but under a constant model the optimizer re-enacts
        // the same shares forever.  The additive corrector bootstraps the
        // loop (its first update moves the shares); once a subtask's fit
        // becomes valid it overrides the additive model (installed second).
        corrector.Observe(sim_result.subtask_latencies, record.shares);
        fitter.Observe(sim_result.subtask_latencies, record.shares);
      }
      // A model change invalidates the engine's convergence window: force
      // it to re-evaluate (warm-started from its current prices) rather
      // than believing it is still settled.
      engine.ClearConvergenceWindow();
    }
    record.errors_ms.resize(w.subtask_count());
    for (const SubtaskInfo& sub : w.subtasks()) {
      record.errors_ms[sub.id.value()] =
          config_.mode == CorrectionMode::kFitted &&
                  fitter.fit(sub.id).valid
              ? fitter.fit(sub.id).offset_ms
              : corrector.error(sub.id);
    }

    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace lla::correction
