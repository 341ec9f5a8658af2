// Admission control layered on top of LLA (paper Sec. 3.2: "We assume any
// admission control is layered on top of our approach").
//
// The controller owns the set of admitted task specs.  A candidate task is
// admitted only if the combined workload remains schedulable — tested
// exactly the way the paper proposes (Sec. 5.4): run the optimizer and see
// whether it converges to a feasible assignment, with two cheap prechecks
// first (sustainable-share sums and the Phase-I feasibility solver).
//
// Two policies:
//   * kFeasibilityOnly — admit anything schedulable;
//   * kNetBenefit     — additionally require that total utility with the
//     newcomer exceed the incumbent-only utility by a margin, i.e. the
//     newcomer must bring more benefit than the latency degradation it
//     inflicts on the incumbents.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/expected.h"
#include "core/engine.h"
#include "model/workload.h"

namespace lla::admission {

enum class Decision {
  kAdmitted,
  kRejectedInvalid,      ///< candidate fails workload validation
  kRejectedInfeasible,   ///< combined workload is not schedulable
  kRejectedNetBenefit,   ///< schedulable but hurts aggregate utility
};

const char* ToString(Decision decision);

enum class Policy { kFeasibilityOnly, kNetBenefit };

struct AdmissionConfig {
  LlaConfig lla;
  int max_iterations = 8000;
  Policy policy = Policy::kFeasibilityOnly;
  /// kNetBenefit: required utility improvement over the incumbent-only
  /// optimum.
  double min_net_benefit = 0.0;
  /// Threads for concurrent admission probes: TryAdmit runs its
  /// incumbent-only and with-candidate optimizations side by side, and
  /// ProbeAll fans independent what-if sets across an EngineBatch.  Each
  /// probe's result is bit-identical to a serial evaluation (the probes
  /// share nothing mutable); 1 keeps everything sequential.
  int probe_threads = 1;
};

struct AdmissionReport {
  Decision decision = Decision::kRejectedInvalid;
  std::string reason;
  /// Optimal utility of the incumbent workload (0 when empty).
  double utility_before = 0.0;
  /// Optimal utility including the candidate (only when evaluated).
  double utility_after = 0.0;
};

/// Outcome of one what-if probe (see AdmissionController::ProbeAll).
struct ProbeResult {
  bool schedulable = false;
  /// True when the set survived validation and the prechecks and the full
  /// optimizer ran; `utility` is meaningful (even for an infeasible run).
  bool evaluated = false;
  double utility = 0.0;
  std::string reason;  ///< empty when schedulable
};

class AdmissionController {
 public:
  AdmissionController(std::vector<ResourceSpec> resources,
                      AdmissionConfig config = {});

  /// Evaluates the candidate; on admission it joins the controlled set.
  AdmissionReport TryAdmit(const TaskSpec& candidate);

  /// Removes an admitted task by name; false if absent.
  bool Remove(const std::string& task_name);

  std::size_t task_count() const { return tasks_.size(); }
  std::vector<std::string> TaskNames() const;

  /// Optimal utility of the current set (re-optimized; 0 when empty).
  double CurrentUtility() const;

  /// What-if probes: evaluates every candidate task set through the full
  /// pipeline (validation, min-share precheck, Phase-I, LLA run)
  /// without touching the admitted set.  The optimizer runs of all sets
  /// that survive the prechecks execute concurrently across
  /// config.probe_threads (EngineBatch); each result is bit-identical to a
  /// serial evaluation.
  std::vector<ProbeResult> ProbeAll(
      const std::vector<std::vector<TaskSpec>>& candidate_sets) const;

 private:
  /// ProbeAll plus knowledge of which set (if any) is exactly the admitted
  /// incumbent set: that probe warm-starts from the cached incumbent prices
  /// and refreshes the cache when it converges.
  std::vector<ProbeResult> ProbeAllImpl(
      const std::vector<std::vector<TaskSpec>>& candidate_sets,
      std::size_t incumbent_index) const;

  std::vector<ResourceSpec> resources_;
  AdmissionConfig config_;
  std::vector<TaskSpec> tasks_;

  /// Converged dual state of the last incumbent-only optimization.
  /// Invalidated whenever the admitted set changes (TryAdmit success,
  /// Remove); refreshed by incumbent probes (mutable: probing is logically
  /// const).  Repeated probes of an unchanged incumbent set — every
  /// TryAdmit evaluates it for the net-benefit baseline — then re-converge
  /// from the optimum in a handful of near-zero-work iterations.
  mutable PriceVector incumbent_prices_;
  mutable bool incumbent_prices_valid_ = false;
};

}  // namespace lla::admission
