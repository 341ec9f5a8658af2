// High-churn serving layer (DESIGN.md §7.9): applies a stream of task
// join / leave / WCET-correction mutations against ONE live engine, the
// deployment shape where tasks arrive and depart continuously while the
// optimizer keeps serving latency assignments.
//
// Structural mutations rebuild the immutable Workload (clone-with-edit via
// the spec list the driver owns) and seed the fresh engine with
// LlaEngine::WarmStartStructural, which re-primes only the dirty closure of
// the changed task and keeps every other price.  Joins are admission-gated:
// bursts of consecutive joins in a script are probed as CUMULATIVE
// candidate sets in one AdmissionController::ProbeAll call (EngineBatch
// fans the probes across admission.probe_threads), then the longest
// all-schedulable prefix is applied in order — the gate decision is
// identical to probing each join sequentially against the set it would
// actually land on.  Probes run
// against the live system's CORRECTED WCETs (the accumulated corrections
// baked into the probed specs): the stale spec workload can look
// schedulable while the corrected system is not, and admitting against it
// would stall the live engine on an infeasible join.  WCET mutations
// stay in-place (LatencyModel::SetAdditiveError + ClearConvergenceWindow);
// the accumulated corrections are keyed by (task name, subtask position) so
// they survive structural rebuilds.
//
// Everything is deterministic: a fixed mutation script produces bitwise
// identical final prices at any thread count, with work reporting on or
// off (churn_property_test pins this with memcmp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "admission/admission.h"
#include "common/expected.h"
#include "core/engine.h"
#include "model/latency_model.h"
#include "model/workload.h"

namespace lla::runtime {

enum class ChurnKind { kJoin, kLeave, kWcetPerturb };

/// One scripted mutation.  Fields beyond `kind` are read per kind; indices
/// are taken modulo the live count at application time so a pre-generated
/// script stays valid as the task set grows and shrinks.
struct ChurnMutation {
  ChurnKind kind = ChurnKind::kLeave;
  TaskSpec join_task;             ///< kJoin: the candidate
  std::size_t leave_index = 0;    ///< kLeave: index into the live task list
  std::size_t subtask_index = 0;  ///< kWcetPerturb: index into live subtasks
  double wcet_error_ms = 0.0;     ///< kWcetPerturb: additive WCET correction
};

struct ChurnConfig {
  /// Engine configuration for the live engine and every structural restart.
  LlaConfig lla;
  /// Per-mutation re-convergence budget.
  int max_iterations = 12000;
  /// Leaves are skipped (applied = false) when they would drop the live set
  /// below this.
  std::size_t min_tasks = 1;
  /// ProbeAll gate for joins (its own LlaConfig + probe_threads).
  admission::AdmissionConfig admission;
};

/// Outcome of one mutation, the bench's unit of record.
struct ChurnRecord {
  ChurnKind kind = ChurnKind::kLeave;
  bool applied = false;    ///< mutated the live system (admitted joins etc.)
  bool converged = false;  ///< re-converged within max_iterations
  int iterations = 0;      ///< re-convergence iterations for THIS mutation
  /// Subtask solves to re-converge, including the structural prime (one
  /// dense solve of the new workload) so warm/cold comparisons stay
  /// symmetric with bench_convergence's accounting.
  std::uint64_t subtask_solves = 0;
  double final_utility = 0.0;
  double wall_ms = 0.0;
  std::size_t tasks_after = 0;
  std::string note;  ///< rejection / skip reason when !applied
};

class ChurnDriver {
 public:
  /// Validates and optimizes the initial workload (the incumbent the first
  /// mutation hits is already converged).
  static Expected<ChurnDriver> Create(std::vector<ResourceSpec> resources,
                                      std::vector<TaskSpec> tasks,
                                      ChurnConfig config);

  ChurnDriver(ChurnDriver&&) = default;
  ChurnDriver& operator=(ChurnDriver&&) = default;

  /// Applies one mutation (joins probed individually).
  ChurnRecord Apply(const ChurnMutation& mutation);

  /// Applies a whole script; consecutive joins are probed as one cumulative
  /// ProbeAll batch (see file comment).  Returns one record per mutation,
  /// in script order.
  std::vector<ChurnRecord> ApplyAll(const std::vector<ChurnMutation>& script);

  const Workload& workload() const { return *workload_; }
  LlaEngine& engine() { return *engine_; }
  const LlaEngine& engine() const { return *engine_; }
  /// The live model (accumulated WCET corrections applied) — lets callers
  /// run reference engines against the exact system state, e.g. the
  /// bench's warm-vs-cold gate.
  const LatencyModel& model() const { return *model_; }

 private:
  ChurnDriver(std::vector<ResourceSpec> resources,
              std::vector<TaskSpec> tasks, ChurnConfig config);

  /// The live task specs with the accumulated WCET corrections baked into
  /// wcet_ms — what admission must probe: the spec-level workload can be
  /// schedulable while the corrected system the engine actually serves is
  /// not (positive drift), and admitting against the stale specs would
  /// stall the live engine on an infeasible join.
  std::vector<TaskSpec> CorrectedSpecs() const;

  /// Applies a join the admission gate has already approved.
  ChurnRecord ApplyJoin(const TaskSpec& candidate);
  ChurnRecord ApplyLeave(std::size_t leave_index);
  ChurnRecord ApplyPerturb(const ChurnMutation& mutation);
  /// Swaps in a rebuilt workload/model/engine warm-started from the live
  /// prices; returns false (live system untouched) on any failure.
  bool CommitStructural(std::vector<TaskSpec> new_tasks,
                        StructuralChange change, std::string* error);
  /// Re-converges the live engine within max_iterations.  A warm run that
  /// misses the budget is retried once from cold (DESIGN.md §7.9: near
  /// saturation a resumed dual can limit-cycle where a cold solve
  /// converges), charging both runs and the cold prime to the record.
  void RunAndRecord(std::size_t prime_solves, ChurnRecord* record);
  /// Re-applies the accumulated WCET corrections to a fresh model.
  void ReplayWcetErrors();

  std::vector<ResourceSpec> resources_;
  std::vector<TaskSpec> tasks_;
  ChurnConfig config_;
  std::unique_ptr<admission::AdmissionController> admission_;
  std::unique_ptr<Workload> workload_;
  std::unique_ptr<LatencyModel> model_;
  std::unique_ptr<LlaEngine> engine_;
  /// Accumulated additive WCET corrections keyed by (task name, subtask
  /// position within the task) — stable identities across rebuilds.
  std::map<std::pair<std::string, std::size_t>, double> wcet_errors_;
};

/// Deterministic churn script generator (pure function of the config): 40%
/// joins, 30% leaves, the rest WCET perturbations, each drawing its additive
/// correction uniformly from [-0.02, 0.02) ms.
struct ChurnScriptConfig {
  std::uint64_t seed = 1;
  std::size_t mutations = 100;
  /// Resource-id space the generated join candidates reference; must equal
  /// the target system's resource count.
  int num_resources = 8;
  /// Join candidates are drawn round-robin from a donor pool of this many
  /// randomly generated tasks (renamed uniquely per join).
  int donor_tasks = 12;
};

Expected<std::vector<ChurnMutation>> MakeChurnScript(
    const ChurnScriptConfig& config);

}  // namespace lla::runtime
