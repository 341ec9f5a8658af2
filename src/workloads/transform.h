// Workload transforms: Workload is immutable, so runtime changes (a link
// losing capacity, an SLA renegotiation, a task joining/leaving) are
// expressed as clone-with-edit.  Combined with LlaEngine::WarmStart the
// optimizer resumes from its previous prices and re-converges quickly —
// the paper's "adapts to both workload and resource variations" (Sec. 1).
#pragma once

#include <functional>

#include "common/expected.h"
#include "core/prices.h"
#include "model/workload.h"

namespace lla {

/// The raw specs a Workload was built from (reconstructed losslessly).
struct WorkloadSpecs {
  std::vector<ResourceSpec> resources;
  std::vector<TaskSpec> tasks;
};

/// Reconstructs editable specs from a validated workload.
WorkloadSpecs ExtractSpecs(const Workload& workload);

/// Clone-with-edit: the editors may mutate any spec; the result is
/// re-validated from scratch.  Pass nullptr to skip an editor.
Expected<Workload> Rebuild(
    const Workload& workload,
    const std::function<void(ResourceId, ResourceSpec&)>& edit_resource,
    const std::function<void(TaskId, TaskSpec&)>& edit_task = nullptr);

/// Convenience: one resource's capacity changes (failure / failover /
/// recovery).  Capacity must stay in (0, 1].
Expected<Workload> WithResourceCapacity(const Workload& workload,
                                        ResourceId resource, double capacity);

/// Convenience: removes one task (admission control evicting it).
Expected<Workload> WithoutTask(const Workload& workload, TaskId task);

/// Convenience: appends one task (admission control accepting it).  The new
/// task validates against the existing resource set; its id in the result is
/// the old task_count().
Expected<Workload> WithTask(const Workload& workload, TaskSpec task);

/// Describes how a new workload structurally relates to the old one a price
/// vector came from, so LlaEngine::WarmStartStructural can remap the dual
/// state internally.  Resources are fixed across both kinds; exactly one
/// task differs.
struct StructuralChange {
  enum class Kind {
    kTaskLeave,  ///< `task` (an OLD-workload id) departed
    kTaskJoin,   ///< `task` (a NEW-workload id) joined
  };
  Kind kind = Kind::kTaskLeave;
  TaskId task;

  static StructuralChange TaskLeave(TaskId removed) {
    return {Kind::kTaskLeave, removed};
  }
  static StructuralChange TaskJoin(TaskId added) {
    return {Kind::kTaskJoin, added};
  }
};

/// Maps the dual prices of `old_workload` onto the price index space of
/// `old_workload` minus `removed` (mu copies 1:1 — the resource set is
/// untouched).  Paths are ordered by task and, per task, in dag order; both
/// orders survive a task removal, so the lambda mapping is a filtered copy
/// of the surviving tasks' entries in their original order.
PriceVector MapPricesWithoutTask(const Workload& old_workload,
                                 const PriceVector& prices, TaskId removed);

/// Inverse for a join: maps `old_prices` (from the workload WITHOUT the
/// task) onto `new_workload`'s index space, where `added` is the joined
/// task's id in `new_workload`.  Surviving tasks keep their lambda in
/// order; the joined task's paths start at `initial_lambda` (projected to
/// >= 0); mu copies 1:1.
PriceVector MapPricesWithTask(const Workload& new_workload,
                              const PriceVector& old_prices, TaskId added,
                              double initial_lambda = 0.0);

}  // namespace lla
