// Workload: the validated, immutable description of an entire system —
// resources (CPUs and network links) plus tasks (subtask DAGs, utilities,
// triggers).  This is the input to every algorithm in the repository.
//
// Construction performs full validation and precomputes the index structures
// the optimizer needs: the global subtask/path tables, per-resource subtask
// lists, per-subtask path lists, and path-count weights.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/expected.h"
#include "common/ids.h"
#include "model/graph.h"
#include "model/trigger.h"
#include "model/utility.h"

namespace lla {

enum class ResourceKind { kCpu, kNetworkLink };

const char* ToString(ResourceKind kind);

/// Input description of one resource.
struct ResourceSpec {
  std::string name;
  ResourceKind kind = ResourceKind::kCpu;
  /// Fraction of the resource available to the managed tasks, B_r in (0, 1].
  double capacity = 1.0;
  /// Scheduling lag l_r (ms) of the proportional-share scheduler, >= 0.
  double lag_ms = 0.0;
};

/// Input description of one subtask.
struct SubtaskSpec {
  std::string name;
  ResourceId resource;
  /// Worst-case execution time (CPU) or transmission time (link), > 0 ms.
  double wcet_ms = 1.0;
  /// Minimum sustainable share (arrival_rate * wcet); the optimizer never
  /// assigns less, otherwise jobs queue without bound (paper Sec. 6.2).
  /// 0 disables the floor.
  double min_share = 0.0;
};

/// Input description of one task.
struct TaskSpec {
  std::string name;
  double critical_time_ms = 0.0;
  std::vector<SubtaskSpec> subtasks;
  /// Precedence edges between local subtask indices; must form a valid Dag.
  std::vector<std::pair<int, int>> edges;
  UtilityPtr utility;
  TriggerSpec trigger;
};

/// Which utility variant of Sec. 3.2 defines the task latency aggregate.
enum class UtilityVariant {
  kSum,           ///< U_i = f_i(sum of subtask latencies)
  kPathWeighted,  ///< U_i = f_i(sum of path-count-weighted latencies)
};

const char* ToString(UtilityVariant variant);

/// Validated resource with its reverse index.
struct ResourceInfo {
  ResourceId id;
  std::string name;
  ResourceKind kind;
  double capacity;
  double lag_ms;
  std::vector<SubtaskId> subtasks;  ///< all subtasks placed on this resource
};

/// Validated subtask (flattened across tasks).
struct SubtaskInfo {
  SubtaskId id;
  TaskId task;
  int local_index;  ///< node index within the task's Dag
  ResourceId resource;
  std::string name;
  double wcet_ms;
  double work_ms;  ///< wcet + resource lag: numerator of the share function
  double min_share;
  std::vector<PathId> paths;  ///< global ids of paths containing this subtask
  int path_count;             ///< == paths.size(); the path-weighted weight
};

/// Validated root-to-leaf path (flattened across tasks).
struct PathInfo {
  PathId id;
  TaskId task;
  std::vector<SubtaskId> subtasks;
  double critical_time_ms;  ///< the owning task's critical time
};

/// Validated task.
struct TaskInfo {
  TaskId id;
  std::string name;
  double critical_time_ms;
  UtilityPtr utility;
  TriggerSpec trigger;
  Dag dag;
  std::vector<SubtaskId> subtasks;  ///< global ids, in local-index order
  std::vector<PathId> paths;        ///< global ids, in dag.paths() order
};

struct WorkloadOptions {
  /// The paper assumes "no two subtasks in the same task consume the same
  /// resource" (Sec. 2.1); set true to lift that restriction (the
  /// optimizer handles it, the percentile math does not).
  bool allow_shared_resource_within_task = false;
};

class Workload {
 public:
  using Options = WorkloadOptions;

  /// Validates and builds.  Errors include: empty task/resource lists,
  /// invalid resource references, a non-finite number anywhere (NaN or
  /// +-inf capacity, lag, critical time, WCET, min_share or trigger field),
  /// non-positive WCETs/critical times/capacities/trigger periods/rates,
  /// capacities > 1, negative lags/min_shares/burst spreads, burst sizes
  /// below 1, malformed DAGs, missing utilities, and (unless allowed)
  /// repeated resources within a task.  Subtask ids are assigned task by
  /// task, so each task's subtasks form one contiguous id range.
  static Expected<Workload> Create(std::vector<ResourceSpec> resources,
                                   std::vector<TaskSpec> tasks,
                                   WorkloadOptions options = {});

  const std::vector<ResourceInfo>& resources() const { return resources_; }
  const std::vector<TaskInfo>& tasks() const { return tasks_; }
  const std::vector<SubtaskInfo>& subtasks() const { return subtasks_; }
  const std::vector<PathInfo>& paths() const { return paths_; }

  const ResourceInfo& resource(ResourceId id) const {
    return resources_[id.value()];
  }
  const TaskInfo& task(TaskId id) const { return tasks_[id.value()]; }
  const SubtaskInfo& subtask(SubtaskId id) const {
    return subtasks_[id.value()];
  }
  const PathInfo& path(PathId id) const { return paths_[id.value()]; }

  std::size_t resource_count() const { return resources_.size(); }
  std::size_t task_count() const { return tasks_.size(); }
  std::size_t subtask_count() const { return subtasks_.size(); }
  std::size_t path_count() const { return paths_.size(); }

  /// The utility weight w_s of a subtask under the given variant.
  double Weight(SubtaskId id, UtilityVariant variant) const {
    return variant == UtilityVariant::kSum
               ? 1.0
               : static_cast<double>(subtasks_[id.value()].path_count);
  }

  /// Total share demand on resource `r` if every subtask were assigned its
  /// minimum sustainable share; a quick necessary schedulability check.
  double MinShareDemand(ResourceId r) const;

 private:
  Workload() = default;

  std::vector<ResourceInfo> resources_;
  std::vector<TaskInfo> tasks_;
  std::vector<SubtaskInfo> subtasks_;
  std::vector<PathInfo> paths_;
};

}  // namespace lla
