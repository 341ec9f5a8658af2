// Random workload generation for property tests and stress benches.
//
// Generates tasks with random DAG shapes (chains, trees, general DAGs) and
// random execution times (uniform in [1, 8) ms) under the paper's simulation
// utility f_i(x) = 2 C_i - x, then calibrates critical times so that the
// equal-split share assignment (every subtask on resource r receives
// B_r / n_r) meets all deadlines with a configurable margin — a
// constructive witness that the workload is schedulable.  Setting
// `target_utilization` above 1 instead produces (likely) unschedulable
// workloads for negative testing.
#pragma once

#include <cstdint>

#include "common/expected.h"
#include "model/workload.h"

namespace lla {

struct RandomWorkloadConfig {
  std::uint64_t seed = 1;
  int num_resources = 8;
  int num_tasks = 4;
  int min_subtasks = 3;
  int max_subtasks = 6;  ///< must be <= num_resources
  double lag_ms = 1.0;
  double capacity = 1.0;
  /// Probability that a non-root node gets a second incoming edge,
  /// producing general DAGs instead of trees.
  double extra_edge_prob = 0.25;
  /// Critical time = equal-split critical path / target_utilization.
  /// < 1 leaves slack (schedulable); > 1 overconstrains.
  double target_utilization = 0.8;
  double trigger_period_ms = 100.0;
  /// Samples each task's resources with a partial Fisher-Yates over a
  /// persistent pool — O(subtasks) per task instead of O(num_resources) —
  /// which is what makes 10^5-subtask generation cheap.  The draw produces
  /// the same uniform distinct-subset distribution but a different RNG
  /// stream, so it is opt-in to keep existing seeds byte-identical.
  bool scaled_sampling = false;
};

Expected<Workload> MakeRandomWorkload(const RandomWorkloadConfig& config);

/// The size-parameterized random_100k family (random_1k / random_10k /
/// random_100k / random_1m in the scale bench): ~`num_subtasks` subtasks
/// spread over
/// num_subtasks/200 resources (min 8) in tasks of 3-6 subtasks, with
/// trigger periods scaled to the per-resource load so the per-resource
/// min-share capacity check and the equal-split schedulable witness hold at
/// any size.  Feed the result to MakeRandomWorkload.
RandomWorkloadConfig ScaledRandomWorkloadConfig(std::size_t num_subtasks,
                                                std::uint64_t seed = 1);

}  // namespace lla
