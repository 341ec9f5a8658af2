// Crash-restart recovery for the distributed runtime (DESIGN.md §7.7).
//
// Two restart flavors exist, both driven through the Coordinator's
// fault-injection API, for one task inside the controller host that runs
// it or for one resource inside the shard agent that hosts it (a host runs
// one task or many, a shard hosts one resource or many):
//
//   * Cold restart — the node lost everything.  Its hosting endpoint's
//     incarnation is bumped (so peers can reject its pre-crash traffic and
//     it can prove its own freshness) and its dual state resets.  A
//     restarted resource runs the repair exchange: a RepairRequest to every
//     client controller host, whose tasks that use the resource each answer
//     with their absolute view (cached mu_r + current subtask latencies).
//     Its price entries go out stale for a few grace ticks while repair is
//     in flight so a mu=0 cold price never hits the controllers.
//
//   * Checkpoint restart — the node restored a snapshot taken earlier by
//     Coordinator::CheckpointResource/CheckpointController.  It rejoins with
//     bounded staleness (whatever moved since the snapshot) and needs no
//     repair exchange.
//
// This header holds the snapshot structs and the counter bundle; the agent
// logic lives in shard_agent / task_controller, the injection API on the
// Coordinator.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "core/price_dynamics.h"
#include "obs/metrics.h"

namespace lla::runtime {

/// Durable state of one resource (everything its Eq. 8 price computation
/// reads, from its shard and the shared dual state), captured by
/// Coordinator::CheckpointResource.
struct ResourceAgentSnapshot {
  ResourceId resource;
  double mu = 0.0;
  double gamma_multiplier = 1.0;
  /// Latest latency inputs, indexed like workload.resource(id).subtasks.
  std::vector<double> latencies_ms;
  /// Accelerated-dynamics state of mu (DESIGN.md §7.12).
  ComponentDynamicsState dynamics;
};

/// Durable state of one task's controller and its slots of the shared state,
/// captured by Coordinator::CheckpointController.
struct TaskControllerSnapshot {
  TaskId task;
  std::vector<double> local_latencies;
  std::vector<double> local_lambdas;
  std::vector<double> path_gamma_multiplier;
  /// Per-resource caches, one entry per resource the task uses, in
  /// ascending resource order (the controller's own cache layout).
  std::vector<double> mu;
  std::vector<std::uint8_t> resource_congested;
  std::vector<std::uint32_t> resource_epoch;
};

/// Recovery counters, resolved once from a registry and shared by the
/// coordinator with every agent (all null when metrics are disabled, so the
/// hot paths pay one pointer test).
struct RecoveryHooks {
  /// Endpoint restarts injected (cold + checkpointed).
  obs::Counter* restarts = nullptr;
  /// Messages rejected because their incarnation predates the sender's
  /// latest known restart.
  obs::Counter* stale_rejected = nullptr;
  /// Shard updates rejected as malformed: an entry count that disagrees
  /// with the static binding, or a payload the shard decoders refuse.
  obs::Counter* malformed_rejected = nullptr;
  /// RepairResponses absorbed by restarted resources.
  obs::Counter* repair_rounds = nullptr;

  static RecoveryHooks Resolve(obs::MetricRegistry* metrics) {
    RecoveryHooks hooks;
    if (metrics != nullptr) {
      hooks.restarts = metrics->GetCounter("recovery.restarts");
      hooks.stale_rejected = metrics->GetCounter("recovery.stale_rejected");
      hooks.malformed_rejected =
          metrics->GetCounter("recovery.malformed_rejected");
      hooks.repair_rounds = metrics->GetCounter("recovery.repair_rounds");
    }
    return hooks;
  }
};

}  // namespace lla::runtime
