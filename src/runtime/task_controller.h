// TaskController: the per-task participant of the distributed LLA protocol
// (paper Sec. 4.2, "Latency Allocation").
//
//   1. Receive the price values mu_r of the resources the task uses
//      (with the sender's congestion flag, for the adaptive step sizes).
//   2. Compute the path prices lambda_p of the task's own paths (Eq. 9).
//   3. Compute new latencies by zeroing the Lagrangian derivative (Eq. 7)
//      — delegated to LatencySolver::SolveTaskRange.
//   4. Send the latencies to the resources hosting the subtasks: one batched
//      message per shard agent touched (a shard hosts one resource or a
//      contiguous range of them).
//
// Controllers keep only O(task) state: compact per-used-resource caches plus
// pointers into a ControllerShared block owned by the coordinator.  The old
// layout — a LatencySolver and full PriceVector per controller — was
// O(workload) per task and the memory wall at 10^5 subtasks.  The price
// buffer a solve reads is the caller's round lane's (DESIGN.md §7.11): tasks
// sharing a resource write the same mu slot, so lanes cannot share one.
// The shared block IS the controllers' state: each owns its task's
// contiguous subtask-id span of the latencies and path-id span of lambda
// and of the path step multipliers (Workload::Create numbers both task by
// task) and keeps no copy.  After every solve the controller also fills
// its task's utility slot and its paths' latency slots of the shared
// workspace with the engine's own sweep bodies, so the monitor only reduces
// what the agents computed.  Sharing is race-free because each controller
// writes only its own task's slots.
//
// A send builds each shard's ShardLatencyUpdate in place in the caller's
// round-lane outbox: it encodes the payload straight into the outbox's byte
// buffer and adds the message beside it, and the bus binds the view when it
// delivers.  Inbound prices are routed by a shard-id IdIndex built at Bind
// and decoded into scratch sized once to the widest message.  An inbound
// message's payload view is valid for the OnMessage call only, and the
// controller keeps nothing of it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/id_index.h"
#include "core/latency_solver.h"
#include "core/price_dynamics.h"
#include "core/prices.h"
#include "core/step_size.h"
#include "core/step_workspace.h"
#include "model/latency_model.h"
#include "model/workload.h"
#include "net/bus.h"
#include "runtime/recovery.h"

namespace lla::runtime {

/// Per-coordinator state shared by every agent, each of which writes only
/// its own slots:
///   - the latency solver (its invariant caches are O(workload));
///   - `latencies`, the controllers' latency state: task t's controller
///     owns the contiguous span of t's subtask ids;
///   - `evaluation`, the round's StepWorkspace, sized once here.  Controllers
///     fill `task_utilities` and `path_latencies` for their own task and
///     paths; shard agents store `resource_share_sums` for the resources
///     they step; the coordinator's monitor runs ReduceStepWorkspace over
///     it and writes the rest;
///   - the dual state, in the engine's layout (DESIGN.md §7.12): the shards
///     write the mu of `prices`, their resources' multipliers of the
///     adaptive `schedule` (Reset here) and `mu_dynamics`; the controllers
///     write the lambda and their paths' multipliers (lambda stays plain).
struct ControllerShared {
  ControllerShared(const Workload& workload, const LatencyModel& model,
                   LatencySolverConfig solver_config, StepSchedule schedule)
      : solver(workload, model, solver_config),
        latencies(workload.subtask_count(), 0.0),
        prices(PriceVector::Zero(workload)),
        schedule(std::move(schedule)),
        mu_dynamics(workload.resource_count()) {
    evaluation.Resize(workload);
    this->schedule.Reset(workload);
  }

  LatencySolver solver;
  Assignment latencies;
  StepWorkspace evaluation;
  PriceVector prices;
  StepSchedule schedule;
  std::vector<ComponentDynamicsState> mu_dynamics;
};

class TaskController {
 public:
  /// `shared` is owned by the coordinator and must outlive the controller.
  TaskController(const Workload& workload, const LatencyModel& model,
                 TaskId task, ControllerShared* shared);

  /// Wires the controller to the bus.  `resource_shard[r]` is the shard
  /// owning resource r and `shard_endpoints[s]` that shard agent's endpoint
  /// (both non-owning; the coordinator keeps the vectors alive).
  /// Latencies go out as one ShardLatencyUpdate per shard touched, and
  /// ShardPriceUpdates are absorbed in one contiguous pass.
  void Bind(net::InProcessBus* bus, net::EndpointId self,
            const std::vector<net::EndpointId>* shard_endpoints,
            const std::vector<std::uint32_t>* resource_shard);

  /// Handles a ShardPriceUpdate or RepairRequest destined for this
  /// controller.
  void OnMessage(const net::Message& message);

  /// One latency allocation + path price update + broadcast (DESIGN.md
  /// §7.11).  Publishes this task's prices into `prices`, the caller's
  /// round-lane buffer (full-size; only this task's slots are read back),
  /// solves through the solver's const range path (the caller must have
  /// run solver.PrepareSolve() serially first), and builds the outgoing
  /// messages in `outbox` for the caller to send in lane order.
  void AllocateAndSend(PriceVector* prices, net::Outbox* outbox);

  TaskId task() const { return task_; }

  /// Latencies of this task's subtasks (indexed by local subtask order):
  /// the task's span of the shared latency buffer.
  std::span<const double> latencies() const {
    return {shared_->latencies.data() + subtask_begin_, subtask_count_};
  }
  double mu_seen(ResourceId r) const;
  /// Shard epoch at which mu_seen(r) was cached (repair provenance).
  std::uint32_t mu_epoch_seen(ResourceId r) const;

  /// Crash-restart recovery (DESIGN.md §7.7); driven by the Coordinator in
  /// lockstep with the bus-side CrashEndpoint/RestartEndpoint.
  void set_recovery_hooks(const RecoveryHooks& hooks) { hooks_ = hooks; }
  void Crash();
  /// Rejoins with total state loss; the next shard broadcasts repopulate
  /// the price cache within one period (controllers need no repair exchange
  /// — shards re-send their state unprompted every tick).
  void ColdRestart();
  /// Rejoins from a snapshot; aborts loudly (in every build mode) on a
  /// snapshot of another task or of a structurally different workload.
  void RestoreFromSnapshot(const TaskControllerSnapshot& snapshot);
  TaskControllerSnapshot Snapshot() const;
  bool crashed() const { return crashed_; }

 private:
  /// Index of `resource` in used_resources_, or -1 when this task has no
  /// subtask there.
  int UsedIndex(ResourceId resource) const;
  /// Incarnation-gated acceptance of a message from used shard `s`.
  bool AcceptIncarnation(std::size_t s, std::uint32_t incarnation);
  /// This task's span of the shared latency buffer, writable.
  std::span<double> MutableLatencies() {
    return {shared_->latencies.data() + subtask_begin_, subtask_count_};
  }
  /// Fills this task's utility slot and its paths' latency slots of the
  /// shared workspace from its latencies, with the engine's sweep bodies.
  void FillEvaluation();
  const Workload* workload_;
  const LatencyModel* model_;
  TaskId task_;
  ControllerShared* shared_;
  /// The task's contiguous subtask-id and path-id ranges (Workload::Create
  /// numbers both task by task).
  std::size_t subtask_begin_ = 0;
  std::size_t subtask_count_ = 0;
  std::size_t path_begin_ = 0;
  std::size_t path_count_ = 0;

  net::InProcessBus* bus_ = nullptr;
  net::EndpointId self_ = 0;
  const std::vector<net::EndpointId>* shard_endpoints_ = nullptr;
  const std::vector<std::uint32_t>* resource_shard_ = nullptr;
  std::vector<ResourceId> used_resources_;  ///< sorted
  /// The distinct shards this task touches, ascending.  The per-shard
  /// tables below are indexed like it (and CSR offsets sized one larger),
  /// so a controller holds O(task) shard state however many shards the
  /// deployment runs.
  std::vector<std::uint32_t> used_shards_;
  /// Routing: the index of a shard id in used_shards_, or -1 when this task
  /// has no subtask there (the id comes off the wire).
  IdIndex shard_index_;
  /// A shard owns a contiguous resource range and used_resources_ is
  /// sorted, so the i-th used shard's resources are the slot range
  /// [shard_slot_begin_[i], shard_slot_begin_[i+1]) of used_resources_:
  /// positionally identical to the shard agent's client_resources_ list for
  /// this task, the decode key of the positional ShardPriceUpdate
  /// (DESIGN.md §7.11).
  std::vector<std::uint32_t> shard_slot_begin_;
  /// Local subtask indices grouped by shard, in local subtask order within
  /// a shard: the i-th used shard's ShardLatencyUpdate carries the
  /// latencies of shard_subtasks_[shard_subtask_begin_[i] ..
  /// shard_subtask_begin_[i+1]).
  std::vector<std::uint32_t> shard_subtask_begin_;
  std::vector<std::uint32_t> shard_subtasks_;

  /// Path p's subtasks, as slots of used_resources_ in path order:
  /// path_slots_[path_slot_begin_[p] .. path_slot_begin_[p+1]).  Built once,
  /// so the per-round Eq. 9 loop reads used_congested_ directly.
  std::vector<std::uint32_t> path_slot_begin_;
  std::vector<std::uint32_t> path_slots_;

  /// Compact per-used-resource caches, parallel to used_resources_.
  std::vector<double> mu_cache_;
  std::vector<std::uint8_t> used_congested_;
  std::vector<std::uint32_t> used_epoch_;

  /// Recovery state: the highest incarnation seen per used shard, and the
  /// crash flag.
  RecoveryHooks hooks_;
  bool crashed_ = false;
  std::vector<std::uint32_t> shard_incarnation_;

  /// Reused scratch, sized at Bind to the widest message: decoded prices,
  /// and the latencies one ShardLatencyUpdate carries.  repair_wire_ holds
  /// the entries of the last repair reply.
  std::vector<double> mu_scratch_;
  std::vector<double> gather_latencies_;
  std::string repair_wire_;
};

}  // namespace lla::runtime
