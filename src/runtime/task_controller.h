// TaskController: the task-side participant of the distributed LLA protocol
// (paper Sec. 4.2, "Latency Allocation"), hosting the controllers of a
// contiguous range of one or more tasks behind one message endpoint — a
// controller host, the mirror of a ShardAgent (DESIGN.md §7.10).  For each
// hosted task:
//
//   1. Receive the price values mu_r of the resources the task uses
//      (with the sender's congestion flag, for the adaptive step sizes).
//   2. Compute the path prices lambda_p of the task's own paths (Eq. 9).
//   3. Compute new latencies by zeroing the Lagrangian derivative (Eq. 7)
//      — delegated to LatencySolver::SolveTaskRange.
//   4. Send the latencies to the resources hosting the subtasks.
//
// The host batches steps 1 and 4: it exchanges one message per shard agent
// its tasks touch, each way, whose entries are its tasks' entries
// concatenated in ascending task order.  Every per-task quantity — the
// solve, the lambda step, the price caches — is computed independently of
// the host width, so every width reaches the same fixed point bit-for-bit
// in synchronous rounds.
//
// A host keeps only O(its tasks) state: compact per-task, per-used-resource
// caches plus pointers into a ControllerShared block owned by the
// coordinator.  The price buffer a solve reads is the caller's round lane's
// (DESIGN.md §7.11): tasks sharing a resource write the same mu slot, so
// lanes cannot share one, and each task publishes its own cached mu right
// before its own solve (two tasks of one host may cache different prices
// for one resource after one of them restarts).  The shared block IS the
// controllers' state: each task owns its contiguous subtask-id span of the
// latencies and path-id span of lambda and of the path step multipliers
// (Workload::Create numbers both task by task) and keeps no copy.  After
// every solve the host also fills the task's utility slot and its paths'
// latency slots of the shared workspace with the engine's own sweep bodies,
// so the monitor only reduces what the agents computed.  Sharing is
// race-free because each host writes only its own tasks' slots.
//
// A send builds each shard's ShardLatencyUpdate in place in the caller's
// round-lane outbox: it encodes the payload straight into the outbox's byte
// buffer and adds the message beside it, and the bus binds the view when it
// delivers.  Inbound prices are routed by a shard-id IdIndex built at Bind
// and decoded into scratch sized once to the widest message.  An inbound
// message's payload view is valid for the OnMessage call only, and the
// host keeps nothing of it.
//
// Per-task fault injection (DESIGN.md §7.7): a single hosted task can be
// crashed, cold-restarted, checkpointed and restored from a snapshot.  A
// crashed task neither solves, nor steps lambda, nor absorbs prices, and its
// latency entries go out unchanged, so the shards keep the values they
// already hold.  The host's endpoint and its other tasks keep running
// throughout.
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
///   - `latencies`, the controllers' latency state: task t's host owns the
///     contiguous span of t's subtask ids;
///   - `evaluation`, the round's StepWorkspace, sized once here.  Hosts fill
///     `task_utilities` and `path_latencies` for their own tasks and paths;
///     shard agents store `resource_share_sums` for the resources they
///     step; the coordinator's monitor runs ReduceStepWorkspace over it and
///     writes the rest;
///   - the dual state, in the engine's layout (DESIGN.md §7.12): the shards
///     write the mu of `prices`, their resources' multipliers of the
///     adaptive `schedule` (Reset here) and `mu_dynamics`; the hosts write
///     the lambda and their paths' multipliers (lambda stays plain).
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
  /// Host `host` runs the controllers of tasks
  /// [first_task, first_task + count).  `shared` is owned by the
  /// coordinator and must outlive the host.
  TaskController(const Workload& workload, std::uint32_t host,
                 TaskId first_task, std::size_t count,
                 ControllerShared* shared);

  /// Wires the host to the bus.  `resource_shard[r]` is the shard owning
  /// resource r and `shard_endpoints[s]` that shard agent's endpoint (both
  /// non-owning; the coordinator keeps the vectors alive).  Latencies go out
  /// as one ShardLatencyUpdate per shard the host's tasks touch, and each
  /// ShardPriceUpdate is absorbed in one pass.
  void Bind(net::InProcessBus* bus, net::EndpointId self,
            const std::vector<net::EndpointId>* shard_endpoints,
            const std::vector<std::uint32_t>* resource_shard);

  /// Handles a ShardPriceUpdate or RepairRequest destined for this host.
  void OnMessage(const net::Message& message);

  /// For each live hosted task in ascending order: one latency allocation +
  /// path price update (DESIGN.md §7.11).  Publishes the task's prices into
  /// `prices`, the caller's round-lane buffer (full-size; only the task's
  /// slots are read back), and solves through the solver's const range path
  /// (the caller must have run solver.PrepareSolve() serially first).  Then
  /// builds the host's outgoing messages in `outbox` for the caller to send
  /// in lane order.
  void AllocateAndSend(PriceVector* prices, net::Outbox* outbox);

  std::uint32_t host() const { return host_; }
  std::size_t task_count() const { return task_count_; }
  bool Hosts(TaskId task) const {
    return task.value() >= first_ && task.value() < first_ + task_count_;
  }

  /// Latencies of a hosted task's subtasks (indexed by local subtask
  /// order): the task's span of the shared latency buffer.
  std::span<const double> latencies(TaskId task) const {
    const std::size_t k = Local(task);
    return {shared_->latencies.data() + subtask_begin_[k],
            subtask_begin_[k + 1] - subtask_begin_[k]};
  }
  /// The price of `r` a hosted task last absorbed (0 when it uses no
  /// subtask there).
  double mu_seen(TaskId task, ResourceId r) const;
  /// Shard epoch at which mu_seen(task, r) was cached (repair provenance).
  std::uint32_t mu_epoch_seen(TaskId task, ResourceId r) const;

  /// Per-task crash-restart recovery (DESIGN.md §7.7), driven by the
  /// Coordinator; each aborts loudly when `task` is not hosted here.
  /// CrashTask freezes the task.  ColdRestartTask rejoins it with total
  /// state loss; the next shard broadcasts repopulate its price cache within
  /// one period (controllers need no repair exchange — shards re-send their
  /// state unprompted every tick).  RestoreTask rejoins it from a snapshot
  /// and aborts on a snapshot of another task or of a structurally
  /// different workload.
  void set_recovery_hooks(const RecoveryHooks& hooks) { hooks_ = hooks; }
  void CrashTask(TaskId task);
  void ColdRestartTask(TaskId task);
  void RestoreTask(TaskId task, const TaskControllerSnapshot& snapshot);
  TaskControllerSnapshot SnapshotTask(TaskId task) const;
  bool task_crashed(TaskId task) const { return crashed_[Local(task)] != 0; }

 private:
  std::size_t Local(TaskId task) const { return task.value() - first_; }
  /// Local() for the fault-injection entry points: aborts loudly (in every
  /// build mode) when `task` is not hosted here.
  std::size_t HostedLocal(TaskId task, const char* what) const;
  /// The flat used-resource slot of `resource` in hosted task k's range, or
  /// -1 when the task has no subtask there.
  int UsedIndex(std::size_t k, ResourceId resource) const;
  /// Incarnation-gated acceptance of a message from used shard `s`.
  bool AcceptIncarnation(std::size_t s, std::uint32_t incarnation);
  /// Clears hosted task k's crash flag (both restarts rejoin the task).
  void ClearCrash(std::size_t k);
  /// Fills hosted task k's utility slot and its paths' latency slots of the
  /// shared workspace from its latencies, with the engine's sweep bodies.
  void FillEvaluation(std::size_t k);
  /// Answers a RepairRequest for `resource` with one RepairResponse per
  /// live hosted task that uses it.
  void AnswerRepair(ResourceId resource, net::EndpointId requester);

  const Workload* workload_;
  std::uint32_t host_;
  std::size_t first_;
  std::size_t task_count_;
  ControllerShared* shared_;
  /// Hosted task k owns subtask ids [subtask_begin_[k], subtask_begin_[k+1])
  /// and path ids [path_begin_[k], path_begin_[k+1]) (Workload::Create
  /// numbers both task by task, so the host's ranges are contiguous too).
  std::vector<std::size_t> subtask_begin_;
  std::vector<std::size_t> path_begin_;
  /// Each hosted task's used resources, sorted, concatenated in task order:
  /// task k's are the flat slots [used_begin_[k], used_begin_[k+1]).  The
  /// per-resource caches below are parallel to it.
  std::vector<ResourceId> used_resources_;
  std::vector<std::uint32_t> used_begin_;

  net::InProcessBus* bus_ = nullptr;
  net::EndpointId self_ = 0;
  const std::vector<net::EndpointId>* shard_endpoints_ = nullptr;
  const std::vector<std::uint32_t>* resource_shard_ = nullptr;
  /// The distinct shards the hosted tasks touch, ascending.  The per-shard
  /// tables below are indexed like it (and CSR offsets sized one larger),
  /// so a host holds O(its tasks) shard state however many shards the
  /// deployment runs.
  std::vector<std::uint32_t> used_shards_;
  /// Routing: the index of a shard id in used_shards_, or -1 when no hosted
  /// task has a subtask there (the id comes off the wire).
  IdIndex shard_index_;
  /// The positional price list of the i-th used shard (DESIGN.md §7.11):
  /// entry j of its ShardPriceUpdate lands in flat slot
  /// price_slots_[price_begin_[i] + j] — for each hosted task in ascending
  /// order, its used resources on the shard, ascending.  The shard agent's
  /// client_resources_ list for this host is the same list.
  std::vector<std::uint32_t> price_begin_;
  std::vector<std::uint32_t> price_slots_;
  /// The positional latency list of the i-th used shard: its
  /// ShardLatencyUpdate carries the latencies of subtask ids
  /// latency_subtasks_[latency_begin_[i] .. latency_begin_[i+1]) — for each
  /// hosted task in ascending order, its subtasks on the shard in local
  /// subtask order.
  std::vector<std::uint32_t> latency_begin_;
  std::vector<std::uint32_t> latency_subtasks_;

  /// Host-local path q's subtasks (path id path_begin_[0] + q), as flat
  /// used-resource slots in path order:
  /// path_slots_[path_slot_begin_[q] .. path_slot_begin_[q+1]).  Built once,
  /// so the per-round Eq. 9 loop reads used_congested_ directly.
  std::vector<std::uint32_t> path_slot_begin_;
  std::vector<std::uint32_t> path_slots_;

  /// Compact per-used-resource caches, parallel to used_resources_.
  std::vector<double> mu_cache_;
  std::vector<std::uint8_t> used_congested_;
  std::vector<std::uint32_t> used_epoch_;

  /// Recovery state: the per-task crash flags, and the highest incarnation
  /// seen per used shard (transport state: a task's restart keeps it).
  RecoveryHooks hooks_;
  std::vector<std::uint8_t> crashed_;
  /// True while any entry of crashed_ is set — keeps the per-entry task
  /// test off the fault-free price absorb.
  bool any_task_crashed_ = false;
  std::vector<std::uint32_t> shard_incarnation_;

  /// Reused scratch, sized at Bind to the widest message: decoded prices,
  /// and the latencies one ShardLatencyUpdate carries.  repair_wire_ holds
  /// the entries of the last repair reply.
  std::vector<double> mu_scratch_;
  std::vector<double> gather_latencies_;
  std::string repair_wire_;
};

}  // namespace lla::runtime
