// ShardAgent: the resource-side participant of the distributed LLA protocol
// (paper Sec. 4.3, "Resource Price Computation"), hosting a contiguous range
// of one or more resources behind one message endpoint (DESIGN.md §7.10).
//
//   1. Receive the computed latencies of all subtasks hosted here.
//   2. Compute a new price mu_r (Eq. 8) for every hosted resource, adapting
//      each resource's step size by the doubling heuristic while congested.
//   3. Send each client controller one batched message carrying the prices
//      (and congestion flags) of exactly the resources it uses here.
//
// The shard width is a deployment choice: the coordinator runs one shard per
// resource by default (the paper's one-agent-per-resource deployment; for a
// network link the paper assigns this role to one endpoint of the link) and
// up to R resources per shard when sharded, which drops the per-round
// message count from O(resources) to O(shards) per task.  Every
// per-resource quantity — share sum, Eq. 8 price, adaptive step multiplier,
// congestion flag, momentum state — is computed independently of the width,
// so every width reaches the same fixed point bit-for-bit in synchronous
// rounds.
//
// The hosted resources' dual state is their slots of the coordinator's
// ControllerShared block (DESIGN.md §7.12): mu, step multipliers advanced
// through StepSchedule's per-component form, and momentum states, reset
// whenever a gradient stream becomes discontinuous (cold restart, repair
// adoption, snapshot restore, incarnation-stale rejection).  Shards own
// disjoint resource ranges, so round lanes never share a slot.
//
// The shard messages are positional (DESIGN.md §7.11): shard membership is
// static, so the agent derives, once, the ordered entry list of each client
// — latency slots for inbound updates, used resources for outbound prices —
// and the wire carries only b1-encoded value arrays.  The broadcast builds
// each client's ShardPriceUpdate in place in the caller's round-lane
// outbox, its payload encoded straight into the outbox's byte buffer; the
// coordinator sends the outboxes in lane order, in synchronous rounds and
// asynchronous ticks alike, and the bus binds each view when it delivers.
// Inbound latencies are routed by a task-id IdIndex built in the
// constructor and decoded into scratch sized once to the widest message.
// An inbound message's payload view is valid for the OnMessage call only,
// and the agent keeps nothing of it.
//
// Every Eq. 8 step also stores the share sum it stepped on in the round's
// shared StepWorkspace, so the coordinator's monitor reduces what the
// shards computed instead of re-summing every share.  A resource that does
// not step — crashed, or held for repair — keeps its last stored sum.
//
// Per-resource fault injection (DESIGN.md §7.7): a single hosted resource can
// be crashed, cold-restarted, checkpointed and restored from a snapshot.  A
// crashed resource's price entries are marked stale in the broadcasts
// (clients keep their cached price) and inbound latency writes to it are
// dropped; a cold restart runs the repair exchange (RepairRequest to the
// resource's clients, freshest-epoch adoption, grace-held broadcast) for
// just that resource.  The shard's endpoint and its other resources keep
// running throughout.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/id_index.h"
#include "core/price_dynamics.h"
#include "model/latency_model.h"
#include "model/workload.h"
#include "net/bus.h"
#include "runtime/recovery.h"
#include "runtime/task_controller.h"

namespace lla::runtime {

/// Step-size and repair settings of the distributed deployment, whose
/// steps always adapt from `gamma0` by the Sec. 5.2 doubling rule.
struct AgentStepConfig {
  double gamma0 = 3.0;
  /// Cold restart: a restarted resource's price entries go out stale for
  /// this many timer ticks (or until the first RepairResponse is absorbed,
  /// whichever first) so a reset mu=0 never reaches the controllers while
  /// repair is in flight.
  int repair_grace_ticks = 3;
};

class ShardAgent {
 public:
  /// The shard owns resources [first_resource, first_resource + count).
  /// `dynamics` selects the accelerated Eq. 8 mu update (DESIGN.md §7.12):
  /// every hosted resource steps through StepComponentDynamics with its own
  /// ComponentDynamicsState, exactly as the engine's price update does.
  ShardAgent(const Workload& workload, const LatencyModel& model,
             std::uint32_t shard, ResourceId first_resource,
             std::size_t count, AgentStepConfig config,
             DynamicsConfig dynamics);

  /// Wires the agent to the bus.  `controller_endpoints[t]` is the endpoint
  /// of task t's controller; `shared` holds the dual state and share sums
  /// the shard writes for its resources (both non-owning; the coordinator
  /// keeps them alive).  Only controllers with subtasks on this shard are
  /// messaged.
  void Bind(net::InProcessBus* bus, net::EndpointId self,
            const std::vector<net::EndpointId>* controller_endpoints,
            ControllerShared* shared);

  /// Handles a ShardLatencyUpdate or RepairResponse destined for this
  /// shard.
  void OnMessage(const net::Message& message);

  /// One price computation for every owned resource + a single batched
  /// broadcast per client controller.  The messages (and any repair
  /// re-requests of a grace-held resource) are built in `outbox`, the
  /// caller's round lane, which the caller sends in lane order (DESIGN.md
  /// §7.11).
  void ComputePricesAndBroadcast(net::Outbox* outbox);

  /// Per-resource fault injection; each aborts loudly when `r` is not
  /// hosted here.  CrashResource freezes the resource: its price entries go
  /// out stale and inbound latency writes to it are dropped.
  /// ColdRestartResource clears the crash with total loss of the resource's
  /// state and starts the repair exchange with its client controllers.
  /// RestoreResource rejoins from a snapshot (bounded staleness, no repair
  /// exchange) and aborts on a snapshot of another resource or shape.
  void CrashResource(ResourceId r);
  void ColdRestartResource(ResourceId r);
  void RestoreResource(ResourceId r, const ResourceAgentSnapshot& snapshot);
  ResourceAgentSnapshot SnapshotResource(ResourceId r) const;
  bool resource_crashed(ResourceId r) const {
    return resource_crashed_[Local(r)] != 0;
  }
  bool resource_awaiting_repair(ResourceId r) const {
    return awaiting_repair_[Local(r)] != 0;
  }

  std::uint32_t shard() const { return shard_; }
  std::size_t resource_count() const { return resources_.size(); }
  bool Hosts(ResourceId r) const {
    return r.value() >= first_ && r.value() < first_ + resources_.size();
  }
  /// One hosted resource's slots of the shared dual state: its price and
  /// its momentum state (all zero while dynamics are plain).
  double mu(ResourceId r) const { return shared_->prices.mu[r.value()]; }
  const ComponentDynamicsState& dynamics_state(ResourceId r) const {
    return shared_->mu_dynamics[r.value()];
  }
  double ShareSum(ResourceId r) const;
  /// The shard's broadcast round: stamped on every price update, shared by
  /// all its resources, and never reset by a single resource's restart.
  std::uint32_t epoch() const { return epoch_; }
  const std::vector<TaskId>& client_tasks() const { return client_tasks_; }

  void set_recovery_hooks(const RecoveryHooks& hooks) { hooks_ = hooks; }

 private:
  std::size_t Local(ResourceId r) const { return r.value() - first_; }
  /// Local() for the fault-injection entry points: aborts loudly (in every
  /// build mode) when `r` is not hosted here.
  std::size_t HostedLocal(ResourceId r, const char* what) const;
  /// Incarnation-gated acceptance of client `c`'s message.
  bool AcceptIncarnation(std::size_t c, std::uint32_t incarnation);
  /// RepairRequest for one restarted resource to each of its client
  /// controllers, added to `outbox`.
  void SendRepairRequest(std::size_t local, net::Outbox* outbox);
  void ApplyLatencyUpdate(std::size_t c,
                          const net::ShardLatencyUpdate& update);
  void ApplyRepairResponse(const net::RepairResponse& repair);
  /// Incarnation-stale traffic from client `c` was rejected: drop the
  /// momentum of every resource that client feeds here (its latency stream
  /// — the gradient input — is discontinuous at the sender's crash
  /// boundary, so built-up velocity must not be replayed into post-crash
  /// gradients).
  void DropClientMomentum(std::size_t c);

  const Workload* workload_;
  const LatencyModel* model_;
  std::uint32_t shard_;
  std::size_t first_;
  AgentStepConfig config_;
  DynamicsConfig dynamics_config_;

  net::InProcessBus* bus_ = nullptr;
  net::EndpointId self_ = 0;
  const std::vector<net::EndpointId>* controller_endpoints_ = nullptr;
  ControllerShared* shared_ = nullptr;
  std::vector<ResourceId> resources_;
  std::vector<TaskId> client_tasks_;  ///< tasks with subtasks here, sorted
  /// Routing: the index of a task id in client_tasks_, or -1 when the task
  /// has no subtask here (the id comes off the wire).
  IdIndex client_index_;
  /// client_resources_[c] = sorted local indices of the resources
  /// client_tasks_[c] uses here; its per-round price update carries exactly
  /// these, positionally (the controller derives the same ascending list).
  std::vector<std::vector<std::uint32_t>> client_resources_;
  /// client_latency_slots_[c] = flat latency slot of each entry of client
  /// c's ShardLatencyUpdate, in the client's local subtask order (the same
  /// order the controller's shard_subtasks_ list emits).
  std::vector<std::vector<std::size_t>> client_latency_slots_;
  /// clients of each resource, as indices into client_tasks_ (repair).
  std::vector<std::vector<std::uint32_t>> resource_clients_;
  /// Highest sender incarnation seen per client (stale rejection), parallel
  /// to client_tasks_.
  std::vector<std::uint32_t> client_incarnation_;

  /// Flattened latest-latency inputs: resource-local slice
  /// [latency_offset_[i], latency_offset_[i+1]) holds the latencies of
  /// workload.resource(resources_[i]).subtasks in hosted order.
  std::vector<double> latencies_;
  std::vector<std::size_t> latency_offset_;
  /// Owning local resource of each flat latency slot.
  std::vector<std::uint32_t> slot_resource_;
  /// Flat slot per hosted subtask id (only this shard's subtasks appear).
  std::unordered_map<std::uint32_t, std::size_t> subtask_slot_;

  /// This round's congestion flags, filled by ComputePricesAndBroadcast
  /// before the per-client sends (scratch; avoids re-deriving share sums).
  std::vector<std::uint8_t> congested_;
  std::uint32_t epoch_ = 0;

  /// Per-resource fault state (all parallel to resources_).  The shard-wide
  /// epoch_ keeps running across single-resource restarts; only the
  /// resource's own dual state resets.
  std::vector<std::uint8_t> resource_crashed_;
  std::vector<std::uint8_t> awaiting_repair_;
  std::vector<std::uint8_t> repair_adopted_;
  std::vector<int> repair_grace_left_;
  std::vector<std::uint32_t> best_repair_epoch_;
  /// True while any entry of resource_crashed_ / awaiting_repair_ is set —
  /// keeps the fault bookkeeping off the fault-free broadcast fast path.
  bool any_resource_faulted_ = false;

  /// Reused scratch, sized in the constructor to the widest message: the
  /// per-client price gathers and the decoded latencies.
  std::vector<double> gather_mu_;
  std::vector<std::uint8_t> gather_congested_;
  std::vector<std::uint8_t> gather_stale_;
  std::vector<double> decode_scratch_;

  RecoveryHooks hooks_;
};

}  // namespace lla::runtime
