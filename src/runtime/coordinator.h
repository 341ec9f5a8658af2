// Coordinator: wires a workload's task controllers and shard agents onto an
// InProcessBus and drives the distributed LLA iteration.
//
// One agent type serves the resource side: a ShardAgent hosting a
// contiguous range of resources, from one resource per shard (the paper's
// one-agent-per-resource deployment, the default) up to all R in one shard
// (CoordinatorConfig::num_shards).  Every width reaches the same fixed point
// bit-for-bit in synchronous rounds, and every fault-injection surface is
// defined at every width.
//
// Two execution modes:
//   * Synchronous rounds — the paper's iteration structure: all controllers
//     allocate and send, messages flush, all shards price and send,
//     messages flush.  With a zero-delay bus this matches the single-process
//     LlaEngine up to the one-round staleness of the congestion flags used
//     for path step sizes.  Both fan-outs run as lanes (round_threads); one
//     thread runs one lane.
//   * Asynchronous — every agent runs on its own periodic timer with
//     staggered phases while the bus applies delay, jitter and drops; this
//     is the regime a real deployment would see.  A tick runs the same
//     entry point as a round, on lane 0.
//
// The task controllers share one LatencySolver, keyed to
// LatencyModel::revision(), so a model correction between rounds reaches
// every controller's next solve without a call on the coordinator.
//
// The monitor reads no agent's memory.  Every round's evaluation lives in
// one StepWorkspace (ControllerShared::evaluation) that the agents fill as
// they compute: each controller its task's utility and its paths'
// latencies after its solve, each shard the share sums of the resources it
// steps.  A sample (RecordSample, after a sync round or on the async
// monitor timer) only runs ReduceStepWorkspace over it, the engine's own
// reduction, so on a fault-free synchronous round over a lossless bus it
// equals FillStepWorkspace(CurrentAssignment()) bit for bit (DESIGN.md
// §7.11).  The dual state is one optimizer state in the engine's layout,
// in the same shared block: the PriceVector that CurrentPrices() returns,
// one adaptive StepSchedule and one mu momentum state per resource, each
// slot written by the one agent that owns it.
//
// The coordinator also implements the enactment policy of Sec. 4.4: the
// running allocation is only "enacted" (recorded for the executing system)
// when utility has improved by more than a threshold since the last
// enactment, so a converged system stops thrashing scheduling parameters.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "common/parallel.h"
#include "core/engine.h"
#include "model/evaluation.h"
#include "model/latency_model.h"
#include "model/workload.h"
#include "net/bus.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/shard_agent.h"
#include "runtime/task_controller.h"

namespace lla::runtime {

/// Async mode: the monitor's sampling period (virtual time).
inline constexpr double kMonitorPeriodMs = 10.0;

struct CoordinatorConfig {
  AgentStepConfig step;
  LatencySolverConfig solver;
  net::BusConfig bus;
  ConvergenceConfig convergence;
  /// Accelerated price dynamics for the distributed Eq. 8 mu updates
  /// (DESIGN.md §7.12): one velocity/base/phase state per resource in the
  /// shared block, which the resource's shard steps through the same
  /// StepComponentDynamics as the engine (beta = 0 or kPlain keeps the
  /// classic update bit-for-bit).  The momentum must be finite and in
  /// [0, 1); the constructor aborts otherwise.  Path lambdas stay plain:
  /// the task controllers' Eq. 9 update ignores this config.
  DynamicsConfig dynamics;
  /// Shard width (DESIGN.md §7.10): partition the resources into this many
  /// shard agents, each owning a contiguous range and exchanging one
  /// batched message per peer per round — O(shards) instead of
  /// O(resources) coordinator round traffic.  Clamped to the resource
  /// count.  0 (the default) runs one shard per resource, the paper's
  /// one-agent-per-resource deployment.
  int num_shards = 0;
  /// Round lanes (DESIGN.md §7.11): every RunSyncRound runs its
  /// controllers, then its shards, as lanes of contiguous ascending chunks
  /// whose sends are deferred to per-lane outboxes and committed serially
  /// in lane order; the bus then delivers serially.  With N > 1 the
  /// coordinator owns an N-thread pool and the lanes run across it; with 1
  /// one lane runs inline.  The fixed point is bit-identical at any thread
  /// count, on any bus (drop and jitter randoms are drawn in the same send
  /// order).  Async mode ignores it.
  int round_threads = 1;
  /// Relative utility change that triggers an enactment.
  double enactment_threshold = 0.01;
  bool record_history = true;
  /// Receives one IterationTrace per monitor sample (sync round or async
  /// monitor tick), filled from the shared workspace, prices and step
  /// schedule as the engine fills its own.  Null disables tracing
  /// (non-owning; must outlive the coordinator).
  obs::TraceSink* trace_sink = nullptr;
  /// Registry for coordinator.rounds / coordinator.samples /
  /// coordinator.enactments, the coordinator.sync_round timer and its five
  /// phase timers (coordinator.controllers, .latency_delivery, .shards,
  /// .price_delivery, .monitor) and the recovery.* counters.  The bus's
  /// per-message bus.* counters are not included: a caller that wants them
  /// sets bus.metrics too (it may be the same registry).  Null disables
  /// instrumentation (non-owning; must outlive the coordinator).
  obs::MetricRegistry* metrics = nullptr;
};

struct RoundStats {
  int round = 0;
  double at_ms = 0.0;
  double total_utility = 0.0;
  double max_resource_excess = 0.0;
  double max_path_ratio = 0.0;
  bool feasible = false;
};

struct Enactment {
  int round = 0;
  double at_ms = 0.0;
  double utility = 0.0;
  Assignment latencies;
};

class Coordinator {
 public:
  Coordinator(const Workload& workload, const LatencyModel& model,
              CoordinatorConfig config = {});

  /// One synchronous protocol round; returns its sample, whatever
  /// record_history says.
  RoundStats RunSyncRound();

  /// Synchronous rounds until convergence (per config) or `max_rounds`.
  RunResult RunSync(int max_rounds);

  /// Advances the asynchronous deployment by `duration_ms` of virtual time
  /// (timers for all agents are armed on first call).
  void RunAsync(double duration_ms);

  /// Failure injection: partitions the message endpoint of the task
  /// controller, or of the shard agent hosting the resource, for
  /// `duration_ms` of virtual time from now (messages to and from it are
  /// dropped; its local timers keep running, so it resumes with stale state
  /// when the partition heals).  A network partitions hosts, not resources:
  /// the hosting shard's other resources are cut off too.
  void PartitionResource(ResourceId resource, double duration_ms);
  void PartitionController(TaskId task, double duration_ms);

  /// Crash-restart fault injection (DESIGN.md §7.7).  A task controller
  /// crashes with its endpoint: CrashEndpoint halts it and black-holes its
  /// traffic open-endedly.  A resource crashes inside its hosting shard
  /// agent, whose endpoint and other resources keep running: its price
  /// entries go out stale and inbound latency writes to it are dropped.
  /// RestartEndpoint clears the crash, bumps the endpoint's incarnation
  /// (the controller's, or the hosting shard's — so peers reject pre-crash
  /// prices still in flight as stale), and rejoins either cold — total
  /// state loss followed by the peer repair exchange — or from a snapshot
  /// previously taken by CheckpointResource/CheckpointController (bounded
  /// staleness, no repair needed).  Each restart increments
  /// recovery.restarts and emits a "recovery.restart" trace event.  Every
  /// entry point aborts loudly on an id outside the workload.
  void CrashEndpoint(ResourceId resource);
  void CrashEndpoint(TaskId task);
  void RestartEndpoint(ResourceId resource);
  void RestartEndpoint(TaskId task);
  void RestartEndpoint(ResourceId resource,
                       const ResourceAgentSnapshot& snapshot);
  void RestartEndpoint(TaskId task, const TaskControllerSnapshot& snapshot);
  ResourceAgentSnapshot CheckpointResource(ResourceId resource) const;
  TaskControllerSnapshot CheckpointController(TaskId task) const;

  /// The latest latency assignment across all controllers (a copy of their
  /// shared latency buffer).
  Assignment CurrentAssignment() const;
  double CurrentUtility() const;
  FeasibilityReport CurrentFeasibility() const;
  bool Converged() const { return converged_; }

  /// The distributed system's current dual state: the shared PriceVector
  /// the shard agents (mu) and the task controllers (lambda) write.
  const PriceVector& CurrentPrices() const {
    return controller_shared_->prices;
  }

  /// The evaluation the agents filled (each controller's utility and path
  /// latency slots, each shard's share sums) as last reduced by the
  /// monitor.
  const StepWorkspace& evaluation() const {
    return controller_shared_->evaluation;
  }
  const std::vector<RoundStats>& history() const { return history_; }
  const std::vector<Enactment>& enactments() const { return enactments_; }
  net::InProcessBus& bus() { return *bus_; }
  const TaskController& controller(TaskId task) const {
    return *controllers_[task.value()];
  }
  std::size_t shard_count() const { return shard_agents_.size(); }
  const ShardAgent& shard_agent(std::size_t shard) const {
    return *shard_agents_[shard];
  }
  /// The shard agent hosting `resource` (aborts loudly on an id outside the
  /// workload).
  const ShardAgent& shard_of(ResourceId resource) const {
    return *shard_agents_[ShardOf(resource, "shard_of")];
  }

 private:
  /// The one id check of the fault-injection API: returns `id` when it is
  /// below `count` and otherwise aborts loudly in every build mode (an
  /// out-of-range id would index the per-endpoint tables out of bounds).
  static std::size_t CheckedId(std::size_t id, std::size_t count,
                               const char* kind, const char* what);
  std::uint32_t ShardOf(ResourceId resource, const char* what) const {
    return resource_shard_[CheckedId(resource.value(), resource_shard_.size(),
                                     "resource", what)];
  }
  std::size_t TaskIndex(TaskId task, const char* what) const {
    return CheckedId(task.value(), controllers_.size(), "task", what);
  }
  void RecordSample(double at_ms);
  void MaybeEnact(double at_ms);
  void ArmAsyncTimers();
  void EmitRecoveryEvent(const char* type, net::EndpointId endpoint,
                         bool is_resource, double index, bool cold);
  /// Runs `body(i, lane)` for every endpoint index i in [0, n), split into
  /// lanes of contiguous ascending chunks (one lane per participant of the
  /// round pool, or one inline lane without it); returns the lane count.
  int RunLanes(std::size_t n,
               FunctionRef<void(std::size_t, std::size_t)> body);
  /// Hands the deferred messages of lanes [0, lanes) to the bus in lane
  /// order (= the endpoint order, since lanes own contiguous ascending
  /// chunks), one admission pass per lane, and clears them.
  void CommitLaneOutboxes(int lanes);

  const Workload* workload_;
  const LatencyModel* model_;
  CoordinatorConfig config_;
  std::unique_ptr<net::InProcessBus> bus_;
  /// The state all agents share; must precede controllers_ and
  /// shard_agents_ (they hold pointers into it).
  std::unique_ptr<ControllerShared> controller_shared_;
  std::vector<std::unique_ptr<TaskController>> controllers_;
  std::vector<std::unique_ptr<ShardAgent>> shard_agents_;
  net::EndpointId monitor_endpoint_ = 0;
  std::vector<net::EndpointId> controller_endpoints_;
  std::vector<net::EndpointId> shard_endpoints_;
  /// The shard owning each resource.
  std::vector<std::uint32_t> resource_shard_;
  std::vector<net::EndpointId> controller_timer_endpoints_;
  std::vector<net::EndpointId> shard_timer_endpoints_;
  /// Round pool (null when config.round_threads <= 1) and the lane
  /// scratch, sized once for the widest round: a full-size PriceVector per
  /// lane (tasks sharing a resource write the same mu slot, so lanes cannot
  /// share one) and a deferred-send outbox per lane.
  std::unique_ptr<ThreadPool> round_pool_;
  std::vector<PriceVector> lane_prices_;
  std::vector<net::Outbox> lane_outboxes_;
  bool async_armed_ = false;
  int round_ = 0;
  bool converged_ = false;
  std::deque<double> recent_utilities_;
  /// The latest sample, kept whether or not history_ records it.
  RoundStats last_sample_;
  std::vector<RoundStats> history_;
  std::vector<Enactment> enactments_;

  /// Observability handles (null when config.metrics is null) and the
  /// reused trace record buffer.
  obs::Counter* rounds_counter_ = nullptr;
  obs::Counter* samples_counter_ = nullptr;
  obs::Counter* enactments_counter_ = nullptr;
  obs::Timer* sync_round_timer_ = nullptr;
  /// The phases of a sync round, in order: controller solve and encode,
  /// latency commit and delivery, shard prices and encode, price commit
  /// and delivery, and the monitor's sample.
  obs::Timer* controllers_timer_ = nullptr;
  obs::Timer* latency_delivery_timer_ = nullptr;
  obs::Timer* shards_timer_ = nullptr;
  obs::Timer* price_delivery_timer_ = nullptr;
  obs::Timer* monitor_timer_ = nullptr;
  RecoveryHooks recovery_hooks_;
  obs::IterationTrace trace_;
};

}  // namespace lla::runtime
