#include "runtime/coordinator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace lla::runtime {
namespace {
constexpr std::uint64_t kControllerTimer = 1;
constexpr std::uint64_t kResourceTimer = 2;
constexpr std::uint64_t kMonitorTimer = 3;
// Async mode: the controllers' and the shards' re-optimization periods, and
// the phase stagger between consecutive agents' first ticks.
constexpr double kControllerPeriodMs = 10.0;
constexpr double kResourcePeriodMs = 10.0;
constexpr double kPhaseSpreadMs = 1.0;
}  // namespace

Coordinator::Coordinator(const Workload& workload, const LatencyModel& model,
                         CoordinatorConfig config)
    : workload_(&workload), model_(&model), config_(config) {
  ValidateDynamicsConfig(config_.dynamics, "Coordinator");
  // The state every agent shares, its one adaptive schedule built from
  // step.gamma0 (which its constructor checks) and the engine's defaults.
  controller_shared_ = std::make_unique<ControllerShared>(
      workload, model, config_.solver,
      StepSchedule(StepPolicyKind::kAdaptive, config_.step.gamma0,
                   kDefaultStepMultiplierCap, kDefaultDiminishingTau,
                   "Coordinator"));
  if (config_.metrics != nullptr) {
    rounds_counter_ = config_.metrics->GetCounter("coordinator.rounds");
    samples_counter_ = config_.metrics->GetCounter("coordinator.samples");
    enactments_counter_ =
        config_.metrics->GetCounter("coordinator.enactments");
    sync_round_timer_ = config_.metrics->GetTimer("coordinator.sync_round");
    controllers_timer_ = config_.metrics->GetTimer("coordinator.controllers");
    latency_delivery_timer_ =
        config_.metrics->GetTimer("coordinator.latency_delivery");
    shards_timer_ = config_.metrics->GetTimer("coordinator.shards");
    price_delivery_timer_ =
        config_.metrics->GetTimer("coordinator.price_delivery");
    monitor_timer_ = config_.metrics->GetTimer("coordinator.monitor");
  }
  bus_ = std::make_unique<net::InProcessBus>(config_.bus);
  if (config_.round_threads > 1) {
    round_pool_ = std::make_unique<ThreadPool>(config_.round_threads);
  }
  // One full-size price buffer and one outbox per lane a round can use.
  const int lanes = round_pool_ != nullptr ? round_pool_->size() : 1;
  lane_prices_.assign(static_cast<std::size_t>(lanes),
                      PriceVector::Zero(workload));
  lane_outboxes_.resize(static_cast<std::size_t>(lanes));

  // Create agents, register endpoints into the member vectors, then bind
  // (agents keep pointers into the member vectors, so the vectors must be in
  // their final location and fully populated before binding).
  // Contiguous partitions on both sides: controller host h runs tasks
  // [T*h/H, T*(h+1)/H) and shard s owns resources [R*s/S, R*(s+1)/S).
  // num_shards = 0 runs one host per task and one shard per resource;
  // num_shards = k runs min(k, T) hosts and min(k, R) shards.
  const std::size_t tasks = workload.task_count();
  const std::size_t hosts =
      config_.num_shards <= 0
          ? tasks
          : std::min<std::size_t>(static_cast<std::size_t>(config_.num_shards),
                                  tasks);
  task_host_.assign(tasks, 0);
  controllers_.reserve(hosts);
  for (std::size_t h = 0; h < hosts; ++h) {
    const std::size_t first = tasks * h / hosts;
    const std::size_t last = tasks * (h + 1) / hosts;
    controllers_.push_back(std::make_unique<TaskController>(
        workload, static_cast<std::uint32_t>(h),
        TaskId(static_cast<std::uint32_t>(first)), last - first,
        controller_shared_.get()));
    for (std::size_t t = first; t < last; ++t) {
      task_host_[t] = static_cast<std::uint32_t>(h);
    }
  }
  const std::size_t resources = workload.resource_count();
  const std::size_t shards =
      config_.num_shards <= 0
          ? resources
          : std::min<std::size_t>(static_cast<std::size_t>(config_.num_shards),
                                  std::max<std::size_t>(resources, 1));
  resource_shard_.assign(resources, 0);
  shard_agents_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t first = resources * s / shards;
    const std::size_t last = resources * (s + 1) / shards;
    shard_agents_.push_back(std::make_unique<ShardAgent>(
        workload, model, static_cast<std::uint32_t>(s),
        ResourceId(static_cast<std::uint32_t>(first)), last - first,
        config_.step, config_.dynamics));
    for (std::size_t r = first; r < last; ++r) {
      resource_shard_[r] = static_cast<std::uint32_t>(s);
    }
  }

  // Message endpoints; periodic async timers live on separate endpoints
  // created by ArmAsyncTimers.
  // (kept as members for failure injection)
  controller_endpoints_.resize(controllers_.size());
  for (std::size_t h = 0; h < controllers_.size(); ++h) {
    TaskController* controller = controllers_[h].get();
    controller_endpoints_[h] = bus_->Register(
        "controller/" + std::to_string(h),
        [controller](const net::Message& m) { controller->OnMessage(m); });
  }
  shard_endpoints_.resize(shard_agents_.size());
  for (std::size_t s = 0; s < shard_agents_.size(); ++s) {
    ShardAgent* agent = shard_agents_[s].get();
    shard_endpoints_[s] = bus_->Register(
        "shard/" + std::to_string(s),
        [agent](const net::Message& m) { agent->OnMessage(m); });
  }
  monitor_endpoint_ = bus_->Register(
      "monitor", nullptr, [this](std::uint64_t token) {
        if (token != kMonitorTimer) return;
        RecordSample(bus_->now_ms());
        bus_->ScheduleTimer(monitor_endpoint_, kMonitorPeriodMs,
                            kMonitorTimer);
      });

  for (std::size_t h = 0; h < controllers_.size(); ++h) {
    controllers_[h]->Bind(bus_.get(), controller_endpoints_[h],
                          &shard_endpoints_, &resource_shard_);
  }
  for (std::size_t s = 0; s < shard_agents_.size(); ++s) {
    shard_agents_[s]->Bind(bus_.get(), shard_endpoints_[s],
                           &controller_endpoints_, &task_host_,
                           controller_shared_.get());
  }

  recovery_hooks_ = RecoveryHooks::Resolve(config_.metrics);
  for (auto& controller : controllers_) {
    controller->set_recovery_hooks(recovery_hooks_);
  }
  for (auto& shard : shard_agents_) shard->set_recovery_hooks(recovery_hooks_);
}

std::size_t Coordinator::CheckedId(std::size_t id, std::size_t count,
                                   const char* kind, const char* what) {
  if (id < count) return id;
  std::fprintf(stderr,
               "Coordinator::%s: %s id %zu is out of range (the workload has "
               "%zu %ss)\n",
               what, kind, id, count, kind);
  std::abort();
}

void Coordinator::EmitRecoveryEvent(const char* type,
                                    net::EndpointId endpoint,
                                    bool is_resource, double index,
                                    bool cold) {
  if (config_.trace_sink == nullptr) return;
  obs::TraceEvent event;
  event.type = type;
  event.fields = {
      {"at_ms", bus_->now_ms()},
      {is_resource ? "resource" : "task", index},
      {"cold", cold ? 1.0 : 0.0},
      {"incarnation", static_cast<double>(bus_->incarnation(endpoint))},
  };
  config_.trace_sink->OnEvent(event);
}

void Coordinator::CrashEndpoint(ResourceId resource) {
  // The failing unit is the resource's state inside its shard agent, not
  // the transport: the shard endpoint stays up (its other resources keep
  // exchanging messages), so there is no bus-side crash.
  const std::uint32_t shard = ShardOf(resource, "CrashEndpoint");
  shard_agents_[shard]->CrashResource(resource);
  EmitRecoveryEvent("recovery.crash", shard_endpoints_[shard],
                    /*is_resource=*/true,
                    static_cast<double>(resource.value()), /*cold=*/false);
}

void Coordinator::CrashEndpoint(TaskId task) {
  // The mirror of a resource crash: the task's state inside its controller
  // host fails, and the host endpoint and its other tasks keep running.
  const std::uint32_t host = HostOf(task, "CrashEndpoint");
  controllers_[host]->CrashTask(task);
  EmitRecoveryEvent("recovery.crash", controller_endpoints_[host],
                    /*is_resource=*/false, static_cast<double>(task.value()),
                    /*cold=*/false);
}

void Coordinator::RestartEndpoint(ResourceId resource) {
  const std::uint32_t shard = ShardOf(resource, "RestartEndpoint");
  // Bump first: the repair requests the restart sends must already carry
  // the new incarnation, which the clients adopt as the shard's watermark.
  bus_->BumpIncarnation(shard_endpoints_[shard]);
  shard_agents_[shard]->ColdRestartResource(resource);
  if (recovery_hooks_.restarts != nullptr) {
    recovery_hooks_.restarts->Increment();
  }
  EmitRecoveryEvent("recovery.restart", shard_endpoints_[shard],
                    /*is_resource=*/true,
                    static_cast<double>(resource.value()), /*cold=*/true);
}

void Coordinator::RestartEndpoint(TaskId task) {
  const std::uint32_t host = HostOf(task, "RestartEndpoint");
  // The bump makes the shards reject the host's pre-restart traffic, which
  // carries the task's pre-crash latencies.
  bus_->BumpIncarnation(controller_endpoints_[host]);
  controllers_[host]->ColdRestartTask(task);
  if (recovery_hooks_.restarts != nullptr) {
    recovery_hooks_.restarts->Increment();
  }
  EmitRecoveryEvent("recovery.restart", controller_endpoints_[host],
                    /*is_resource=*/false, static_cast<double>(task.value()),
                    /*cold=*/true);
}

void Coordinator::RestartEndpoint(ResourceId resource,
                                  const ResourceAgentSnapshot& snapshot) {
  const std::uint32_t shard = ShardOf(resource, "RestartEndpoint");
  bus_->BumpIncarnation(shard_endpoints_[shard]);
  shard_agents_[shard]->RestoreResource(resource, snapshot);
  if (recovery_hooks_.restarts != nullptr) {
    recovery_hooks_.restarts->Increment();
  }
  EmitRecoveryEvent("recovery.restart", shard_endpoints_[shard],
                    /*is_resource=*/true,
                    static_cast<double>(resource.value()), /*cold=*/false);
}

void Coordinator::RestartEndpoint(TaskId task,
                                  const TaskControllerSnapshot& snapshot) {
  const std::uint32_t host = HostOf(task, "RestartEndpoint");
  bus_->BumpIncarnation(controller_endpoints_[host]);
  controllers_[host]->RestoreTask(task, snapshot);
  if (recovery_hooks_.restarts != nullptr) {
    recovery_hooks_.restarts->Increment();
  }
  EmitRecoveryEvent("recovery.restart", controller_endpoints_[host],
                    /*is_resource=*/false, static_cast<double>(task.value()),
                    /*cold=*/false);
}

ResourceAgentSnapshot Coordinator::CheckpointResource(
    ResourceId resource) const {
  return shard_agents_[ShardOf(resource, "CheckpointResource")]
      ->SnapshotResource(resource);
}

TaskControllerSnapshot Coordinator::CheckpointController(TaskId task) const {
  return controllers_[HostOf(task, "CheckpointController")]->SnapshotTask(
      task);
}

void Coordinator::PartitionResource(ResourceId resource,
                                    double duration_ms) {
  bus_->BlackoutEndpoint(
      shard_endpoints_[ShardOf(resource, "PartitionResource")],
      bus_->now_ms() + duration_ms);
}

void Coordinator::PartitionController(TaskId task, double duration_ms) {
  bus_->BlackoutEndpoint(
      controller_endpoints_[HostOf(task, "PartitionController")],
      bus_->now_ms() + duration_ms);
}

void Coordinator::CommitLaneOutboxes(int lanes) {
  for (int lane = 0; lane < lanes; ++lane) {
    bus_->SendAll(lane_outboxes_[lane]);
    lane_outboxes_[lane].clear();
  }
}

int Coordinator::RunLanes(std::size_t n,
                          FunctionRef<void(std::size_t, std::size_t)> body) {
  ThreadPool* pool = round_pool_.get();
  const int lanes =
      pool != nullptr ? pool->ParticipantsFor(n, /*min_items_per_thread=*/1)
                      : 1;
  ParallelSweep(pool, static_cast<std::size_t>(lanes), [&](std::size_t lane) {
    const auto [begin, end] = ChunkRange(n, lanes, static_cast<int>(lane));
    for (std::size_t i = begin; i < end; ++i) body(i, lane);
  });
  return lanes;
}

RoundStats Coordinator::RunSyncRound() {
  obs::ScopedTimer timing(sync_round_timer_);
  // Each phase runs disjoint endpoints as lanes with sends deferred to
  // per-lane outboxes; committing the lanes in order reproduces one
  // endpoint-order send sequence (lanes own contiguous ascending chunks), so
  // the bus sees the same (seq, payload) stream, draws its drop/jitter
  // randoms in the same order, and delivers serially: the fixed point is
  // bit-identical at any thread count (DESIGN.md §7.11).  The solver's one
  // mutable cache refresh runs serially first.  The five phase timers split
  // the round; only the round counter and the return fall outside them.
  int lanes = 0;
  {
    obs::ScopedTimer phase(controllers_timer_);
    controller_shared_->solver.PrepareSolve();
    lanes = RunLanes(controllers_.size(),
                     [&](std::size_t h, std::size_t lane) {
                       controllers_[h]->AllocateAndSend(&lane_prices_[lane],
                                                        &lane_outboxes_[lane]);
                     });
  }
  {
    obs::ScopedTimer phase(latency_delivery_timer_);
    CommitLaneOutboxes(lanes);
    bus_->RunAll();
  }
  {
    obs::ScopedTimer phase(shards_timer_);
    lanes = RunLanes(shard_agents_.size(),
                     [&](std::size_t s, std::size_t lane) {
                       shard_agents_[s]->ComputePricesAndBroadcast(
                           &lane_outboxes_[lane]);
                     });
  }
  {
    obs::ScopedTimer phase(price_delivery_timer_);
    CommitLaneOutboxes(lanes);
    bus_->RunAll();
  }
  ++round_;
  if (rounds_counter_ != nullptr) rounds_counter_->Increment();
  {
    obs::ScopedTimer phase(monitor_timer_);
    RecordSample(bus_->now_ms());
  }
  return last_sample_;
}

RunResult Coordinator::RunSync(int max_rounds) {
  assert(max_rounds >= 1);
  RunResult result;
  for (int i = 0; i < max_rounds; ++i) {
    const RoundStats stats = RunSyncRound();
    result.final_utility = stats.total_utility;
    if (converged_) break;
  }
  result.converged = converged_;
  result.iterations = round_;
  result.final_feasibility = CurrentFeasibility();
  return result;
}

void Coordinator::ArmAsyncTimers() {
  if (async_armed_) return;
  async_armed_ = true;
  // Controller hosts fire first (they own the initial latencies), staggered
  // so no two agents act at the same instant.  Each tick runs the round's
  // entry point on lane 0 and sends its outbox before re-arming, so the
  // sends leave in the order the agent made them.
  double phase = 0.0;
  for (std::size_t h = 0; h < controllers_.size(); ++h) {
    TaskController* controller = controllers_[h].get();
    const net::EndpointId endpoint =
        bus_->Register("controller-timer/" + std::to_string(h), nullptr,
                       [this, controller, endpoint_slot = h](std::uint64_t) {
                         controller_shared_->solver.PrepareSolve();
                         controller->AllocateAndSend(&lane_prices_[0],
                                                     &lane_outboxes_[0]);
                         CommitLaneOutboxes(1);
                         bus_->ScheduleTimer(
                             controller_timer_endpoints_[endpoint_slot],
                             kControllerPeriodMs, kControllerTimer);
                       });
    controller_timer_endpoints_.push_back(endpoint);
    bus_->ScheduleTimer(endpoint, phase, kControllerTimer);
    phase += kPhaseSpreadMs;
  }
  phase = 0.5 * kResourcePeriodMs;
  for (std::size_t s = 0; s < shard_agents_.size(); ++s) {
    ShardAgent* agent = shard_agents_[s].get();
    const net::EndpointId endpoint =
        bus_->Register("shard-timer/" + std::to_string(s), nullptr,
                       [this, agent, endpoint_slot = s](std::uint64_t) {
                         agent->ComputePricesAndBroadcast(&lane_outboxes_[0]);
                         CommitLaneOutboxes(1);
                         bus_->ScheduleTimer(
                             shard_timer_endpoints_[endpoint_slot],
                             kResourcePeriodMs, kResourceTimer);
                       });
    shard_timer_endpoints_.push_back(endpoint);
    bus_->ScheduleTimer(endpoint, phase, kResourceTimer);
    phase += kPhaseSpreadMs;
  }
  bus_->ScheduleTimer(monitor_endpoint_, kMonitorPeriodMs, kMonitorTimer);
}

void Coordinator::RunAsync(double duration_ms) {
  ArmAsyncTimers();
  bus_->RunUntil(bus_->now_ms() + duration_ms);
}

Assignment Coordinator::CurrentAssignment() const {
  return controller_shared_->latencies;
}

double Coordinator::CurrentUtility() const {
  return TotalUtility(*workload_, controller_shared_->latencies,
                      config_.solver.variant);
}

FeasibilityReport Coordinator::CurrentFeasibility() const {
  return CheckFeasibility(*workload_, *model_, controller_shared_->latencies,
                          ConvergenceConfig::feasibility_tol);
}

void Coordinator::RecordSample(double at_ms) {
  // The agents filled the workspace as they computed (controllers their
  // tasks' utilities and path latencies, shards their share sums); the
  // monitor only reduces it, with the engine's own reduction.
  StepWorkspace& evaluation = controller_shared_->evaluation;
  ReduceStepWorkspace(*workload_, ConvergenceConfig::feasibility_tol,
                      &evaluation);
  const double utility = evaluation.total_utility;
  const FeasibilitySummary& summary = evaluation.feasibility;
  last_sample_.round = round_;
  last_sample_.at_ms = at_ms;
  last_sample_.total_utility = utility;
  last_sample_.max_resource_excess = summary.max_resource_excess;
  last_sample_.max_path_ratio = summary.max_path_ratio;
  last_sample_.feasible = summary.feasible;
  if (config_.record_history) history_.push_back(last_sample_);
  if (samples_counter_ != nullptr) samples_counter_->Increment();
  if (config_.trace_sink != nullptr) {
    trace_.iteration = round_;
    trace_.at_ms = at_ms;
    FillIterationTrace(evaluation, controller_shared_->prices,
                       controller_shared_->schedule, &trace_);
    config_.trace_sink->OnIteration(trace_);
  }
  // The window (which records every sample) plus feasibility.  The engine's
  // complementary-slackness test waits for ROADMAP's first item: it moves
  // dist_solve's rounds.
  const bool settled = UtilityWindowSettled(&recent_utilities_, utility,
                                            config_.convergence.rel_tol);
  converged_ = settled && summary.feasible;
  MaybeEnact(at_ms);
}

void Coordinator::MaybeEnact(double at_ms) {
  const double utility = recent_utilities_.back();
  if (!enactments_.empty()) {
    const double last = enactments_.back().utility;
    const double scale = std::max(1.0, std::fabs(last));
    if (std::fabs(utility - last) <= config_.enactment_threshold * scale) {
      return;
    }
  }
  Enactment enactment;
  enactment.round = round_;
  enactment.at_ms = at_ms;
  enactment.utility = utility;
  enactment.latencies = controller_shared_->latencies;
  enactments_.push_back(std::move(enactment));
  if (enactments_counter_ != nullptr) enactments_counter_->Increment();
}

}  // namespace lla::runtime
