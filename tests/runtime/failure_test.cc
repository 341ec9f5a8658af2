// Failure-injection tests: the price protocol must recover from endpoint
// blackouts (crashed or partitioned nodes) because every message carries
// absolute state — the first exchange after healing repairs everything.
// Crash-restart (DESIGN.md §7.7) is stronger: the node loses its state, so
// recovery additionally needs the incarnation protocol (peers discard its
// pre-crash prices as stale) and either the repair exchange (cold restart)
// or a snapshot (checkpoint restart).
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/bus.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/coordinator.h"
#include "workloads/paper.h"
#include "workloads/random.h"

namespace lla::runtime {
namespace {

/// Collects recovery.* trace events (ignores per-iteration records).
class EventCollector final : public obs::TraceSink {
 public:
  void OnIteration(const obs::IterationTrace&) override {}
  void OnEvent(const obs::TraceEvent& event) override {
    types.push_back(event.type);
  }
  std::vector<std::string> types;
};

std::uint64_t CounterValue(obs::MetricRegistry* metrics, const char* name) {
  return metrics->GetCounter(name)->value();
}

TEST(BusBlackoutTest, DropsMessagesDuringWindow) {
  net::InProcessBus bus;
  int received = 0;
  const net::EndpointId a =
      bus.Register("a", [&](const net::Message&) { ++received; });
  const net::EndpointId b = bus.Register("b", nullptr);

  bus.BlackoutEndpoint(a, 10.0);
  EXPECT_TRUE(bus.IsBlackedOut(a));

  net::Message message;
  message.sender = b;
  message.receiver = a;
  message.payload = net::RepairRequest{ResourceId(0u)};
  bus.Send(message);
  bus.RunAll();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(bus.stats().dropped, 1u);

  // After the window, delivery resumes.
  bus.RunUntil(11.0);
  EXPECT_FALSE(bus.IsBlackedOut(a));
  bus.Send(message);
  bus.RunAll();
  EXPECT_EQ(received, 1);
}

TEST(BusBlackoutTest, InFlightMessagesIntoWindowAreDropped) {
  net::BusConfig config;
  config.base_delay_ms = 5.0;
  net::InProcessBus bus(config);
  int received = 0;
  const net::EndpointId a =
      bus.Register("a", [&](const net::Message&) { ++received; });
  net::Message message;
  message.sender = a;
  message.receiver = a;
  message.payload = net::RepairRequest{ResourceId(0u)};
  bus.Send(message);            // delivery at t=5
  bus.BlackoutEndpoint(a, 8.0);  // window covers the delivery
  bus.RunAll();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(bus.stats().dropped, 1u);
}

TEST(BusBlackoutTest, TimersKeepFiringDuringBlackout) {
  net::InProcessBus bus;
  int fired = 0;
  const net::EndpointId a =
      bus.Register("a", nullptr, [&](std::uint64_t) { ++fired; });
  bus.BlackoutEndpoint(a, 100.0);
  bus.ScheduleTimer(a, 10.0, 1);
  bus.RunUntil(20.0);
  EXPECT_EQ(fired, 1);  // the node is partitioned, not stopped
}

// Pins the blackout boundary semantics the crash-restart machinery relies
// on: a window set via BlackoutEndpoint(e, T) is half-open [now, T) — a
// message delivered at exactly t == T is DELIVERED (Dispatch advances the
// clock before the receiver check, and IsBlackedOut uses strict <), while
// one delivered strictly inside the window drops.
TEST(BusBlackoutTest, WindowIsHalfOpenAtExpiry) {
  net::BusConfig config;
  config.base_delay_ms = 5.0;
  net::InProcessBus bus(config);
  int received = 0;
  const net::EndpointId a =
      bus.Register("a", [&](const net::Message&) { ++received; });
  const net::EndpointId b = bus.Register("b", nullptr);
  net::Message message;
  message.sender = b;  // healthy sender: the drop decision is receiver-side
  message.receiver = a;
  message.payload = net::RepairRequest{ResourceId(0u)};

  // Send first: a message sent while the receiver is already dark is
  // dropped at Send time and never tests the delivery-side boundary.
  bus.Send(message);             // sent at t=0, delivery at exactly t=5.0
  bus.BlackoutEndpoint(a, 5.0);  // window [0, 5) covers up to the delivery
  bus.RunAll();
  EXPECT_EQ(received, 1);  // boundary delivery goes through
  EXPECT_EQ(bus.stats().dropped, 0u);

  const double until = bus.now_ms() + 5.0 + 0.25;
  bus.Send(message);  // delivery lands 0.25 ms inside the window
  bus.BlackoutEndpoint(a, until);
  bus.RunAll();
  EXPECT_EQ(received, 1);  // still 1: the in-window delivery dropped
  EXPECT_EQ(bus.stats().dropped, 1u);
  EXPECT_TRUE(bus.IsBlackedOut(a));  // clock is at 10.0, inside the window
  bus.RunUntil(until);
  EXPECT_FALSE(bus.IsBlackedOut(a));  // now == until => no longer out
}

TEST(FailureRecoveryTest, ResourcePartitionHealsAndReconverges) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  CoordinatorConfig config;
  config.step.gamma0 = 3.0;
  config.bus.base_delay_ms = 1.0;
  config.bus.seed = 3;
  Coordinator coordinator(w, model, config);

  // Converge, then partition the busiest resource for 5 s of virtual time.
  coordinator.RunAsync(250000.0);
  ASSERT_TRUE(coordinator.Converged());
  const double before = coordinator.CurrentUtility();

  coordinator.PartitionResource(ResourceId(0u), 5000.0);
  coordinator.RunAsync(5000.0);
  // During the partition the controllers stop hearing resource 0's price;
  // they keep optimizing against a stale mu.  After healing, the system
  // must return to the same optimum.
  coordinator.RunAsync(250000.0);
  EXPECT_TRUE(coordinator.Converged());
  EXPECT_TRUE(coordinator.CurrentFeasibility().feasible);
  EXPECT_NEAR(coordinator.CurrentUtility(), before,
              0.01 * std::fabs(before));
  EXPECT_GT(coordinator.bus().stats().dropped, 0u);
}

TEST(FailureRecoveryTest, ControllerPartitionHealsAndReconverges) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  CoordinatorConfig config;
  config.step.gamma0 = 3.0;
  config.bus.base_delay_ms = 1.0;
  config.bus.seed = 5;
  Coordinator coordinator(w, model, config);
  coordinator.RunAsync(250000.0);
  ASSERT_TRUE(coordinator.Converged());
  const double before = coordinator.CurrentUtility();

  coordinator.PartitionController(TaskId(1u), 8000.0);
  coordinator.RunAsync(8000.0);
  coordinator.RunAsync(250000.0);
  EXPECT_TRUE(coordinator.Converged());
  EXPECT_TRUE(coordinator.CurrentFeasibility().feasible);
  EXPECT_NEAR(coordinator.CurrentUtility(), before,
              0.01 * std::fabs(before));
}

TEST(FailureRecoveryTest, RepeatedPartitionsDoNotWedgeTheProtocol) {
  auto workload = MakePrototypeWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  CoordinatorConfig config;
  config.step.gamma0 = 3.0;
  config.bus.base_delay_ms = 1.0;
  config.bus.seed = 7;
  Coordinator coordinator(w, model, config);
  for (int round = 0; round < 5; ++round) {
    coordinator.PartitionResource(
        ResourceId(static_cast<std::size_t>(round % 3)), 2000.0);
    coordinator.RunAsync(30000.0);
  }
  coordinator.RunAsync(120000.0);
  EXPECT_TRUE(coordinator.CurrentFeasibility().feasible);
  // Fast subtasks end at the uncorrected equilibrium as usual.
  const Assignment assignment = coordinator.CurrentAssignment();
  EXPECT_NEAR(model.share(SubtaskId(0u)).Share(assignment[0]), 0.2857,
              0.02);
}

// --- Crash-restart recovery (DESIGN.md §7.7).

CoordinatorConfig RecoveryConfig(obs::MetricRegistry* metrics,
                                 obs::TraceSink* sink = nullptr) {
  CoordinatorConfig config;
  config.step.gamma0 = 3.0;
  // A grace window that covers the repair round trip under the jitter
  // below (the default 3 ticks assumes a near-zero-delay bus).
  config.step.repair_grace_ticks = 12;
  config.bus.base_delay_ms = 1.0;
  // Jitter much larger than the outage below: some prices the agent sent
  // before its crash are still in flight when it restarts, so they arrive
  // AFTER the repair exchange fast-forwarded the controllers' incarnation
  // watermarks — the stale-rejection path must fire, observably.
  config.bus.jitter_ms = 60.0;
  config.bus.seed = 13;
  config.metrics = metrics;
  config.trace_sink = sink;
  return config;
}

// Cold restart of every resource, one at a time: total state loss,
// repair exchange, stale pre-crash prices rejected, and re-convergence to
// the no-failure utility within 1e-6 (relative).
TEST(CrashRestartTest, ColdRestartOfEachResourceAgentReconverges) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);

  // The no-failure reference: same config, no fault injected.
  obs::MetricRegistry ref_metrics;
  Coordinator reference(w, model, RecoveryConfig(&ref_metrics));
  reference.RunAsync(250000.0);
  ASSERT_TRUE(reference.Converged());
  const double no_failure = reference.CurrentUtility();

  for (std::size_t r = 0; r < w.resource_count(); ++r) {
    SCOPED_TRACE(::testing::Message() << "resource " << r);
    obs::MetricRegistry metrics;
    EventCollector events;
    Coordinator coordinator(w, model, RecoveryConfig(&metrics, &events));
    coordinator.RunAsync(250000.0);
    ASSERT_TRUE(coordinator.Converged());

    const ShardAgent& host = coordinator.shard_of(ResourceId(r));
    coordinator.CrashEndpoint(ResourceId(r));
    EXPECT_TRUE(host.resource_crashed(ResourceId(r)));
    coordinator.RunAsync(2.0);  // much shorter than the in-flight tail
    coordinator.RestartEndpoint(ResourceId(r));  // cold: state lost
    EXPECT_FALSE(host.resource_crashed(ResourceId(r)));
    coordinator.RunAsync(250000.0);

    EXPECT_TRUE(coordinator.Converged());
    EXPECT_TRUE(coordinator.CurrentFeasibility().feasible);
    EXPECT_NEAR(coordinator.CurrentUtility(), no_failure,
                1e-6 * std::fabs(no_failure));

    // The incarnation protocol observably rejected pre-crash prices, the
    // repair exchange ran, and the restart was counted and traced.
    EXPECT_EQ(CounterValue(&metrics, "recovery.restarts"), 1u);
    EXPECT_GE(CounterValue(&metrics, "recovery.stale_rejected"), 1u);
    EXPECT_GE(CounterValue(&metrics, "recovery.repair_rounds"), 1u);
    // Stale is not malformed: crash traffic never trips the decoders.
    EXPECT_EQ(CounterValue(&metrics, "recovery.malformed_rejected"), 0u);
    EXPECT_EQ(std::count(events.types.begin(), events.types.end(),
                         "recovery.crash"),
              1);
    EXPECT_EQ(std::count(events.types.begin(), events.types.end(),
                         "recovery.restart"),
              1);
  }
}

// Checkpoint restart: the agent resumes from a snapshot taken before the
// crash — bounded staleness, no repair exchange needed.
TEST(CrashRestartTest, CheckpointRestartSkipsRepairAndReconverges) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  obs::MetricRegistry metrics;
  Coordinator coordinator(w, model, RecoveryConfig(&metrics));
  coordinator.RunAsync(250000.0);
  ASSERT_TRUE(coordinator.Converged());
  const double before = coordinator.CurrentUtility();

  const ResourceId victim(0u);
  const ResourceAgentSnapshot snapshot =
      coordinator.CheckpointResource(victim);
  EXPECT_EQ(snapshot.resource, victim);

  coordinator.CrashEndpoint(victim);
  coordinator.RunAsync(25.0);
  coordinator.RestartEndpoint(victim, snapshot);
  coordinator.RunAsync(250000.0);

  EXPECT_TRUE(coordinator.Converged());
  EXPECT_TRUE(coordinator.CurrentFeasibility().feasible);
  EXPECT_NEAR(coordinator.CurrentUtility(), before,
              1e-6 * std::fabs(before));
  EXPECT_EQ(CounterValue(&metrics, "recovery.restarts"), 1u);
  // Restoring from the snapshot needs no peer repair.
  EXPECT_EQ(CounterValue(&metrics, "recovery.repair_rounds"), 0u);
}

// Controller crash-restart: controllers rebuild their price cache from the
// resources' unprompted periodic broadcasts, so a cold controller restart
// needs no explicit repair exchange either.
TEST(CrashRestartTest, ColdControllerRestartReconverges) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  obs::MetricRegistry metrics;
  Coordinator coordinator(w, model, RecoveryConfig(&metrics));
  coordinator.RunAsync(250000.0);
  ASSERT_TRUE(coordinator.Converged());
  const double before = coordinator.CurrentUtility();

  coordinator.CrashEndpoint(TaskId(1u));
  coordinator.RunAsync(25.0);
  coordinator.RestartEndpoint(TaskId(1u));
  coordinator.RunAsync(250000.0);

  EXPECT_TRUE(coordinator.Converged());
  EXPECT_TRUE(coordinator.CurrentFeasibility().feasible);
  EXPECT_NEAR(coordinator.CurrentUtility(), before,
              1e-6 * std::fabs(before));
  EXPECT_EQ(CounterValue(&metrics, "recovery.restarts"), 1u);
}

// Sharded per-resource fault injection (DESIGN.md §7.10-7.11): crashing a
// resource inside a ShardAgent freezes only that resource — the shard's
// endpoint stays up, its other resources keep exchanging batched messages —
// and a cold restart runs the repair exchange for just that resource and
// reconverges to the no-failure utility.
TEST(CrashRestartTest, ShardedColdRestartOfOneResourceReconverges) {
  RandomWorkloadConfig workload_config;
  workload_config.seed = 7;
  workload_config.num_resources = 16;
  workload_config.num_tasks = 12;
  workload_config.min_subtasks = 12;
  workload_config.max_subtasks = 16;
  auto workload = MakeRandomWorkload(workload_config);
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);

  auto sharded_config = [](obs::MetricRegistry* metrics,
                           obs::TraceSink* sink) {
    CoordinatorConfig config;
    config.step.gamma0 = 3.0;
    config.bus.base_delay_ms = 0.0;
    config.num_shards = 4;
    // Tighter than the default 1e-5 so both runs settle close enough for
    // the 1e-6-relative utility comparison below.
    config.convergence.rel_tol = 1e-8;
    config.metrics = metrics;
    config.trace_sink = sink;
    return config;
  };

  obs::MetricRegistry ref_metrics;
  Coordinator reference(w, model, sharded_config(&ref_metrics, nullptr));
  ASSERT_EQ(reference.shard_count(), 4u);
  const RunResult reference_run = reference.RunSync(4000);
  ASSERT_TRUE(reference_run.converged);
  const double no_failure = reference.CurrentUtility();

  obs::MetricRegistry metrics;
  EventCollector events;
  Coordinator coordinator(w, model, sharded_config(&metrics, &events));
  ASSERT_TRUE(coordinator.RunSync(4000).converged);

  const ResourceId victim(5u);
  std::size_t shard = 0;
  while (!coordinator.shard_agent(shard).Hosts(victim)) ++shard;
  const ShardAgent& agent = coordinator.shard_agent(shard);
  ASSERT_GE(agent.resource_count(), 2u);  // the shard hosts survivors too

  coordinator.CrashEndpoint(victim);
  EXPECT_TRUE(agent.resource_crashed(victim));
  // The shard endpoint stays up through the outage: its round epoch keeps
  // advancing while the crashed resource's price goes out stale.
  const std::uint32_t epoch_at_crash = agent.epoch();
  for (int round = 0; round < 5; ++round) coordinator.RunSyncRound();
  EXPECT_GT(agent.epoch(), epoch_at_crash);
  EXPECT_TRUE(agent.resource_crashed(victim));

  coordinator.RestartEndpoint(victim);  // cold: the resource's state is lost
  EXPECT_FALSE(agent.resource_crashed(victim));
  const RunResult recovered = coordinator.RunSync(4000);
  EXPECT_TRUE(recovered.converged);
  EXPECT_FALSE(agent.resource_awaiting_repair(victim));
  EXPECT_TRUE(coordinator.CurrentFeasibility().feasible);
  EXPECT_NEAR(coordinator.CurrentUtility(), no_failure,
              1e-6 * std::fabs(no_failure));

  EXPECT_EQ(CounterValue(&metrics, "recovery.restarts"), 1u);
  EXPECT_GE(CounterValue(&metrics, "recovery.repair_rounds"), 1u);
  EXPECT_EQ(std::count(events.types.begin(), events.types.end(),
                       "recovery.crash"),
            1);
  EXPECT_EQ(std::count(events.types.begin(), events.types.end(),
                       "recovery.restart"),
            1);
}

// Snapshot restarts and partitions on multi-resource shards.  A dense
// workload (every task on 12-16 of 16 resources) split into 4 shards, so
// every shard hosts four resources and serves most tasks.
Expected<Workload> FourShardWorkload() {
  RandomWorkloadConfig config;
  config.seed = 7;
  config.num_resources = 16;
  config.num_tasks = 12;
  config.min_subtasks = 12;
  config.max_subtasks = 16;
  return MakeRandomWorkload(config);
}

// Snapshot restart of one resource inside a 4-resource shard, momentum
// fields included: the restored slot comes back exactly, its shard-mates
// keep pricing through the outage, and the deployment re-converges to the
// no-failure utility.
TEST(CrashRestartTest, ShardedCheckpointRestartOfOneResourceReconverges) {
  auto workload = FourShardWorkload();
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);
  const auto config = [](obs::MetricRegistry* metrics) {
    CoordinatorConfig config;
    config.step.gamma0 = 3.0;
    config.bus.base_delay_ms = 0.0;
    config.num_shards = 4;
    config.dynamics.kind = DynamicsKind::kHeavyBall;
    config.dynamics.momentum = 0.7;
    config.convergence.rel_tol = 1e-8;
    config.metrics = metrics;
    return config;
  };

  obs::MetricRegistry ref_metrics;
  Coordinator reference(w, model, config(&ref_metrics));
  ASSERT_TRUE(reference.RunSync(4000).converged);
  const double no_failure = reference.CurrentUtility();

  obs::MetricRegistry metrics;
  Coordinator coordinator(w, model, config(&metrics));
  ASSERT_EQ(coordinator.shard_count(), 4u);
  for (int round = 0; round < 30; ++round) coordinator.RunSyncRound();

  // A victim whose momentum is engaged, so the snapshot carries it.
  ResourceId victim = w.resources().front().id;
  for (const ResourceInfo& resource : w.resources()) {
    if (coordinator.shard_of(resource.id).dynamics_state(resource.id)
            .velocity != 0.0) {
      victim = resource.id;
      break;
    }
  }
  const ShardAgent& host = coordinator.shard_of(victim);
  ASSERT_EQ(host.resource_count(), 4u);
  const ResourceAgentSnapshot snapshot =
      coordinator.CheckpointResource(victim);
  EXPECT_NE(snapshot.dynamics.velocity, 0.0);

  // Through the outage the shard keeps pricing its other resources while
  // the victim's price stays frozen.
  coordinator.CrashEndpoint(victim);
  const std::uint32_t epoch_at_crash = host.epoch();
  const PriceVector at_crash = coordinator.CurrentPrices();
  for (int round = 0; round < 5; ++round) coordinator.RunSyncRound();
  EXPECT_EQ(host.epoch(), epoch_at_crash + 5);
  EXPECT_EQ(host.mu(victim), at_crash.mu[victim.value()]);
  bool mate_moved = false;
  for (const ResourceInfo& resource : w.resources()) {
    if (resource.id != victim && host.Hosts(resource.id) &&
        host.mu(resource.id) != at_crash.mu[resource.id.value()]) {
      mate_moved = true;
    }
  }
  EXPECT_TRUE(mate_moved);

  coordinator.RestartEndpoint(victim, snapshot);
  EXPECT_FALSE(host.resource_crashed(victim));
  EXPECT_FALSE(host.resource_awaiting_repair(victim));
  EXPECT_EQ(host.mu(victim), snapshot.mu);
  EXPECT_EQ(host.dynamics_state(victim).velocity, snapshot.dynamics.velocity);
  EXPECT_EQ(host.dynamics_state(victim).base, snapshot.dynamics.base);
  EXPECT_EQ(host.dynamics_state(victim).phase, snapshot.dynamics.phase);
  const ResourceAgentSnapshot restored = coordinator.CheckpointResource(victim);
  EXPECT_EQ(restored.gamma_multiplier, snapshot.gamma_multiplier);
  EXPECT_EQ(restored.latencies_ms, snapshot.latencies_ms);

  ASSERT_TRUE(coordinator.RunSync(4000).converged);
  EXPECT_TRUE(coordinator.CurrentFeasibility().feasible);
  EXPECT_NEAR(coordinator.CurrentUtility(), no_failure,
              1e-6 * std::fabs(no_failure));
  EXPECT_EQ(CounterValue(&metrics, "recovery.restarts"), 1u);
  EXPECT_EQ(CounterValue(&metrics, "recovery.repair_rounds"), 0u);
}

// PartitionResource on a multi-resource shard cuts off the whole hosting
// shard endpoint (a network partitions hosts, not resources); the protocol
// heals and returns to the same optimum.
TEST(FailureRecoveryTest, ShardedResourcePartitionHealsAndReconverges) {
  auto workload = FourShardWorkload();
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);
  CoordinatorConfig config;
  config.step.gamma0 = 3.0;
  config.bus.base_delay_ms = 1.0;
  config.bus.seed = 3;
  config.num_shards = 4;
  Coordinator coordinator(w, model, config);
  ASSERT_EQ(coordinator.shard_count(), 4u);

  coordinator.RunAsync(250000.0);
  ASSERT_TRUE(coordinator.Converged());
  const double before = coordinator.CurrentUtility();

  coordinator.PartitionResource(ResourceId(5u), 5000.0);
  coordinator.RunAsync(5000.0);
  coordinator.RunAsync(250000.0);
  EXPECT_TRUE(coordinator.Converged());
  EXPECT_TRUE(coordinator.CurrentFeasibility().feasible);
  EXPECT_NEAR(coordinator.CurrentUtility(), before,
              0.01 * std::fabs(before));
  EXPECT_GT(coordinator.bus().stats().dropped, 0u);
}

// The shard decoders are the only validation on the delivery path: a shard
// update with a count that disagrees with the static binding, or with a
// payload that does not decode, is counted in recovery.malformed_rejected
// and leaves the receiver's state untouched.  One shard and one controller
// host run the whole workload, so each batch concatenates the entries of
// all three tasks, and a count one task's entries short or long is
// malformed.
TEST(MalformedMessageTest, RejectedShardUpdatesAreCountedAndIgnored) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  obs::MetricRegistry metrics;
  CoordinatorConfig config;
  config.step.gamma0 = 3.0;
  config.bus.base_delay_ms = 0.0;
  config.num_shards = 1;
  config.metrics = &metrics;
  Coordinator coordinator(w, model, config);
  ASSERT_EQ(coordinator.host_count(), 1u);
  ASSERT_EQ(coordinator.controller(w.tasks().front().id).task_count(),
            w.task_count());
  ASSERT_GE(w.task_count(), 2u);
  coordinator.RunSync(50);  // nonzero prices and latencies to protect

  net::InProcessBus& bus = coordinator.bus();
  const net::EndpointId injector = bus.Register("injector", nullptr);
  net::EndpointId controller = injector, shard = injector;
  for (net::EndpointId id = 0; id < injector; ++id) {
    if (bus.endpoint_name(id) == "controller/0") controller = id;
    if (bus.endpoint_name(id) == "shard/0") shard = id;
  }
  ASSERT_NE(controller, injector);
  ASSERT_NE(shard, injector);

  // The host's positional lists for the one shard: each task's used
  // resources (prices) and its subtasks (latencies), concatenated.
  std::vector<std::vector<ResourceId>> used;
  std::size_t price_entries = 0;
  for (const TaskInfo& task : w.tasks()) {
    std::vector<ResourceId>& resources = used.emplace_back();
    for (const SubtaskId sid : task.subtasks) {
      resources.push_back(w.subtask(sid).resource);
    }
    std::sort(resources.begin(), resources.end());
    resources.erase(std::unique(resources.begin(), resources.end()),
                    resources.end());
    price_entries += resources.size();
  }
  const std::size_t latency_entries = w.subtask_count();
  const std::size_t task_prices = used.front().size();
  const std::size_t task_latencies = w.tasks().front().subtasks.size();
  const auto mu_seen = [&] {
    std::vector<double> mu;
    for (const TaskInfo& task : w.tasks()) {
      for (const ResourceId r : used[task.id.value()]) {
        mu.push_back(coordinator.controller(task.id).mu_seen(task.id, r));
      }
    }
    return mu;
  };
  const auto shard_latencies = [&] {
    std::vector<std::vector<double>> latencies;
    for (std::size_t r = 0; r < w.resource_count(); ++r) {
      latencies.push_back(
          coordinator.CheckpointResource(ResourceId(r)).latencies_ms);
    }
    return latencies;
  };
  const std::vector<double> mu_before = mu_seen();
  const std::vector<std::vector<double>> latencies_before = shard_latencies();
  ASSERT_GT(*std::max_element(mu_before.begin(), mu_before.end()), 0.0);

  // Well-formed payloads for `count` entries, far from the current state;
  // `corrupt_at` (when set) overwrites that payload byte with an unknown
  // encoding.
  // The bus copies each payload at Send, so the local buffers may die
  // before delivery.
  const auto send_price = [&](std::size_t count, int corrupt_at) {
    std::string payload;
    const std::vector<double> mu(count, 1e6);
    const std::vector<std::uint8_t> congested(count, 1);
    net::AppendShardPricePayload(mu.data(), congested.data(), nullptr, count,
                                 &payload);
    if (corrupt_at >= 0) payload[corrupt_at] = 0x7f;
    net::Message message;
    message.sender = injector;
    message.receiver = controller;
    message.payload = net::ShardPriceUpdate{
        0, 1u << 30, static_cast<std::uint32_t>(count),
        net::WireSlice(payload.data(), payload.size())};
    bus.Send(message);
  };
  const auto send_latency = [&](std::size_t count, int corrupt_at) {
    std::string payload;
    const std::vector<double> latencies(count, 1e6);
    net::AppendShardLatencyPayload(latencies.data(), count, &payload);
    if (corrupt_at >= 0) payload[corrupt_at] = 0x7f;
    net::Message message;
    message.sender = injector;
    message.receiver = shard;
    message.payload = net::ShardLatencyUpdate{
        0, 0, static_cast<std::uint32_t>(count),
        net::WireSlice(payload.data(), payload.size())};
    bus.Send(message);
  };
  const std::uint64_t rejected_before =
      CounterValue(&metrics, "recovery.malformed_rejected");
  send_price(price_entries - task_prices, -1);  // one task's entries short
  send_price(price_entries + task_prices, -1);  // one task's entries long
  send_price(price_entries, 1);  // [flags][encoding]: corrupt encoding
  send_latency(latency_entries - task_latencies, -1);
  send_latency(latency_entries + task_latencies, -1);
  send_latency(latency_entries, 0);  // [encoding]: corrupt encoding
  bus.RunAll();

  EXPECT_EQ(bus.stats().dropped, 0u);
  EXPECT_EQ(CounterValue(&metrics, "recovery.malformed_rejected"),
            rejected_before + 6);
  EXPECT_EQ(mu_seen(), mu_before);
  EXPECT_EQ(shard_latencies(), latencies_before);

  // The counts were the binding's: the well-formed batch applies to every
  // task's entries.
  send_price(price_entries, -1);
  bus.RunAll();
  EXPECT_EQ(CounterValue(&metrics, "recovery.malformed_rejected"),
            rejected_before + 6);
  EXPECT_EQ(mu_seen(), std::vector<double>(price_entries, 1e6));
}

// --- One task inside a controller host of three (DESIGN.md §7.7, §7.10):
// the mirror of one resource inside its shard.  Four hosts of three tasks
// and four shards of four resources run the dense 12-task workload.

CoordinatorConfig HostedTaskConfig(obs::MetricRegistry* metrics,
                                   obs::TraceSink* sink = nullptr,
                                   DynamicsKind dynamics =
                                       DynamicsKind::kPlain) {
  CoordinatorConfig config;
  config.step.gamma0 = 3.0;
  config.bus.base_delay_ms = 0.0;
  config.num_shards = 4;
  config.dynamics.kind = dynamics;
  config.dynamics.momentum = 0.7;
  // Tighter than the default 1e-5 so both runs settle close enough for the
  // 1e-6-relative utility comparison.
  config.convergence.rel_tol = 1e-8;
  config.metrics = metrics;
  config.trace_sink = sink;
  return config;
}

// The task in the middle of host 1 (tasks 3, 4 and 5).
constexpr TaskId kHostedVictim(4u);

// A crashed task is frozen inside its host: it neither solves, nor steps
// lambda, nor absorbs prices, and its latency entries keep going out, so
// the host sends as many messages as before.  Its host-mates keep stepping.
TEST(CrashRestartTest, CrashedTaskFreezesInsideItsHost) {
  auto workload = FourShardWorkload();
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);
  obs::MetricRegistry metrics;
  Coordinator coordinator(w, model, HostedTaskConfig(&metrics));
  ASSERT_EQ(coordinator.host_count(), 4u);
  const TaskController& host = coordinator.controller(kHostedVictim);
  ASSERT_EQ(host.task_count(), 3u);
  std::vector<TaskId> mates;
  for (const TaskInfo& task : w.tasks()) {
    if (task.id != kHostedVictim && host.Hosts(task.id)) {
      mates.push_back(task.id);
    }
  }
  ASSERT_EQ(mates.size(), 2u);

  for (int round = 0; round < 30; ++round) coordinator.RunSyncRound();
  const net::BusStats before = coordinator.bus().stats();
  coordinator.RunSyncRound();
  const std::uint64_t per_round = coordinator.bus().stats().sent - before.sent;

  const TaskControllerSnapshot at_crash =
      coordinator.CheckpointController(kHostedVictim);
  std::vector<TaskControllerSnapshot> mates_at_crash;
  for (const TaskId mate : mates) {
    mates_at_crash.push_back(coordinator.CheckpointController(mate));
  }
  coordinator.CrashEndpoint(kHostedVictim);
  EXPECT_TRUE(host.task_crashed(kHostedVictim));
  const net::BusStats crashed_before = coordinator.bus().stats();
  for (int round = 0; round < 5; ++round) coordinator.RunSyncRound();
  EXPECT_EQ(coordinator.bus().stats().sent - crashed_before.sent,
            5 * per_round);

  const TaskControllerSnapshot frozen =
      coordinator.CheckpointController(kHostedVictim);
  EXPECT_EQ(frozen.local_latencies, at_crash.local_latencies);
  EXPECT_EQ(frozen.local_lambdas, at_crash.local_lambdas);
  EXPECT_EQ(frozen.path_gamma_multiplier, at_crash.path_gamma_multiplier);
  EXPECT_EQ(frozen.mu, at_crash.mu);
  EXPECT_EQ(frozen.resource_congested, at_crash.resource_congested);
  EXPECT_EQ(frozen.resource_epoch, at_crash.resource_epoch);
  // The shards hold the frozen latencies the host keeps sending.
  for (std::size_t i = 0; i < w.task(kHostedVictim).subtasks.size(); ++i) {
    const SubtaskId sid = w.task(kHostedVictim).subtasks[i];
    const ResourceId r = w.subtask(sid).resource;
    const std::vector<SubtaskId>& hosted = w.resource(r).subtasks;
    const std::size_t slot =
        std::find(hosted.begin(), hosted.end(), sid) - hosted.begin();
    EXPECT_EQ(coordinator.CheckpointResource(r).latencies_ms[slot],
              at_crash.local_latencies[i]);
  }
  // Each host-mate absorbed all five broadcasts and solved again.
  for (std::size_t m = 0; m < mates.size(); ++m) {
    SCOPED_TRACE(::testing::Message() << "mate " << mates[m].value());
    const TaskControllerSnapshot now =
        coordinator.CheckpointController(mates[m]);
    for (std::size_t k = 0; k < now.resource_epoch.size(); ++k) {
      EXPECT_EQ(now.resource_epoch[k],
                mates_at_crash[m].resource_epoch[k] + 5);
    }
    EXPECT_NE(now.local_latencies, mates_at_crash[m].local_latencies);
  }
}

// Cold restart of one task inside its host: its state resets, the host's
// endpoint bumps its incarnation, and the deployment re-converges to the
// no-failure utility.
TEST(CrashRestartTest, ShardedColdRestartOfOneTaskReconverges) {
  auto workload = FourShardWorkload();
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);

  obs::MetricRegistry ref_metrics;
  Coordinator reference(w, model, HostedTaskConfig(&ref_metrics));
  ASSERT_TRUE(reference.RunSync(4000).converged);
  const double no_failure = reference.CurrentUtility();

  obs::MetricRegistry metrics;
  EventCollector events;
  Coordinator coordinator(w, model, HostedTaskConfig(&metrics, &events));
  for (int round = 0; round < 30; ++round) coordinator.RunSyncRound();
  const TaskController& host = coordinator.controller(kHostedVictim);
  coordinator.CrashEndpoint(kHostedVictim);
  for (int round = 0; round < 5; ++round) coordinator.RunSyncRound();

  coordinator.RestartEndpoint(kHostedVictim);  // cold: the task's state is lost
  EXPECT_FALSE(host.task_crashed(kHostedVictim));
  const TaskControllerSnapshot cold =
      coordinator.CheckpointController(kHostedVictim);
  for (const double latency : cold.local_latencies) EXPECT_EQ(latency, 0.0);
  for (const double lambda : cold.local_lambdas) EXPECT_EQ(lambda, 0.0);
  for (const double mu : cold.mu) EXPECT_EQ(mu, 0.0);

  const RunResult recovered = coordinator.RunSync(4000);
  EXPECT_TRUE(recovered.converged);
  EXPECT_TRUE(coordinator.CurrentFeasibility().feasible);
  EXPECT_NEAR(coordinator.CurrentUtility(), no_failure,
              1e-6 * std::fabs(no_failure));
  EXPECT_EQ(CounterValue(&metrics, "recovery.restarts"), 1u);
  EXPECT_EQ(std::count(events.types.begin(), events.types.end(),
                       "recovery.crash"),
            1);
  EXPECT_EQ(std::count(events.types.begin(), events.types.end(),
                       "recovery.restart"),
            1);
}

// Snapshot restart of one task inside its host, under heavy-ball mu
// dynamics: the task comes back exactly as checkpointed, with no repair,
// and the deployment re-converges to the no-failure utility.
TEST(CrashRestartTest, ShardedCheckpointRestartOfOneTaskReconverges) {
  auto workload = FourShardWorkload();
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);

  obs::MetricRegistry ref_metrics;
  Coordinator reference(w, model,
                        HostedTaskConfig(&ref_metrics, nullptr,
                                         DynamicsKind::kHeavyBall));
  ASSERT_TRUE(reference.RunSync(4000).converged);
  const double no_failure = reference.CurrentUtility();

  obs::MetricRegistry metrics;
  Coordinator coordinator(
      w, model,
      HostedTaskConfig(&metrics, nullptr, DynamicsKind::kHeavyBall));
  for (int round = 0; round < 30; ++round) coordinator.RunSyncRound();
  const TaskControllerSnapshot snapshot =
      coordinator.CheckpointController(kHostedVictim);
  EXPECT_EQ(snapshot.task, kHostedVictim);

  coordinator.CrashEndpoint(kHostedVictim);
  for (int round = 0; round < 5; ++round) coordinator.RunSyncRound();
  coordinator.RestartEndpoint(kHostedVictim, snapshot);
  EXPECT_FALSE(
      coordinator.controller(kHostedVictim).task_crashed(kHostedVictim));
  const TaskControllerSnapshot restored =
      coordinator.CheckpointController(kHostedVictim);
  EXPECT_EQ(restored.local_latencies, snapshot.local_latencies);
  EXPECT_EQ(restored.local_lambdas, snapshot.local_lambdas);
  EXPECT_EQ(restored.path_gamma_multiplier, snapshot.path_gamma_multiplier);
  EXPECT_EQ(restored.mu, snapshot.mu);
  EXPECT_EQ(restored.resource_congested, snapshot.resource_congested);
  EXPECT_EQ(restored.resource_epoch, snapshot.resource_epoch);

  ASSERT_TRUE(coordinator.RunSync(4000).converged);
  EXPECT_TRUE(coordinator.CurrentFeasibility().feasible);
  EXPECT_NEAR(coordinator.CurrentUtility(), no_failure,
              1e-6 * std::fabs(no_failure));
  EXPECT_EQ(CounterValue(&metrics, "recovery.restarts"), 1u);
  EXPECT_EQ(CounterValue(&metrics, "recovery.repair_rounds"), 0u);
}

}  // namespace
}  // namespace lla::runtime
