#include "runtime/coordinator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "net/message.h"
#include "obs/metrics.h"
#include "runtime/task_controller.h"
#include "workloads/paper.h"
#include "workloads/random.h"

namespace lla::runtime {
namespace {

CoordinatorConfig SyncConfig() {
  CoordinatorConfig config;
  config.step.gamma0 = 3.0;
  config.bus.base_delay_ms = 0.0;
  return config;
}

TEST(RuntimeTest, SyncRoundsMatchEngineUtility) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);

  LlaConfig engine_config;
  engine_config.step_policy = StepPolicyKind::kAdaptive;
  engine_config.gamma0 = 3.0;
  engine_config.record_history = false;
  LlaEngine engine(w, model, engine_config);
  const RunResult engine_result = engine.Run(12000);
  ASSERT_TRUE(engine_result.converged);

  Coordinator coordinator(w, model, SyncConfig());
  const RunResult runtime_result = coordinator.RunSync(12000);
  EXPECT_TRUE(runtime_result.converged);
  EXPECT_TRUE(runtime_result.final_feasibility.feasible);
  EXPECT_NEAR(runtime_result.final_utility, engine_result.final_utility,
              1e-3 * std::fabs(engine_result.final_utility));
}

TEST(RuntimeTest, RoundPhaseTimersSplitTheSyncRound) {
  // The five phase timers each record one sample per round, and they run
  // one after another inside coordinator.sync_round, so their totals never
  // exceed the round's.
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  obs::MetricRegistry metrics;
  CoordinatorConfig config = SyncConfig();
  config.metrics = &metrics;
  config.num_shards = 3;
  Coordinator coordinator(w, model, config);
  const obs::Timer* round = metrics.GetTimer("coordinator.sync_round");
  const std::vector<const obs::Timer*> phases = {
      metrics.GetTimer("coordinator.controllers"),
      metrics.GetTimer("coordinator.latency_delivery"),
      metrics.GetTimer("coordinator.shards"),
      metrics.GetTimer("coordinator.price_delivery"),
      metrics.GetTimer("coordinator.monitor")};
  for (std::uint64_t rounds = 1; rounds <= 30; ++rounds) {
    coordinator.RunSyncRound();
    double phase_total_ms = 0.0;
    for (const obs::Timer* phase : phases) {
      EXPECT_EQ(phase->count(), rounds);
      phase_total_ms += phase->total_ms();
    }
    EXPECT_EQ(round->count(), rounds);
    EXPECT_LE(phase_total_ms, round->total_ms());
  }
}

TEST(RuntimeTest, CoordinatorRegistryLeavesTheBusUncounted) {
  // A registry on the coordinator times its phases; the bus's per-message
  // counters stay off until bus.metrics asks for them.
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  for (const bool count_bus : {false, true}) {
    SCOPED_TRACE(count_bus ? "bus.metrics set" : "bus.metrics null");
    obs::MetricRegistry metrics;
    CoordinatorConfig config = SyncConfig();
    config.metrics = &metrics;
    if (count_bus) config.bus.metrics = &metrics;
    Coordinator coordinator(w, model, config);
    coordinator.RunSync(5);
    std::uint64_t bus_counters = 0;
    for (const auto& counter : metrics.Snapshot().counters) {
      if (counter.name.rfind("bus.", 0) == 0) ++bus_counters;
    }
    EXPECT_EQ(bus_counters > 0, count_bus);
    EXPECT_EQ(metrics.GetCounter("coordinator.rounds")->value(), 5u);
  }
}

TEST(RuntimeTest, RunSyncReportsTheUtilityWithHistoryOff) {
  // RunSync's final utility is the last sample's, whether or not the
  // coordinator keeps a history of samples.
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  for (const bool record_history : {true, false}) {
    SCOPED_TRACE(record_history ? "history on" : "history off");
    CoordinatorConfig config = SyncConfig();
    config.record_history = record_history;
    Coordinator coordinator(w, model, config);
    for (const int rounds : {1, 40}) {
      const RunResult run = coordinator.RunSync(rounds);
      EXPECT_NE(run.final_utility, 0.0);
      EXPECT_EQ(run.final_utility, coordinator.CurrentUtility());
    }
    EXPECT_EQ(coordinator.history().empty(), !record_history);
  }
}

TEST(RuntimeTest, SyncRoundTrafficAccounting) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  Coordinator coordinator(w, model, SyncConfig());
  coordinator.RunSyncRound();
  // Per round, at the default one shard per resource: every task sends one
  // latency update per used resource (7 + 8 + 6 = 21) and every resource
  // sends one price update per client task (3+3+3+2+3+2+3+2 = 21).
  EXPECT_EQ(coordinator.bus().stats().sent, 42u);
  EXPECT_EQ(coordinator.bus().stats().delivered, 42u);
  EXPECT_GT(coordinator.bus().stats().bytes, 0u);
}

TEST(RuntimeTest, DeterministicAcrossIdenticalRuns) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  Coordinator a(w, model, SyncConfig());
  Coordinator b(w, model, SyncConfig());
  for (int round = 0; round < 100; ++round) {
    a.RunSyncRound();
    b.RunSyncRound();
  }
  EXPECT_EQ(a.CurrentAssignment(), b.CurrentAssignment());
}

TEST(RuntimeTest, AsyncConvergesWithDelaysJitterAndDrops) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  CoordinatorConfig config;
  config.step.gamma0 = 3.0;
  config.bus.base_delay_ms = 1.0;
  config.bus.jitter_ms = 2.0;
  config.bus.drop_probability = 0.02;
  config.bus.seed = 7;
  Coordinator coordinator(w, model, config);
  coordinator.RunAsync(150000.0);  // 150 s of virtual time
  EXPECT_TRUE(coordinator.Converged());
  EXPECT_TRUE(coordinator.CurrentFeasibility().feasible);

  // Same optimum as the synchronous deployment (approximately).
  Coordinator sync(w, model, SyncConfig());
  const RunResult sync_result = sync.RunSync(12000);
  EXPECT_NEAR(coordinator.CurrentUtility(), sync_result.final_utility,
              0.02 * std::fabs(sync_result.final_utility));
}

TEST(RuntimeTest, AsyncSurvivesHeavyLoss) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  CoordinatorConfig config;
  config.step.gamma0 = 3.0;
  config.bus.base_delay_ms = 1.0;
  config.bus.drop_probability = 0.25;
  config.bus.seed = 13;
  Coordinator coordinator(w, model, config);
  coordinator.RunAsync(200000.0);
  // With 25% loss convergence detection may flap, but the allocation must
  // still be near-feasible and sane.
  const auto report = coordinator.CurrentFeasibility();
  EXPECT_LT(report.max_resource_excess, 0.05);
  EXPECT_LT(report.max_path_ratio, 1.05);
}

TEST(RuntimeTest, EnactmentsAreSparseAfterConvergence) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  Coordinator coordinator(w, model, SyncConfig());
  coordinator.RunSync(12000);
  const auto& enactments = coordinator.enactments();
  ASSERT_FALSE(enactments.empty());
  // The first enactment happens immediately; the last well before the end
  // (no thrash at convergence).
  EXPECT_LE(enactments.front().round, 1);
  EXPECT_LT(enactments.back().round, coordinator.history().back().round);
  // Enactments are far fewer than rounds.
  EXPECT_LT(enactments.size(), coordinator.history().size() / 10);
}

TEST(RuntimeTest, ControllerSeesResourcePrices) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  Coordinator coordinator(w, model, SyncConfig());
  coordinator.RunSync(200);
  // After many rounds the controllers' view of mu matches the agents'.
  for (const TaskInfo& task : w.tasks()) {
    for (SubtaskId sid : task.subtasks) {
      const ResourceId r = w.subtask(sid).resource;
      EXPECT_NEAR(coordinator.controller(task.id).mu_seen(task.id, r),
                  coordinator.shard_of(r).mu(r), 1e-9);
    }
  }
}

TEST(RuntimeTest, CurrentPricesMatchesAgentState) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);

  Coordinator coordinator(w, model, SyncConfig());
  for (int i = 0; i < 50; ++i) coordinator.RunSyncRound();

  const PriceVector prices = coordinator.CurrentPrices();
  ASSERT_EQ(prices.mu.size(), w.resource_count());
  ASSERT_EQ(prices.lambda.size(), w.path_count());
  for (const ResourceInfo& resource : w.resources()) {
    EXPECT_EQ(prices.mu[resource.id.value()],
              coordinator.shard_of(resource.id).mu(resource.id));
  }
  // After 50 congested-start rounds at least one price moved off zero.
  double total = 0.0;
  for (double mu : prices.mu) total += mu;
  for (double lambda : prices.lambda) total += lambda;
  EXPECT_GT(total, 0.0);
}

// One task of the paper workload on its own controller host and bus, with
// one shard endpoint per resource that decodes every latency update it
// receives.  A
// payload view is valid for its handler call only, so the handler keeps the
// decoded values, not the message.
struct LoneController {
  struct Received {
    net::EndpointId receiver = 0;
    std::vector<double> latencies;
  };

  LoneController(const Workload& w, TaskId task, double base_delay_ms)
      : model(w),
        shared(w, model, LatencySolverConfig{},
               StepSchedule(StepPolicyKind::kAdaptive, 3.0,
                            kDefaultStepMultiplierCap,
                            kDefaultDiminishingTau)),
        controller(w, task.value(), task, 1, &shared),
        bus([&] {
          net::BusConfig config;
          config.base_delay_ms = base_delay_ms;
          return config;
        }()) {
    for (const ResourceInfo& resource : w.resources()) {
      resource_shard.push_back(resource.id.value());
      shard_endpoints.push_back(bus.Register(
          "shard/" + std::to_string(resource.id.value()),
          [this](const net::Message& m) {
            const auto& update = std::get<net::ShardLatencyUpdate>(m.payload);
            Received& got = received.emplace_back();
            got.receiver = m.receiver;
            got.latencies.resize(update.count);
            EXPECT_TRUE(
                net::DecodeShardLatencyUpdate(update, got.latencies.data()));
          }));
    }
    self = bus.Register("controller", nullptr);
    controller.Bind(&bus, self, &shard_endpoints, &resource_shard);
    prices = PriceVector::Zero(w);
  }

  // One allocation as a round runs it: the serial solver refresh, the solve
  // into a lane's price buffer and outbox, then the outbox sent in order.
  void AllocateAndSend() {
    shared.solver.PrepareSolve();
    controller.AllocateAndSend(&prices, &outbox);
    bus.SendAll(outbox);
    outbox.clear();
  }

  // Hands the controller resource r's price, as its shard would send it.
  void ReceivePrice(ResourceId r, double mu, bool congested) {
    std::string payload;
    const std::uint8_t flag = congested ? 1 : 0;
    net::AppendShardPricePayload(&mu, &flag, nullptr, 1, &payload);
    net::Message price;
    price.sender = shard_endpoints[r.value()];
    price.receiver = self;
    price.payload = net::ShardPriceUpdate{
        r.value(), 1, 1, net::WireSlice(payload.data(), payload.size())};
    controller.OnMessage(price);
  }

  LatencyModel model;
  ControllerShared shared;
  TaskController controller;
  net::InProcessBus bus;
  std::vector<Received> received;
  std::vector<net::EndpointId> shard_endpoints;
  std::vector<std::uint32_t> resource_shard;
  net::EndpointId self = 0;
  PriceVector prices;
  net::Outbox outbox;
};

TEST(RuntimeTest, InFlightMessagesKeepTheirWireArena) {
  // Two sends before any delivery: the second send re-encodes into the
  // controller's one buffer while the first send's messages are still in
  // flight.  The bus holds its own copy of every payload, so each message
  // still decodes, inside its handler, to what its own send carried.
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  const TaskInfo& task = w.tasks().front();
  LoneController lone(w, task.id, /*base_delay_ms=*/5.0);
  const std::vector<LoneController::Received>& received = lone.received;

  // What a send carries to each shard endpoint: the controller's latencies
  // of its subtasks there, in local subtask order.
  const auto sent = [&] {
    std::map<net::EndpointId, std::vector<double>> by_shard;
    for (std::size_t i = 0; i < task.subtasks.size(); ++i) {
      const ResourceId r = w.subtask(task.subtasks[i]).resource;
      by_shard[lone.shard_endpoints[r.value()]].push_back(
          lone.controller.latencies(task.id)[i]);
    }
    return by_shard;
  };

  lone.AllocateAndSend();
  const auto first = sent();
  // A high price on one used resource moves the second send's solve.
  lone.ReceivePrice(w.subtask(task.subtasks.front()).resource, 1e3, false);
  lone.AllocateAndSend();
  const auto second = sent();
  ASSERT_NE(first, second);
  const std::size_t n = first.size();
  ASSERT_EQ(lone.bus.pending(), 2 * n);

  lone.bus.RunAll();
  ASSERT_EQ(received.size(), 2 * n);
  // Delivery follows send order, so the first n messages are the first
  // send's; each decoded to what its own send carried.
  for (std::size_t k = 0; k < 2 * n; ++k) {
    EXPECT_EQ(received[k].latencies,
              (k < n ? first : second).at(received[k].receiver))
        << "message " << k;
  }
}

TEST(RuntimeTest, PathStepDoublesExactlyOnPathsThroughACongestedResource) {
  // The Eq. 9 step of a path doubles while any resource it traverses
  // reports congestion.  Flag one used resource of one task at a time and
  // check every path of the task after a single allocation.
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  for (const TaskInfo& task : w.tasks()) {
    std::set<ResourceId> used;
    for (const SubtaskId sid : task.subtasks) {
      used.insert(w.subtask(sid).resource);
    }
    for (const ResourceId congested : used) {
      SCOPED_TRACE(testing::Message() << "task " << task.id.value()
                                      << " resource " << congested.value());
      LoneController lone(w, task.id, /*base_delay_ms=*/0.0);
      lone.ReceivePrice(congested, 0.0, true);
      lone.AllocateAndSend();
      const std::vector<double>& steps =
          lone.shared.schedule.path_multiplier();
      ASSERT_EQ(steps.size(), w.path_count());
      for (std::size_t p = 0; p < task.paths.size(); ++p) {
        bool traverses = false;
        for (const SubtaskId sid : w.path(task.paths[p]).subtasks) {
          traverses = traverses || w.subtask(sid).resource == congested;
        }
        EXPECT_EQ(steps[task.paths[p].value()], traverses ? 2.0 : 1.0)
            << "path " << p;
      }
    }
  }
}

// Routing ids come off the wire.  A shard message naming a controller host
// or a shard outside the receiver's routing table (all ones, or one past
// the last id), or one inside it that has no entries there, is a misroute:
// ignored, not counted as malformed, and read without leaving the table
// (the ASan build checks the reads).  Each misrouted message is sent once
// per entry count the receiver's real peers use, so a wrong lookup would
// find a count that matches and apply the payload.
struct MisrouteHarness {
  explicit MisrouteHarness(std::uint64_t seed)
      : workload([&] {
          RandomWorkloadConfig shape;
          shape.seed = seed;
          shape.num_resources = 12;
          shape.num_tasks = 12;
          return MakeRandomWorkload(shape).value();
        }()),
        model(workload),
        coordinator(workload, model, [&] {
          CoordinatorConfig config = SyncConfig();
          config.metrics = &metrics;
          return config;
        }()) {
    coordinator.RunSync(30);  // nonzero prices and latencies to protect
    net::InProcessBus& bus = coordinator.bus();
    injector = bus.Register("injector", nullptr);
    for (net::EndpointId id = 0; id < injector; ++id) {
      endpoints[bus.endpoint_name(id)] = id;
    }
  }

  // The subtasks of `task` hosted on `resource` (one shard per resource,
  // so shard ids are resource ids).
  std::uint32_t Hosted(TaskId task, std::uint32_t resource) const {
    std::uint32_t count = 0;
    for (const SubtaskId sid : workload.task(task).subtasks) {
      if (workload.subtask(sid).resource.value() == resource) ++count;
    }
    return count;
  }

  void Deliver(const net::Message& message) {
    coordinator.bus().Send(message);
    coordinator.bus().RunAll();
  }

  std::uint64_t Malformed() {
    return metrics.GetCounter("recovery.malformed_rejected")->value();
  }

  obs::MetricRegistry metrics;
  Workload workload;
  LatencyModel model;
  Coordinator coordinator;
  net::EndpointId injector = 0;
  std::map<std::string, net::EndpointId> endpoints;
};

TEST(RuntimeTest, ShardAgentIgnoresLatencyUpdatesOfUnknownTasks) {
  MisrouteHarness h(/*seed=*/3);
  const Workload& w = h.workload;
  // A shard whose first and last client hosts leave a non-client between
  // them, so one misroute falls inside the table (one host per task, so
  // host ids are task ids).
  std::uint32_t shard = 0;
  TaskId stranger;
  bool found = false;
  for (std::uint32_t s = 0; s < w.resource_count() && !found; ++s) {
    const std::vector<std::uint32_t>& clients =
        h.coordinator.shard_agent(s).client_hosts();
    if (clients.empty()) continue;
    for (std::uint32_t t = clients.front(); t < clients.back() && !found;
         ++t) {
      if (h.Hosted(TaskId(t), s) == 0) {
        shard = s;
        stranger = TaskId(t);
        found = true;
      }
    }
  }
  ASSERT_TRUE(found);
  std::set<std::uint32_t> counts;
  for (const std::uint32_t client :
       h.coordinator.shard_agent(shard).client_hosts()) {
    counts.insert(h.Hosted(TaskId(client), shard));
  }
  const ResourceId resource(shard);
  const ResourceAgentSnapshot before =
      h.coordinator.CheckpointResource(resource);
  const std::uint64_t malformed = h.Malformed();

  for (const std::uint32_t task :
       {0xFFFFFFFFu, static_cast<std::uint32_t>(w.task_count()),
        stranger.value()}) {
    for (const std::uint32_t count : counts) {
      SCOPED_TRACE(testing::Message() << "task " << task << " count "
                                      << count);
      const std::vector<double> latencies(count, 1e6);
      std::string payload;
      net::AppendShardLatencyPayload(latencies.data(), count, &payload);
      net::Message message;
      message.sender = h.injector;
      message.receiver = h.endpoints.at("shard/" + std::to_string(shard));
      message.payload = net::ShardLatencyUpdate{
          task, shard, count, net::WireSlice(payload.data(), payload.size())};
      h.Deliver(message);
      const ResourceAgentSnapshot after =
          h.coordinator.CheckpointResource(resource);
      EXPECT_EQ(after.latencies_ms, before.latencies_ms);
      EXPECT_EQ(after.mu, before.mu);
      EXPECT_EQ(after.gamma_multiplier, before.gamma_multiplier);
      EXPECT_EQ(after.dynamics.velocity, before.dynamics.velocity);
      EXPECT_EQ(h.Malformed(), malformed);
    }
  }
}

TEST(RuntimeTest, TaskControllerIgnoresPriceUpdatesOfUnusedShards) {
  MisrouteHarness h(/*seed=*/3);
  const Workload& w = h.workload;
  // A task whose first and last used shards leave an unused one between
  // them, so one misroute falls inside the table.
  TaskId task;
  std::uint32_t unused = 0;
  bool found = false;
  for (const TaskInfo& info : w.tasks()) {
    std::set<std::uint32_t> used;
    for (const SubtaskId sid : info.subtasks) {
      used.insert(w.subtask(sid).resource.value());
    }
    for (std::uint32_t s = *used.begin(); s < *used.rbegin() && !found; ++s) {
      if (used.count(s) == 0) {
        task = info.id;
        unused = s;
        found = true;
      }
    }
    if (found) break;
  }
  ASSERT_TRUE(found);
  // One resource per used shard: every price update carries one entry.
  const TaskController& controller = h.coordinator.controller(task);
  const TaskControllerSnapshot before = controller.SnapshotTask(task);
  const std::vector<double> latencies_before(
      controller.latencies(task).begin(), controller.latencies(task).end());
  const std::uint64_t malformed = h.Malformed();

  for (const std::uint32_t shard :
       {0xFFFFFFFFu, static_cast<std::uint32_t>(h.coordinator.shard_count()),
        unused}) {
    SCOPED_TRACE(testing::Message() << "shard " << shard);
    const double mu = 1e6;
    const std::uint8_t congested = 1;
    std::string payload;
    net::AppendShardPricePayload(&mu, &congested, nullptr, 1, &payload);
    net::Message message;
    message.sender = h.injector;
    message.receiver =
        h.endpoints.at("controller/" + std::to_string(controller.host()));
    message.payload = net::ShardPriceUpdate{
        shard, 1u << 30, 1, net::WireSlice(payload.data(), payload.size())};
    h.Deliver(message);
    const TaskControllerSnapshot after = controller.SnapshotTask(task);
    EXPECT_EQ(after.mu, before.mu);
    EXPECT_EQ(after.resource_congested, before.resource_congested);
    EXPECT_EQ(after.resource_epoch, before.resource_epoch);
    EXPECT_EQ(after.local_lambdas, before.local_lambdas);
    EXPECT_EQ(std::vector<double>(controller.latencies(task).begin(),
                                  controller.latencies(task).end()),
              latencies_before);
    EXPECT_EQ(h.Malformed(), malformed);
  }
}

TEST(RuntimeTest, PrototypeWorkloadConvergesDistributed) {
  auto workload = MakePrototypeWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  Coordinator coordinator(w, model, SyncConfig());
  const RunResult result = coordinator.RunSync(12000);
  EXPECT_TRUE(result.final_feasibility.feasible);
  // Fast subtasks at the theoretical uncorrected equilibrium (~0.2857).
  const Assignment assignment = coordinator.CurrentAssignment();
  const double fast_share =
      model.share(SubtaskId(0u)).Share(assignment[0]);
  EXPECT_NEAR(fast_share, 0.2857, 0.01);
}

}  // namespace
}  // namespace lla::runtime
