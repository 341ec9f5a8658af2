// Distributed accelerated price dynamics (DESIGN.md §7.12): the Eq. 8 mu
// update inside ShardAgent carries per-resource momentum state (velocity,
// Nesterov base, ramp phase).  These tests pin the properties the port must
// preserve:
//
//   * beta = 0 heavy-ball is BIT-IDENTICAL to the plain inline update —
//     memcmp, not EXPECT_NEAR — at one shard per resource and at 4 shards
//     (0 * v + gamma * g absorbs into the same IEEE additions).
//   * Momentum state survives a checkpoint/restore round-trip, and a
//     deployment restored endpoint by endpoint from checkpoints steps
//     memcmp-identically to the uninterrupted one.
//   * A snapshot restore supersedes a half-finished repair exchange: the
//     restored agent broadcasts immediately instead of inheriting the grace
//     hold, and its stale repair bookkeeping is gone.
//   * Snapshot restores with the wrong identity or shape — of one
//     resource's slots or of a task controller — fault-injection calls
//     with out-of-range ids, and a NaN or out-of-range beta abort LOUDLY in
//     every build mode instead of mis-mapping state, indexing out of bounds
//     or poisoning every price (these used to be NDEBUG-erasable asserts,
//     silent skips, or unchecked).  So do a zero, negative, infinite or
//     NaN agent step and a doubling cap below 1.
#include <cmath>
#include <cstring>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "runtime/coordinator.h"
#include "workloads/paper.h"
#include "workloads/random.h"

namespace lla::runtime {
namespace {

Expected<Workload> TestWorkload(std::uint64_t seed) {
  RandomWorkloadConfig config;
  config.seed = seed;
  config.num_resources = 12;
  config.num_tasks = 8;
  config.min_subtasks = 3;
  config.max_subtasks = 7;
  config.target_utilization = 0.75;
  return MakeRandomWorkload(config);
}

CoordinatorConfig DynamicsCoordinatorConfig(DynamicsKind kind, double beta,
                                            int num_shards = 0) {
  CoordinatorConfig config;
  config.step.gamma0 = 3.0;
  config.bus.base_delay_ms = 0.0;
  config.record_history = false;
  config.dynamics.kind = kind;
  config.dynamics.momentum = beta;
  config.num_shards = num_shards;
  return config;
}

bool SameDoubles(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// --- beta = 0 equivalence ------------------------------------------------

TEST(DistributedDynamicsTest, BetaZeroHeavyBallBitIdenticalToPlain) {
  auto workload = TestWorkload(91);
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);

  for (const int num_shards : {0, 4}) {
    SCOPED_TRACE(num_shards == 0 ? "one shard per resource" : "4 shards");
    Coordinator plain(
        w, model, DynamicsCoordinatorConfig(DynamicsKind::kPlain, 0.9,
                                            num_shards));
    Coordinator accelerated(
        w, model, DynamicsCoordinatorConfig(DynamicsKind::kHeavyBall, 0.0,
                                            num_shards));
    for (int round = 0; round < 80; ++round) {
      plain.RunSyncRound();
      accelerated.RunSyncRound();
    }
    const PriceVector plain_prices = plain.CurrentPrices();
    const PriceVector accel_prices = accelerated.CurrentPrices();
    EXPECT_TRUE(SameDoubles(plain_prices.mu, accel_prices.mu));
    EXPECT_TRUE(SameDoubles(plain_prices.lambda, accel_prices.lambda));
    EXPECT_TRUE(
        SameDoubles(plain.CurrentAssignment(), accelerated.CurrentAssignment()));
  }
}

// --- momentum actually engages at beta > 0 -------------------------------

TEST(DistributedDynamicsTest, MomentumStateMovesAndIsObservable) {
  auto workload = TestWorkload(92);
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);

  Coordinator coordinator(
      w, model, DynamicsCoordinatorConfig(DynamicsKind::kHeavyBall, 0.7));
  for (int round = 0; round < 30; ++round) coordinator.RunSyncRound();
  // At least one congested resource must have built nonzero velocity by now
  // (all-zero velocity would mean the dynamics never engaged).
  bool any_velocity = false;
  for (const ResourceInfo& resource : w.resources()) {
    if (coordinator.shard_of(resource.id).dynamics_state(resource.id)
            .velocity != 0.0) {
      any_velocity = true;
      break;
    }
  }
  EXPECT_TRUE(any_velocity);

  // 4 shards: the same observable on multi-resource shards.
  Coordinator sharded(
      w, model,
      DynamicsCoordinatorConfig(DynamicsKind::kHeavyBall, 0.7, 4));
  for (int round = 0; round < 30; ++round) sharded.RunSyncRound();
  bool any_shard_velocity = false;
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    const ShardAgent& agent = sharded.shard_agent(s);
    for (const ResourceInfo& resource : w.resources()) {
      if (agent.Hosts(resource.id) &&
          agent.dynamics_state(resource.id).velocity != 0.0) {
        any_shard_velocity = true;
      }
    }
  }
  EXPECT_TRUE(any_shard_velocity);
}

// --- snapshot round-trip -------------------------------------------------

TEST(DistributedDynamicsTest, SnapshotCarriesAndRestoresMomentumState) {
  auto workload = TestWorkload(93);
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);

  Coordinator source(
      w, model, DynamicsCoordinatorConfig(DynamicsKind::kNesterov, 0.7));
  for (int round = 0; round < 40; ++round) source.RunSyncRound();

  // Pick a resource whose dynamics have engaged.
  ResourceId victim = w.resources().front().id;
  for (const ResourceInfo& resource : w.resources()) {
    if (source.shard_of(resource.id).dynamics_state(resource.id).phase !=
        0.0) {
      victim = resource.id;
      break;
    }
  }
  const ResourceAgentSnapshot snapshot = source.CheckpointResource(victim);
  const ComponentDynamicsState& live =
      source.shard_of(victim).dynamics_state(victim);
  EXPECT_EQ(snapshot.dynamics.velocity, live.velocity);
  EXPECT_EQ(snapshot.dynamics.base, live.base);
  EXPECT_EQ(snapshot.dynamics.phase, live.phase);

  // Restore into a fresh deployment: the momentum state must come back
  // exactly.
  Coordinator target(
      w, model, DynamicsCoordinatorConfig(DynamicsKind::kNesterov, 0.7));
  target.RestartEndpoint(victim, snapshot);
  const ComponentDynamicsState& restored =
      target.shard_of(victim).dynamics_state(victim);
  EXPECT_EQ(restored.velocity, snapshot.dynamics.velocity);
  EXPECT_EQ(restored.base, snapshot.dynamics.base);
  EXPECT_EQ(restored.phase, snapshot.dynamics.phase);
}

// Checkpoint every endpoint, restore them all into a fresh deployment, and
// the restored coordinator must then step exactly like the uninterrupted
// one, at both shard widths and under every dynamics kind: the snapshots
// hold everything the next rounds read.
TEST(DistributedDynamicsTest, RestoredDeploymentStepsLikeTheUninterruptedOne) {
  auto workload = TestWorkload(95);
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);

  struct Dynamics {
    const char* name;
    DynamicsKind kind;
    double beta;
  };
  for (const int num_shards : {0, 4}) {
    for (const Dynamics& dynamics :
         {Dynamics{"plain", DynamicsKind::kPlain, 0.0},
          Dynamics{"heavy-ball", DynamicsKind::kHeavyBall, 0.7},
          Dynamics{"nesterov", DynamicsKind::kNesterov, 0.7}}) {
      SCOPED_TRACE(testing::Message()
                   << dynamics.name << ", "
                   << (num_shards == 0 ? "one shard per resource"
                                       : "4 shards"));
      const CoordinatorConfig config =
          DynamicsCoordinatorConfig(dynamics.kind, dynamics.beta, num_shards);
      Coordinator original(w, model, config);
      for (int round = 0; round < 40; ++round) original.RunSyncRound();

      Coordinator restored(w, model, config);
      for (const ResourceInfo& resource : w.resources()) {
        restored.RestartEndpoint(resource.id,
                                 original.CheckpointResource(resource.id));
      }
      for (const TaskInfo& task : w.tasks()) {
        restored.RestartEndpoint(task.id,
                                 original.CheckpointController(task.id));
      }
      ASSERT_TRUE(SameDoubles(original.CurrentPrices().mu,
                              restored.CurrentPrices().mu));
      ASSERT_TRUE(SameDoubles(original.CurrentAssignment(),
                              restored.CurrentAssignment()));

      for (int round = 0; round < 60; ++round) {
        original.RunSyncRound();
        restored.RunSyncRound();
        const PriceVector expected = original.CurrentPrices();
        const PriceVector actual = restored.CurrentPrices();
        ASSERT_TRUE(SameDoubles(expected.mu, actual.mu)) << "round " << round;
        ASSERT_TRUE(SameDoubles(expected.lambda, actual.lambda))
            << "round " << round;
        ASSERT_TRUE(SameDoubles(original.CurrentAssignment(),
                                restored.CurrentAssignment()))
            << "round " << round;
      }
    }
  }
}

// A controller's snapshot holds what the controller holds: one entry per
// resource its task uses, in ascending resource order, not one per
// resource of the workload.
TEST(DistributedDynamicsTest, ControllerSnapshotHoldsOneEntryPerUsedResource) {
  auto workload = TestWorkload(95);
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);
  Coordinator coordinator(
      w, model, DynamicsCoordinatorConfig(DynamicsKind::kPlain, 0.0, 4));
  for (int round = 0; round < 10; ++round) coordinator.RunSyncRound();
  for (const TaskInfo& task : w.tasks()) {
    std::set<ResourceId> used;
    for (const SubtaskId sid : task.subtasks) {
      used.insert(w.subtask(sid).resource);
    }
    const TaskController& controller = coordinator.controller(task.id);
    const TaskControllerSnapshot snapshot =
        coordinator.CheckpointController(task.id);
    ASSERT_EQ(snapshot.mu.size(), used.size());
    ASSERT_EQ(snapshot.resource_congested.size(), used.size());
    ASSERT_EQ(snapshot.resource_epoch.size(), used.size());
    std::size_t k = 0;
    for (const ResourceId r : used) {
      EXPECT_EQ(snapshot.mu[k], controller.mu_seen(r));
      EXPECT_EQ(snapshot.resource_epoch[k], controller.mu_epoch_seen(r));
      ++k;
    }
  }
}

// --- restore supersedes a half-finished repair exchange ------------------

TEST(DistributedDynamicsTest, SnapshotRestoreSupersedesRepairExchange) {
  auto workload = TestWorkload(94);
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);

  Coordinator coordinator(
      w, model, DynamicsCoordinatorConfig(DynamicsKind::kHeavyBall, 0.7));
  for (int round = 0; round < 20; ++round) coordinator.RunSyncRound();

  const ResourceId victim = w.resources().front().id;
  const ResourceAgentSnapshot snapshot =
      coordinator.CheckpointResource(victim);

  // Cold restart puts the resource into the repair exchange (grace-held
  // broadcasts).  Restoring from a snapshot mid-exchange must cancel it:
  // the resource broadcasts on the very next round instead of holding.
  const ShardAgent& host = coordinator.shard_of(victim);
  coordinator.CrashEndpoint(victim);
  coordinator.RestartEndpoint(victim);  // cold: awaiting repair
  EXPECT_TRUE(host.resource_awaiting_repair(victim));

  coordinator.RestartEndpoint(victim, snapshot);
  EXPECT_FALSE(host.resource_awaiting_repair(victim));
  const std::uint32_t epoch_before = host.epoch();
  coordinator.RunSyncRound();
  // A grace-held resource goes out stale, so its clients would keep the
  // price of an older epoch; the restored one must have published this
  // round's.
  EXPECT_EQ(host.epoch(), epoch_before + 1);
  for (SubtaskId sid : w.resource(victim).subtasks) {
    EXPECT_EQ(coordinator.controller(w.subtask(sid).task).mu_epoch_seen(victim),
              epoch_before + 1);
  }
}

// --- loud aborts replace NDEBUG-erasable asserts -------------------------

using DistributedDynamicsDeathTest = ::testing::Test;

TEST(DistributedDynamicsDeathTest, RestoreRejectsMismatchedSnapshot) {
  auto workload = TestWorkload(96);
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);
  Coordinator coordinator(
      w, model, DynamicsCoordinatorConfig(DynamicsKind::kPlain, 0.0));

  // Wrong resource id.
  ResourceAgentSnapshot wrong_resource =
      coordinator.CheckpointResource(w.resources().front().id);
  wrong_resource.resource = ResourceId(w.resources().back().id.value());
  if (wrong_resource.resource != w.resources().front().id) {
    EXPECT_DEATH(
        coordinator.RestartEndpoint(w.resources().front().id, wrong_resource),
        "does not match agent");
  }

  // Wrong latency vector shape (snapshot of a structurally different
  // workload).
  ResourceAgentSnapshot wrong_shape =
      coordinator.CheckpointResource(w.resources().front().id);
  wrong_shape.latencies_ms.push_back(1.0);
  EXPECT_DEATH(
      coordinator.RestartEndpoint(w.resources().front().id, wrong_shape),
      "does not match agent");
}

TEST(DistributedDynamicsDeathTest, ControllerRestoreRejectsMismatchedSnapshot) {
  auto workload = TestWorkload(96);
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);
  Coordinator coordinator(
      w, model, DynamicsCoordinatorConfig(DynamicsKind::kPlain, 0.0));
  for (int round = 0; round < 5; ++round) coordinator.RunSyncRound();
  const TaskId task = w.tasks().front().id;
  const TaskControllerSnapshot good = coordinator.CheckpointController(task);

  // Snapshot of another task.
  TaskControllerSnapshot wrong_task = good;
  wrong_task.task = w.tasks().back().id;
  ASSERT_NE(wrong_task.task, task);
  EXPECT_DEATH(coordinator.RestartEndpoint(task, wrong_task),
               "does not match controller");

  // Each per-task vector of the wrong length.
  TaskControllerSnapshot wrong_latencies = good;
  wrong_latencies.local_latencies.push_back(1.0);
  EXPECT_DEATH(coordinator.RestartEndpoint(task, wrong_latencies),
               "does not match controller");
  TaskControllerSnapshot wrong_lambdas = good;
  wrong_lambdas.local_lambdas.pop_back();
  EXPECT_DEATH(coordinator.RestartEndpoint(task, wrong_lambdas),
               "does not match controller");
  TaskControllerSnapshot wrong_multipliers = good;
  wrong_multipliers.path_gamma_multiplier.push_back(1.0);
  EXPECT_DEATH(coordinator.RestartEndpoint(task, wrong_multipliers),
               "does not match controller");

  // Each short per-resource vector.
  TaskControllerSnapshot short_mu = good;
  short_mu.mu.pop_back();
  EXPECT_DEATH(coordinator.RestartEndpoint(task, short_mu),
               "does not match controller");
  TaskControllerSnapshot short_congested = good;
  short_congested.resource_congested.pop_back();
  EXPECT_DEATH(coordinator.RestartEndpoint(task, short_congested),
               "does not match controller");
  TaskControllerSnapshot short_epoch = good;
  short_epoch.resource_epoch.pop_back();
  EXPECT_DEATH(coordinator.RestartEndpoint(task, short_epoch),
               "does not match controller");
}

TEST(DistributedDynamicsDeathTest, FaultInjectionRejectsOutOfRangeIds) {
  auto workload = TestWorkload(97);
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);
  Coordinator coordinator(
      w, model, DynamicsCoordinatorConfig(DynamicsKind::kPlain, 0.0, 4));
  const ResourceId bad_resource(
      static_cast<std::uint32_t>(w.resource_count()));
  const TaskId bad_task(static_cast<std::uint32_t>(w.task_count()));
  EXPECT_DEATH(coordinator.CrashEndpoint(bad_resource),
               "CrashEndpoint: resource id 12 is out of range");
  EXPECT_DEATH(coordinator.PartitionResource(bad_resource, 10.0),
               "PartitionResource: resource id 12 is out of range");
  EXPECT_DEATH(coordinator.RestartEndpoint(bad_task),
               "RestartEndpoint: task id 8 is out of range");
  EXPECT_DEATH(coordinator.CheckpointController(bad_task),
               "CheckpointController: task id 8 is out of range");
}

// The shard agents step mu with the configured beta, so the coordinator
// refuses a NaN or out-of-range one at construction, in every build mode
// and for every dynamics kind, exactly as LlaEngine does.
TEST(DistributedDynamicsDeathTest, RejectsInvalidMomentum) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);
  for (const double beta : {std::nan(""), -0.1, 1.0}) {
    for (const DynamicsKind kind :
         {DynamicsKind::kPlain, DynamicsKind::kHeavyBall,
          DynamicsKind::kNesterov}) {
      EXPECT_DEATH(Coordinator(w, model, DynamicsCoordinatorConfig(kind, beta)),
                   "Coordinator: dynamics momentum .* is outside \\[0, 1\\)")
          << ToString(kind) << " beta " << beta;
    }
  }
}

// The shard agents and the task controllers step their prices through the
// coordinator's StepSchedule, built from config.step.gamma0, so the
// schedule's constructor checks it at construction in every build mode.
TEST(DistributedDynamicsDeathTest, RejectsInvalidStepConfig) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {0.0, -3.0, kInf, std::nan("")}) {
    CoordinatorConfig config = DynamicsCoordinatorConfig(DynamicsKind::kPlain,
                                                         0.0);
    config.step.gamma0 = bad;
    EXPECT_DEATH(Coordinator(w, model, config),
                 "Coordinator: step parameter gamma0 = .* must be finite and "
                 "> 0")
        << "gamma0 " << bad;
  }
}

}  // namespace
}  // namespace lla::runtime
