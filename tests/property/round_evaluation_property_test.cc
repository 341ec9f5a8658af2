// Property suite for the coordinator's round evaluation (DESIGN.md §7.11):
// the agents fill one StepWorkspace as they compute (each controller its
// task's utility and its paths' latencies after its solve, each shard the
// Eq. 8 share sums of the resources it steps) and the monitor only reduces
// it.  On fault-free synchronous rounds over a lossless bus that workspace
// must be the engine's own evaluation of the same latencies,
// FillStepWorkspace(CurrentAssignment()), bit for bit: the sweep bodies and
// summation orders are the same, and the shard's latency clamp never binds
// on solver output.  We memcmp the returned RoundStats, the trace a
// RingBufferTraceSink receives and the workspace itself after every round.
// The trace's price columns must be CurrentPrices() and what the agents
// checkpoint (each resource's mu, each task's lambdas), and its step
// columns gamma0 times the checkpointed step multipliers.
//
// The sweep crosses the engine_solve shape (24x24, seeds 1-3) and one
// 1000-subtask instance of the scale family with one shard per resource,
// 4 and 8 shards, round_threads 1 and 4, and plain, heavy-ball and Nesterov
// mu dynamics; a model with additive corrections of both signs covers the
// clamp; a controller crash, cold restart and snapshot restore pin that a
// controller's slots always match its latencies.  The TSan copy in the
// default ctest run keeps the 4-lane rounds only, under plain dynamics (the
// dynamics change no lane's slots): lanes write disjoint slots of the one
// shared workspace.
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/step_workspace.h"
#include "obs/trace.h"
#include "runtime/coordinator.h"
#include "workloads/random.h"

#if defined(__SANITIZE_THREAD__)
#define LLA_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LLA_TSAN 1
#endif
#endif

namespace lla::runtime {
namespace {

constexpr int kRounds = 300;
constexpr UtilityVariant kVariant = UtilityVariant::kPathWeighted;
constexpr double kGamma0 = 3.0;

#if defined(LLA_TSAN)
const int kRoundThreads[] = {4};
const DynamicsKind kDynamics[] = {DynamicsKind::kPlain};
#else
const int kRoundThreads[] = {1, 4};
const DynamicsKind kDynamics[] = {DynamicsKind::kPlain,
                                  DynamicsKind::kHeavyBall,
                                  DynamicsKind::kNesterov};
#endif

bool SameDoubles(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameDouble(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

Workload BenchmarkShape(std::uint64_t seed) {
  RandomWorkloadConfig shape;
  shape.seed = seed;
  shape.num_resources = 24;
  shape.num_tasks = 24;
  shape.min_subtasks = 3;
  shape.max_subtasks = 6;
  auto workload = MakeRandomWorkload(shape);
  EXPECT_TRUE(workload.ok()) << workload.error();
  return std::move(workload).value();
}

Workload ScaleInstance() {
  auto workload = MakeRandomWorkload(ScaledRandomWorkloadConfig(1000));
  EXPECT_TRUE(workload.ok()) << workload.error();
  return std::move(workload).value();
}

CoordinatorConfig RoundConfig(int num_shards, int round_threads,
                              DynamicsKind dynamics,
                              obs::TraceSink* sink) {
  CoordinatorConfig config;
  config.solver.variant = kVariant;
  config.step.gamma0 = kGamma0;
  config.bus.base_delay_ms = 0.0;
  config.record_history = false;
  config.num_shards = num_shards;
  config.round_threads = round_threads;
  config.dynamics.kind = dynamics;
  config.dynamics.momentum = 0.7;
  config.trace_sink = sink;
  return config;
}

/// One round's sample, its trace and the coordinator's workspace against
/// the engine's fill of CurrentAssignment(), and the trace's price and step
/// columns against CurrentPrices() and the agents' checkpoints, memcmp.
void ExpectRoundIsTheEngineFill(const Workload& w, const LatencyModel& model,
                                const Coordinator& coordinator,
                                const RoundStats& stats,
                                const obs::RingBufferTraceSink& sink,
                                StepWorkspace* expected) {
  FillStepWorkspace(w, model, coordinator.CurrentAssignment(), kVariant,
                    ConvergenceConfig::feasibility_tol, /*pool=*/nullptr,
                    expected);
  const FeasibilitySummary& want = expected->feasibility;
  EXPECT_TRUE(SameDouble(stats.total_utility, expected->total_utility));
  EXPECT_TRUE(
      SameDouble(stats.max_resource_excess, want.max_resource_excess));
  EXPECT_TRUE(SameDouble(stats.max_path_ratio, want.max_path_ratio));
  EXPECT_EQ(stats.feasible, want.feasible);

  const StepWorkspace& filled = coordinator.evaluation();
  EXPECT_TRUE(SameDoubles(filled.resource_share_sums,
                          expected->resource_share_sums));
  EXPECT_TRUE(SameDoubles(filled.path_latencies, expected->path_latencies));
  EXPECT_TRUE(SameDoubles(filled.task_utilities, expected->task_utilities));
  EXPECT_EQ(filled.resource_congested, expected->resource_congested);

  ASSERT_GT(sink.size(), 0u);
  const obs::IterationTrace& trace = sink.at(sink.size() - 1);
  EXPECT_EQ(trace.iteration, stats.round);
  EXPECT_TRUE(SameDouble(trace.total_utility, expected->total_utility));
  EXPECT_TRUE(SameDoubles(trace.resource_share_sums,
                          expected->resource_share_sums));
  EXPECT_TRUE(SameDoubles(trace.path_latencies, expected->path_latencies));

  std::vector<double> checkpoint_mu(w.resource_count());
  std::vector<double> resource_step(w.resource_count());
  for (const ResourceInfo& resource : w.resources()) {
    const ResourceAgentSnapshot snapshot =
        coordinator.CheckpointResource(resource.id);
    checkpoint_mu[resource.id.value()] = snapshot.mu;
    resource_step[resource.id.value()] = kGamma0 * snapshot.gamma_multiplier;
  }
  std::vector<double> checkpoint_lambda(w.path_count());
  std::vector<double> path_step(w.path_count());
  for (const TaskInfo& task : w.tasks()) {
    const TaskControllerSnapshot snapshot =
        coordinator.CheckpointController(task.id);
    for (std::size_t p = 0; p < task.paths.size(); ++p) {
      checkpoint_lambda[task.paths[p].value()] = snapshot.local_lambdas[p];
      path_step[task.paths[p].value()] =
          kGamma0 * snapshot.path_gamma_multiplier[p];
    }
  }
  const PriceVector& prices = coordinator.CurrentPrices();
  EXPECT_TRUE(SameDoubles(trace.resource_mu, prices.mu));
  EXPECT_TRUE(SameDoubles(trace.resource_mu, checkpoint_mu));
  EXPECT_TRUE(SameDoubles(trace.path_lambda, prices.lambda));
  EXPECT_TRUE(SameDoubles(trace.path_lambda, checkpoint_lambda));
  EXPECT_TRUE(SameDoubles(trace.resource_step, resource_step));
  EXPECT_TRUE(SameDoubles(trace.path_step, path_step));
}

/// kRounds synchronous rounds, each checked; stops at the first round that
/// differs, so a failure reports one round, not hundreds.
void RunAndCompare(const Workload& w, const LatencyModel& model,
                   int num_shards, int round_threads, DynamicsKind dynamics) {
  obs::RingBufferTraceSink sink(1);
  Coordinator coordinator(
      w, model, RoundConfig(num_shards, round_threads, dynamics, &sink));
  StepWorkspace expected;
  expected.Resize(w);
  for (int round = 1; round <= kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const RoundStats stats = coordinator.RunSyncRound();
    ExpectRoundIsTheEngineFill(w, model, coordinator, stats, sink, &expected);
    if (::testing::Test::HasFailure()) return;
  }
}

void SweepDeployments(const Workload& w, const LatencyModel& model) {
  for (const int num_shards : {0, 4, 8}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    for (const int round_threads : kRoundThreads) {
      SCOPED_TRACE("round_threads=" + std::to_string(round_threads));
      for (const DynamicsKind dynamics : kDynamics) {
        SCOPED_TRACE(ToString(dynamics));
        RunAndCompare(w, model, num_shards, round_threads, dynamics);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(RoundEvaluationProperty, BenchmarkShapeRoundsAreTheEngineFill) {
#if defined(LLA_TSAN)
  const std::uint64_t seeds[] = {1};
#else
  const std::uint64_t seeds[] = {1, 2, 3};
#endif
  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Workload w = BenchmarkShape(seed);
    const LatencyModel model(w);
    SweepDeployments(w, model);
  }
}

TEST(RoundEvaluationProperty, ScaleInstanceRoundsAreTheEngineFill) {
  const Workload w = ScaleInstance();
  const LatencyModel model(w);
  SweepDeployments(w, model);
}

TEST(RoundEvaluationProperty, CorrectedModelRoundsAreTheEngineFill) {
  // Additive corrections of both signs: a positive error raises the share
  // function's MinLatency() and with it the shard's latency clamp, which
  // must stay below the solver's lower bound.
  const Workload w = BenchmarkShape(1);
  LatencyModel model(w);
  for (std::size_t s = 0; s < w.subtask_count(); s += 3) {
    const SubtaskId sid(static_cast<std::uint32_t>(s));
    const double wcet = w.subtask(sid).wcet_ms;
    model.SetAdditiveError(sid, s % 2 == 0 ? wcet : -0.5 * wcet);
  }
  for (const int round_threads : kRoundThreads) {
    SCOPED_TRACE("round_threads=" + std::to_string(round_threads));
    RunAndCompare(w, model, /*num_shards=*/4, round_threads,
                  DynamicsKind::kPlain);
  }
}

TEST(RoundEvaluationProperty, ControllerSlotsFollowCrashAndRestarts) {
  // After each fault call, the controller's latencies, its checkpoint and
  // the task's slice of CurrentAssignment() agree, and its utility and path
  // slots are the scalar oracles' values of that slice.  The rounds between
  // the calls still match the engine fill: a crashed controller neither
  // solves nor sends, and a restarted one sends what it solves.
  const Workload w = BenchmarkShape(2);
  const LatencyModel model(w);
  const TaskId task(5u);
  const TaskInfo& info = w.task(task);
  for (const int round_threads : kRoundThreads) {
    SCOPED_TRACE("round_threads=" + std::to_string(round_threads));
    obs::RingBufferTraceSink sink(1);
    Coordinator coordinator(
        w, model,
        RoundConfig(/*num_shards=*/4, round_threads, DynamicsKind::kPlain,
                    &sink));
    StepWorkspace expected;
    expected.Resize(w);
    const auto run_rounds = [&](int rounds) {
      for (int round = 0; round < rounds; ++round) {
        const RoundStats stats = coordinator.RunSyncRound();
        ExpectRoundIsTheEngineFill(w, model, coordinator, stats, sink,
                                   &expected);
      }
    };
    const auto expect_slots_follow = [&](const char* after) {
      SCOPED_TRACE(after);
      const Assignment assignment = coordinator.CurrentAssignment();
      const std::vector<double> slice(
          assignment.begin() + info.subtasks.front().value(),
          assignment.begin() + info.subtasks.back().value() + 1);
      const std::span<const double> live =
          coordinator.controller(task).latencies();
      EXPECT_TRUE(
          SameDoubles(slice, std::vector<double>(live.begin(), live.end())));
      EXPECT_TRUE(SameDoubles(
          slice, coordinator.CheckpointController(task).local_latencies));
      const StepWorkspace& filled = coordinator.evaluation();
      EXPECT_TRUE(SameDouble(filled.task_utilities[task.value()],
                             TaskUtility(w, task, assignment, kVariant)));
      for (const PathId path : info.paths) {
        EXPECT_TRUE(SameDouble(filled.path_latencies[path.value()],
                               PathLatency(w, path, assignment)));
      }
    };

    run_rounds(40);
    const TaskControllerSnapshot snapshot =
        coordinator.CheckpointController(task);
    run_rounds(20);
    coordinator.CrashEndpoint(task);
    expect_slots_follow("crash");
    run_rounds(5);
    expect_slots_follow("rounds while crashed");
    coordinator.RestartEndpoint(task);
    expect_slots_follow("cold restart");
    run_rounds(5);
    coordinator.RestartEndpoint(task, snapshot);
    expect_slots_follow("restart from snapshot");
    EXPECT_TRUE(SameDoubles(snapshot.local_latencies,
                            coordinator.CheckpointController(task)
                                .local_latencies));
    run_rounds(5);
  }
}

}  // namespace
}  // namespace lla::runtime
