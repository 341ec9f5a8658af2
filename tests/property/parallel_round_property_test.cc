// Property suite for the parallel sharded round (DESIGN.md §7.11): the
// deferred-commit round must leave the coordinator in a BIT-IDENTICAL
// state to the single-threaded round at any thread count.  We check this by
// memcmp-ing the raw double words of the dual prices and the enacted
// assignment — not EXPECT_NEAR; the determinism argument promises exact
// equality, so any ulp of drift is a bug in lane partitioning or outbox
// commit order.
//
// The sweep crosses thread counts {1, 2, 8} with two shard widths (4
// multi-resource shards and the default one shard per resource) and two
// buses: zero-delay lossless, and a seeded one that drops and jitters
// messages, whose randoms are drawn in send order — the order the lane
// commit must reproduce.  The controllers' local solves gather lambda over
// the same path-price CSR as the engine's solve.  The host-width oracle
// compares 2, 4 and 8 controller hosts (and shards) against one host per
// task after every round.
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/coordinator.h"
#include "workloads/random.h"

namespace lla::runtime {
namespace {

struct RoundOutcome {
  PriceVector prices;
  Assignment assignment;
  double utility = 0.0;
  std::uint64_t dropped = 0;
};

net::BusConfig TestBus(bool lossy) {
  net::BusConfig bus;
  bus.base_delay_ms = 0.0;
  if (lossy) {
    bus.drop_probability = 0.05;
    bus.jitter_ms = 0.5;
    bus.seed = 29;
  }
  return bus;
}

bool SameDoubles(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

class ParallelRoundEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  RoundOutcome RunSharded(const Workload& w, const LatencyModel& model,
                          int round_threads,
                          DynamicsKind dynamics = DynamicsKind::kPlain,
                          int num_shards = 4, bool lossy_bus = false) {
    CoordinatorConfig config;
    config.step.gamma0 = 3.0;
    config.bus = TestBus(lossy_bus);
    config.record_history = false;
    config.num_shards = num_shards;
    config.round_threads = round_threads;
    config.dynamics.kind = dynamics;
    config.dynamics.momentum = 0.7;
    Coordinator coordinator(w, model, config);
    for (int round = 0; round < 60; ++round) coordinator.RunSyncRound();
    RoundOutcome outcome;
    outcome.prices = coordinator.CurrentPrices();
    outcome.assignment = coordinator.CurrentAssignment();
    outcome.utility = coordinator.CurrentUtility();
    outcome.dropped = coordinator.bus().stats().dropped;
    return outcome;
  }
};

TEST_P(ParallelRoundEquivalence, ShardedRoundsBitIdenticalAcrossThreads) {
  RandomWorkloadConfig workload_config;
  workload_config.seed = GetParam();
  workload_config.num_resources = 16;
  workload_config.num_tasks = 12;
  workload_config.min_subtasks = 4;
  workload_config.max_subtasks = 9;
  workload_config.target_utilization = 0.75;
  auto workload = MakeRandomWorkload(workload_config);
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);

  for (const bool lossy_bus : {false, true}) {
    SCOPED_TRACE(lossy_bus ? "dropping, jittered bus" : "lossless bus");
    for (const int num_shards : {4, 0}) {
      SCOPED_TRACE(num_shards == 0 ? "one shard per resource" : "4 shards");
      const RoundOutcome serial = RunSharded(
          w, model, 1, DynamicsKind::kPlain, num_shards, lossy_bus);
      // The lossy input is only an input if the bus really dropped.
      EXPECT_EQ(serial.dropped > 0, lossy_bus);
      for (const int threads : {2, 8}) {
        SCOPED_TRACE("round_threads=" + std::to_string(threads));
        const RoundOutcome parallel = RunSharded(
            w, model, threads, DynamicsKind::kPlain, num_shards, lossy_bus);
        EXPECT_TRUE(SameDoubles(serial.prices.mu, parallel.prices.mu));
        EXPECT_TRUE(SameDoubles(serial.prices.lambda, parallel.prices.lambda));
        EXPECT_TRUE(SameDoubles(serial.assignment, parallel.assignment));
        EXPECT_EQ(0, std::memcmp(&serial.utility, &parallel.utility,
                                 sizeof(double)));
        EXPECT_EQ(serial.dropped, parallel.dropped);
      }
    }
  }
}

TEST_P(ParallelRoundEquivalence, OversubscribedThreadsStillBitIdentical) {
  // More lanes than shards: lanes beyond the shard count must stay idle
  // without perturbing the commit order.
  RandomWorkloadConfig workload_config;
  workload_config.seed = GetParam() * 17 + 3;
  workload_config.num_resources = 8;
  workload_config.num_tasks = 6;
  workload_config.target_utilization = 0.75;
  auto workload = MakeRandomWorkload(workload_config);
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);

  const RoundOutcome serial = RunSharded(w, model, 1);
  const RoundOutcome wide = RunSharded(w, model, 8);
  EXPECT_TRUE(SameDoubles(serial.prices.mu, wide.prices.mu));
  EXPECT_TRUE(SameDoubles(serial.prices.lambda, wide.prices.lambda));
  EXPECT_TRUE(SameDoubles(serial.assignment, wide.assignment));
}

TEST_P(ParallelRoundEquivalence, MomentumRoundsBitIdenticalAcrossThreads) {
  // The accelerated mu dynamics (DESIGN.md §7.12) add per-resource velocity
  // / base / phase slots to the shard agents.  They are updated only inside
  // ComputePricesAndBroadcast — per-resource-local, shards disjoint across
  // lanes — so the parallel round's fixed point must stay bit-identical at
  // any thread count, exactly like the plain update.
  RandomWorkloadConfig workload_config;
  workload_config.seed = GetParam();
  workload_config.num_resources = 16;
  workload_config.num_tasks = 12;
  workload_config.min_subtasks = 4;
  workload_config.max_subtasks = 9;
  workload_config.target_utilization = 0.75;
  auto workload = MakeRandomWorkload(workload_config);
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);

  for (const DynamicsKind dynamics :
       {DynamicsKind::kHeavyBall, DynamicsKind::kNesterov}) {
    SCOPED_TRACE(ToString(dynamics));
    const RoundOutcome serial = RunSharded(w, model, 1, dynamics);
    const RoundOutcome parallel = RunSharded(w, model, 8, dynamics);
    EXPECT_TRUE(SameDoubles(serial.prices.mu, parallel.prices.mu));
    EXPECT_TRUE(SameDoubles(serial.prices.lambda, parallel.prices.lambda));
    EXPECT_TRUE(SameDoubles(serial.assignment, parallel.assignment));
    EXPECT_EQ(0, std::memcmp(&serial.utility, &parallel.utility,
                             sizeof(double)));
  }
}

TEST_P(ParallelRoundEquivalence, HostWidthRoundsBitIdenticalToOneHostPerTask) {
  // The host-width oracle (DESIGN.md §7.10): num_shards = k groups the tasks
  // into min(k, T) controller hosts as it groups the resources into
  // min(k, R) shards, and each (host, shard) pair exchanges one message per
  // round each way.  Every per-task and per-resource quantity is computed
  // independently of both widths, so after every round mu, lambda, the
  // latencies and the RoundStats at k = 2, 4 and 8 (hosts of 10, 5 and 2-3
  // tasks) must equal those of one host per task and one shard per
  // resource, bit for bit.
  RandomWorkloadConfig workload_config;
  workload_config.seed = GetParam();
  workload_config.num_resources = 16;
  workload_config.num_tasks = 20;
  workload_config.min_subtasks = 3;
  workload_config.max_subtasks = 8;
  workload_config.target_utilization = 0.75;
  auto workload = MakeRandomWorkload(workload_config);
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);

  const auto config = [](int num_shards, int round_threads,
                         DynamicsKind dynamics) {
    CoordinatorConfig config;
    config.step.gamma0 = 3.0;
    config.bus = TestBus(/*lossy=*/false);
    config.record_history = false;
    config.num_shards = num_shards;
    config.round_threads = round_threads;
    config.dynamics.kind = dynamics;
    config.dynamics.momentum = 0.7;
    return config;
  };
  const auto same_stats = [](const RoundStats& a, const RoundStats& b) {
    return a.round == b.round && a.feasible == b.feasible &&
           std::memcmp(&a.at_ms, &b.at_ms, sizeof(double)) == 0 &&
           std::memcmp(&a.total_utility, &b.total_utility,
                       sizeof(double)) == 0 &&
           std::memcmp(&a.max_resource_excess, &b.max_resource_excess,
                       sizeof(double)) == 0 &&
           std::memcmp(&a.max_path_ratio, &b.max_path_ratio,
                       sizeof(double)) == 0;
  };
  const int kWidths[] = {2, 4, 8};
  for (const DynamicsKind dynamics :
       {DynamicsKind::kPlain, DynamicsKind::kHeavyBall,
        DynamicsKind::kNesterov}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(ToString(dynamics)) +
                   " round_threads=" + std::to_string(threads));
      Coordinator reference(w, model, config(0, threads, dynamics));
      ASSERT_EQ(reference.host_count(), w.task_count());
      std::vector<std::unique_ptr<Coordinator>> hosted;
      for (const int width : kWidths) {
        hosted.push_back(std::make_unique<Coordinator>(
            w, model, config(width, threads, dynamics)));
        ASSERT_EQ(hosted.back()->host_count(),
                  static_cast<std::size_t>(width));
      }
      for (int round = 0; round < 60; ++round) {
        const RoundStats want = reference.RunSyncRound();
        const PriceVector& prices = reference.CurrentPrices();
        const Assignment latencies = reference.CurrentAssignment();
        for (std::size_t i = 0; i < hosted.size(); ++i) {
          SCOPED_TRACE("num_shards=" + std::to_string(kWidths[i]) +
                       " round " + std::to_string(round));
          const RoundStats got = hosted[i]->RunSyncRound();
          ASSERT_TRUE(same_stats(got, want));
          ASSERT_TRUE(SameDoubles(hosted[i]->CurrentPrices().mu, prices.mu));
          ASSERT_TRUE(SameDoubles(hosted[i]->CurrentPrices().lambda,
                                  prices.lambda));
          ASSERT_TRUE(
              SameDoubles(hosted[i]->CurrentAssignment(), latencies));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelRoundEquivalence,
                         ::testing::Values(501, 502, 503));

}  // namespace
}  // namespace lla::runtime
