// Freshness rule of every model-derived cache (regression for the online
// error-correction flow, paper Sec. 6.3): shares change only through the
// LatencyModel's setters, each bumps revision(), and the solver's invariant
// cache and the active-set baseline rebuild on the next solve when it
// moved.  A warm-started engine after a correction must follow exactly the
// same trajectory as a freshly constructed engine, and the corrector's
// reset to error 0 must be the default model bit for bit.
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/latency_solver.h"
#include "model/latency_model.h"
#include "model/utility.h"
#include "runtime/coordinator.h"
#include "workloads/random.h"

namespace lla {
namespace {

Workload MakeWorkload(std::uint64_t seed) {
  RandomWorkloadConfig config;
  config.seed = seed;
  config.num_tasks = 6;
  config.target_utilization = 0.75;
  auto workload = MakeRandomWorkload(config);
  EXPECT_TRUE(workload.ok()) << workload.error();
  return std::move(workload.value());
}

LlaConfig TestConfig() {
  LlaConfig config;
  config.step_policy = StepPolicyKind::kAdaptive;
  config.gamma0 = 3.0;
  return config;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// After an online model correction, an engine that keeps running via
// WarmStart must be bit-identical to a fresh engine built on the corrected
// model and warm-started from the same prices.
TEST(ModelCacheTest, WarmStartAfterCorrectionMatchesFreshEngine) {
  const Workload w = MakeWorkload(17);
  LatencyModel model(w);
  const LlaConfig config = TestConfig();

  LlaEngine live(w, model, config);
  for (int i = 0; i < 300; ++i) live.Step();
  const PriceVector checkpoint = live.prices();

  // The correction arrives mid-run: three subtasks get measured errors.
  model.SetAdditiveError(SubtaskId(std::size_t{0}), -0.5);
  model.SetAdditiveError(SubtaskId(std::size_t{3}), 0.25);
  model.SetAdditiveError(SubtaskId(w.subtask_count() - 1), -0.2);

  // The revision bump alone reaches the live engine's caches; warm restart
  // from the checkpoint prices.
  live.WarmStart(checkpoint);

  LlaEngine fresh(w, model, config);
  fresh.WarmStart(checkpoint);

  ASSERT_EQ(live.latencies(), fresh.latencies());
  for (int i = 0; i < 300; ++i) {
    const IterationStats a = live.Step();
    const IterationStats b = fresh.Step();
    ASSERT_EQ(a.total_utility, b.total_utility) << "step " << i;
    ASSERT_EQ(a.max_resource_excess, b.max_resource_excess) << "step " << i;
    ASSERT_EQ(a.max_path_ratio, b.max_path_ratio) << "step " << i;
    ASSERT_EQ(a.feasible, b.feasible) << "step " << i;
  }
  EXPECT_EQ(live.latencies(), fresh.latencies());
  EXPECT_EQ(live.prices().mu, fresh.prices().mu);
  EXPECT_EQ(live.prices().lambda, fresh.prices().lambda);
}

// The revision counter alone must propagate a SetShareFunction /
// SetAdditiveError replacement into the cached solver — no explicit
// invalidation call.
TEST(ModelCacheTest, RevisionDetectsReplacementWithoutExplicitInvalidate) {
  const Workload w = MakeWorkload(23);
  LatencyModel model(w);
  const LatencySolver cached(w, model);

  const SubtaskId target(std::size_t{1});
  const double lo_before = cached.LatLo(target);
  const std::uint64_t revision_before = model.revision();

  model.SetAdditiveError(target, 0.8);
  EXPECT_GT(model.revision(), revision_before);

  LatencySolverConfig uncached_config;
  uncached_config.cache_invariants = false;
  const LatencySolver uncached(w, model, uncached_config);
  EXPECT_EQ(cached.LatLo(target), uncached.LatLo(target));
  EXPECT_EQ(cached.LatHi(target), uncached.LatHi(target));
  // A positive additive error raises the reachable-latency floor.
  EXPECT_GT(cached.LatLo(target), lo_before);
}

// Task "alone" owns cpu0 and link0; tasks "x" and "y" share cpu1 and
// link1.  Prices start at 0, and alone's stay at exactly 0: its subtasks sit
// at their box floor, which fills each resource exactly, and its path has
// slack.
Workload MakeSplitWorkload() {
  std::vector<ResourceSpec> resources = {
      {"cpu0", ResourceKind::kCpu, 1.0, 1.0},
      {"link0", ResourceKind::kNetworkLink, 1.0, 1.0},
      {"cpu1", ResourceKind::kCpu, 1.0, 1.0},
      {"link1", ResourceKind::kNetworkLink, 1.0, 1.0}};
  const auto chain = [](const std::string& name, std::size_t cpu,
                        std::size_t link, double wcet) {
    TaskSpec task;
    task.name = name;
    task.critical_time_ms = 40.0;
    task.utility = MakePaperSimUtility(40.0);
    task.subtasks = {{name + ".a", ResourceId(cpu), wcet, 0.0},
                     {name + ".b", ResourceId(link), wcet + 1.0, 0.0}};
    task.edges = {{0, 1}};
    return task;
  };
  auto workload = Workload::Create(
      std::move(resources),
      {chain("alone", 0, 1, 2.0), chain("x", 2, 3, 2.0),
       chain("y", 2, 3, 3.0)});
  EXPECT_TRUE(workload.ok()) << workload.error();
  return std::move(workload.value());
}

// The revision bump must reach every engine.  A correction to "alone"
// lands mid-run with no call on either engine: it changes that task's
// solve without moving a single price bit, so an engine that cached
// anything keyed on prices alone would serve its stale latency forever.
// An engine with work reporting off, stepped in lockstep, is the oracle.
TEST(ModelCacheTest, InvalidateResetsActiveSetDirtyTracking) {
  const Workload w = MakeSplitWorkload();
  LatencyModel model(w);

  LlaConfig dense_config = TestConfig();
  dense_config.active_set.enabled = false;
  LlaConfig active_config = TestConfig();
  active_config.active_set.enabled = true;

  LlaEngine dense(w, model, dense_config);
  LlaEngine active(w, model, active_config);
  for (int i = 0; i < 150; ++i) {
    dense.Step();
    active.Step();
    ASSERT_TRUE(SameBits(dense.latencies(), active.latencies()))
        << "pre step " << i;
  }

  const SubtaskId target(std::size_t{0});  // alone.a on cpu0
  const PriceVector prices_before = dense.prices();
  const double latency_before = dense.latencies()[target.value()];
  model.SetAdditiveError(target, 0.6);

  for (int i = 0; i < 150; ++i) {
    dense.Step();
    active.Step();
    ASSERT_TRUE(SameBits(dense.latencies(), active.latencies()))
        << "post step " << i;
    ASSERT_TRUE(SameBits(dense.prices().mu, active.prices().mu))
        << "post step " << i;
    ASSERT_TRUE(SameBits(dense.prices().lambda, active.prices().lambda))
        << "post step " << i;
  }
  // The correction moved alone's latency and none of its prices.
  EXPECT_NE(dense.latencies()[target.value()], latency_before);
  for (const std::size_t r : {0u, 1u}) {
    EXPECT_EQ(prices_before.mu[r], 0.0);
    EXPECT_EQ(dense.prices().mu[r], 0.0);
  }
  EXPECT_EQ(prices_before.lambda[0], 0.0);
  EXPECT_EQ(dense.prices().lambda[0], 0.0);
}

// The error corrector's reset writes SetAdditiveError(id, 0.0) on every
// subtask.  Error 0 is the default model's arithmetic bit for bit, so a
// reset model steps every consumer exactly like a fresh one: engines with
// work reporting off and on and an 8-shard coordinator in synchronous
// rounds.
TEST(ModelCacheTest, ZeroErrorResetMatchesFreshModel) {
  RandomWorkloadConfig workload_config;
  workload_config.seed = 43;
  workload_config.num_resources = 16;
  workload_config.num_tasks = 8;
  workload_config.target_utilization = 0.75;
  auto workload = MakeRandomWorkload(workload_config);
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();

  const LatencyModel fresh(w);
  LatencyModel reset(w);
  for (const SubtaskInfo& sub : w.subtasks()) {
    reset.SetAdditiveError(sub.id, -0.3);
  }
  for (const SubtaskInfo& sub : w.subtasks()) {
    reset.SetAdditiveError(sub.id, 0.0);
  }
  ASSERT_NE(reset.revision(), fresh.revision());

  for (const bool active_set : {false, true}) {
    LlaConfig config = TestConfig();
    config.active_set.enabled = active_set;
    LlaEngine a(w, fresh, config);
    LlaEngine b(w, reset, config);
    for (int i = 0; i < 300; ++i) {
      a.Step();
      b.Step();
      ASSERT_TRUE(SameBits(a.latencies(), b.latencies()))
          << "active_set " << active_set << " step " << i;
      ASSERT_TRUE(SameBits(a.prices().mu, b.prices().mu))
          << "active_set " << active_set << " step " << i;
      ASSERT_TRUE(SameBits(a.prices().lambda, b.prices().lambda))
          << "active_set " << active_set << " step " << i;
    }
  }

  runtime::CoordinatorConfig config;
  config.step.gamma0 = 3.0;
  config.bus.base_delay_ms = 0.0;
  config.num_shards = 8;
  runtime::Coordinator a(w, fresh, config);
  runtime::Coordinator b(w, reset, config);
  ASSERT_EQ(a.shard_count(), 8u);
  for (int round = 0; round < 300; ++round) {
    a.RunSyncRound();
    b.RunSyncRound();
    ASSERT_TRUE(SameBits(a.CurrentAssignment(), b.CurrentAssignment()))
        << "round " << round;
    const PriceVector pa = a.CurrentPrices();
    const PriceVector pb = b.CurrentPrices();
    ASSERT_TRUE(SameBits(pa.mu, pb.mu)) << "round " << round;
    ASSERT_TRUE(SameBits(pa.lambda, pb.lambda)) << "round " << round;
  }
}

}  // namespace
}  // namespace lla
