// Steady-state synchronous rounds allocate nothing: the bus queues each
// message and its payload bytes in buffers it keeps, and every agent
// re-encodes into one buffer it keeps.  The binary replaces the global
// operator new with a counting one, so it stays out of the sanitizer copies.
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "runtime/coordinator.h"
#include "workloads/random.h"

namespace {

std::atomic<bool> counting{false};
std::atomic<std::size_t> allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  if (counting.load(std::memory_order_relaxed)) {
    allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Not inlined: GCC's -Wmismatched-new-delete would otherwise see free() on
// a pointer from operator new at every inlined delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace lla::runtime {
namespace {

// Allocations made by 200 RunSyncRound calls after 5 warm-up rounds, on a
// 24-resource, 24-task random instance (perfbench dist_solve's shape).
// History is off and the re-enactment threshold is out of reach, so only
// the round itself is counted.
std::size_t SteadyStateAllocations(int num_shards) {
  RandomWorkloadConfig shape;
  shape.num_resources = 24;
  shape.num_tasks = 24;
  auto workload = MakeRandomWorkload(shape);
  EXPECT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  CoordinatorConfig config;
  config.solver.variant = UtilityVariant::kPathWeighted;
  config.step.gamma0 = 3.0;
  config.bus.base_delay_ms = 0.0;
  config.record_history = false;
  config.enactment_threshold = 1e300;
  config.num_shards = num_shards;
  Coordinator coordinator(w, model, config);
  for (int round = 0; round < 5; ++round) coordinator.RunSyncRound();
  allocations.store(0);
  counting.store(true);
  for (int round = 0; round < 200; ++round) coordinator.RunSyncRound();
  counting.store(false);
  EXPECT_EQ(coordinator.bus().pending(), 0u);
  return allocations.load();
}

TEST(RoundAllocationTest, EightShardSyncRoundsDoNotAllocate) {
  EXPECT_LE(SteadyStateAllocations(8), 8u);
}

TEST(RoundAllocationTest, OneShardPerResourceSyncRoundsDoNotAllocate) {
  EXPECT_LE(SteadyStateAllocations(0), 8u);
}

}  // namespace
}  // namespace lla::runtime
