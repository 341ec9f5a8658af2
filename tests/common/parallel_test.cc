// ThreadPool / ChunkRange: the static partitioning must cover [0, n) with
// disjoint contiguous chunks for any (n, threads), the pool must run every
// index exactly once per ParallelFor, and the pool must be reusable — these
// are the properties the engine's bit-identical parallelism rests on.
//
// The pool clamps its worker count to hardware concurrency by default, so
// tests that need real threads pass ParallelConfig{max_concurrency = N}
// (and min_items_per_thread = 1 where the sweep is small) to force the
// requested width regardless of the host.
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"

#if defined(__SANITIZE_THREAD__)
#define LLA_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LLA_TSAN 1
#endif
#endif

namespace lla {
namespace {

// Forces a pool of exactly `threads` workers with a grain of one item, so
// parallel paths are exercised even on single-core CI hosts.
ParallelConfig Force(int threads) {
  ParallelConfig config;
  config.min_items_per_thread = 1;
  config.max_concurrency = threads;
  return config;
}

TEST(ChunkRangeTest, CoversRangeDisjointly) {
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                        std::size_t{7}, std::size_t{64}, std::size_t{101}}) {
    for (int chunks : {1, 2, 3, 4, 8, 16}) {
      std::size_t expected_begin = 0;
      for (int index = 0; index < chunks; ++index) {
        const auto [begin, end] = ChunkRange(n, chunks, index);
        EXPECT_EQ(begin, expected_begin)
            << "n=" << n << " chunks=" << chunks << " index=" << index;
        EXPECT_LE(begin, end);
        expected_begin = end;
      }
      EXPECT_EQ(expected_begin, n) << "n=" << n << " chunks=" << chunks;
    }
  }
}

TEST(ChunkRangeTest, ChunkSizesDifferByAtMostOne) {
  const std::size_t n = 103;
  const int chunks = 8;
  std::size_t min_size = n, max_size = 0;
  for (int index = 0; index < chunks; ++index) {
    const auto [begin, end] = ChunkRange(n, chunks, index);
    min_size = std::min(min_size, end - begin);
    max_size = std::max(max_size, end - begin);
  }
  EXPECT_LE(max_size - min_size, 1u);
}

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4, Force(4));
  EXPECT_EQ(pool.size(), 4);
  const std::size_t n = 1000;
  std::vector<int> hits(n, 0);
  pool.ParallelFor(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << "i=" << i;
}

TEST(ThreadPoolTest, ClampsToHardwareConcurrencyByDefault) {
  const int hardware = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  ThreadPool pool(4096);
  EXPECT_LE(pool.size(), hardware);
  EXPECT_GE(pool.size(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool(3, Force(3));
  std::vector<double> out(64, 0.0);
  for (int round = 1; round <= 50; ++round) {
    pool.ParallelFor(out.size(), [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        out[i] = static_cast<double>(round) * static_cast<double>(i);
      }
    });
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], static_cast<double>(round) * static_cast<double>(i));
    }
  }
}

TEST(ThreadPoolTest, MoreThreadsThanWork) {
  ThreadPool pool(8, Force(8));
  std::vector<int> hits(3, 0);
  pool.ParallelFor(hits.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool pool(4, Force(4));
  int calls = 0;
  pool.ParallelFor(0, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, SingleThreadedPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  std::vector<int> hits(10, 0);
  pool.ParallelFor(hits.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

// Grain cutoff: participant count is a pure function of (n, min_items,
// pool size) — never of load, timing, or hardware state — so chunk
// boundaries (and therefore the set of per-chunk partial results) are
// deterministic.
TEST(ThreadPoolTest, ParticipantsForHonorsGrainCutoff) {
  ThreadPool pool(4, Force(4));
  EXPECT_EQ(pool.ParticipantsFor(0, 32), 1);
  EXPECT_EQ(pool.ParticipantsFor(31, 32), 1);
  EXPECT_EQ(pool.ParticipantsFor(32, 32), 1);
  EXPECT_EQ(pool.ParticipantsFor(64, 32), 2);
  EXPECT_EQ(pool.ParticipantsFor(96, 32), 3);
  EXPECT_EQ(pool.ParticipantsFor(128, 32), 4);
  EXPECT_EQ(pool.ParticipantsFor(100000, 32), 4);  // clamped to pool size
  EXPECT_EQ(pool.ParticipantsFor(3, 1), 3);
  // min_items <= 0 is sanitized to 1.
  EXPECT_EQ(pool.ParticipantsFor(2, 0), 2);
}

TEST(ThreadPoolTest, BelowGrainCutoffRunsSerially) {
  ParallelConfig config;
  config.min_items_per_thread = 64;
  config.max_concurrency = 4;
  ThreadPool pool(4, config);
  std::atomic<int> distinct_chunks{0};
  pool.ParallelFor(63, [&](std::size_t begin, std::size_t end) {
    distinct_chunks.fetch_add(1, std::memory_order_relaxed);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 63u);
  });
  EXPECT_EQ(distinct_chunks.load(), 1);
}

TEST(ParallelSweepTest, GrainOfOneCoversAllItems) {
  ThreadPool pool(4, Force(4));
  std::vector<int> hits(7, 0);
  ParallelSweep(&pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelSweepTest, NullPoolRunsSerialInOrder) {
  std::vector<std::size_t> order;
  ParallelSweep(nullptr, 5, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(order[i], i);
}

TEST(FunctionRefTest, WrapsLambdaWithoutOwnership) {
  int calls = 0;
  auto lambda = [&](std::size_t begin, std::size_t end) {
    calls += static_cast<int>(end - begin);
  };
  ParallelBody body(lambda);
  ASSERT_TRUE(static_cast<bool>(body));
  body(3, 10);
  EXPECT_EQ(calls, 7);
  ParallelBody null_body;
  EXPECT_FALSE(static_cast<bool>(null_body));
}

TEST(StaticParallelForTest, NullPoolFallsBackToOneSerialCall) {
  int calls = 0;
  std::size_t seen_begin = 99, seen_end = 0;
  StaticParallelFor(nullptr, 17, [&](std::size_t begin, std::size_t end) {
    ++calls;
    seen_begin = begin;
    seen_end = end;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen_begin, 0u);
  EXPECT_EQ(seen_end, 17u);
}

TEST(StaticParallelForTest, NullPoolEmptyRangeSkipsBody) {
  int calls = 0;
  StaticParallelFor(nullptr, 0, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

// Stress: many rounds of concurrent disjoint writes plus an atomic counter;
// under TSan this is the race detector's main target for the pool.
TEST(ThreadPoolTest, ConcurrentWriteStress) {
  ThreadPool pool(4, Force(4));
  const std::size_t n = 4096;
  std::vector<std::size_t> out(n, 0);
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.ParallelFor(n, [&](std::size_t begin, std::size_t end) {
      std::size_t local = 0;
      for (std::size_t i = begin; i < end; ++i) {
        out[i] = i + static_cast<std::size_t>(round);
        local += 1;
      }
      total.fetch_add(local, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), n * 200);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], i + 199);
}

// Stress across the awkward sizes: n = 0, n < threads, n straddling the
// grain cutoff, back to back with no settling time — the doorbell/park
// protocol must hand out every index exactly once every round.
TEST(ThreadPoolTest, VaryingSizeStress) {
  ThreadPool pool(8, Force(8));
  const std::size_t sizes[] = {0, 1, 2, 3, 7, 8, 9, 63, 64, 65, 1024, 0, 5};
  std::vector<std::atomic<int>> hits(1024);
  for (int round = 0; round < 300; ++round) {
    for (const std::size_t n : sizes) {
      for (std::size_t i = 0; i < n; ++i) {
        hits[i].store(0, std::memory_order_relaxed);
      }
      pool.ParallelFor(n, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1)
            << "round=" << round << " n=" << n << " i=" << i;
      }
    }
  }
}

// Pools constructed, dispatched through, and torn down in a tight loop:
// exercises worker startup racing the first doorbell and destruction
// racing the last park.
TEST(ThreadPoolTest, ConstructionTeardownUnderLoad) {
  for (int round = 0; round < 100; ++round) {
    ThreadPool pool(4, Force(4));
    std::atomic<int> sum{0};
    pool.ParallelFor(97, [&](std::size_t begin, std::size_t end) {
      sum.fetch_add(static_cast<int>(end - begin),
                    std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 97);
    // Destructor runs immediately after the dispatch returns.
  }
  // Teardown with no dispatch at all (workers park and must still exit).
  for (int round = 0; round < 100; ++round) {
    ThreadPool pool(4, Force(4));
  }
}

#if !defined(LLA_TSAN) && defined(GTEST_HAS_DEATH_TEST)
// The reentrancy check is a release-mode abort, not a debug assert: a
// nested dispatch would deadlock or corrupt the shared job descriptor, so
// the pool refuses loudly.  (Excluded from the TSan copy: death tests fork,
// which TSan does not support reliably.)
TEST(ThreadPoolDeathTest, NestedDispatchAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ThreadPool pool(2, Force(2));
  EXPECT_DEATH(
      pool.ParallelFor(64,
                       [&](std::size_t, std::size_t) {
                         pool.ParallelFor(
                             64, [](std::size_t, std::size_t) {});
                       }),
      "not reentrant");
}
#endif

}  // namespace
}  // namespace lla
