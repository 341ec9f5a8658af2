#include "common/parallel.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace lla {
namespace {

/// Doorbell/done spins before falling back to the parking condvar.
constexpr int kSpinCount = 4096;

/// One bounded-spin pause (x86 PAUSE / arm YIELD when available).
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

int HardwareCap() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

ThreadPool::ThreadPool(int num_threads, ParallelConfig config)
    : config_(config) {
  if (config_.min_items_per_thread < 1) config_.min_items_per_thread = 1;
  const int cap =
      config_.max_concurrency > 0 ? config_.max_concurrency : HardwareCap();
  const int participants = std::max(1, std::min(num_threads, cap));
  const int spawned = participants - 1;
  if (spawned == 0) return;
  slots_ = std::make_unique<WorkerSlot[]>(static_cast<std::size_t>(spawned));
  workers_.reserve(static_cast<std::size_t>(spawned));
  for (int i = 0; i < spawned; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  if (workers_.empty()) return;
  {
    // The lock orders the stop flag against a worker's parked-state
    // re-check, so no worker can park after missing the notify.
    std::lock_guard<std::mutex> lock(mutex_);
    stop_.store(true, std::memory_order_seq_cst);
  }
  start_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

int ThreadPool::ParticipantsFor(std::size_t n, int min_items_per_thread)
    const {
  const std::size_t min_items =
      static_cast<std::size_t>(std::max(1, min_items_per_thread));
  const std::size_t by_grain = n / min_items;  // full grains available
  const std::size_t by_pool = static_cast<std::size_t>(size());
  const std::size_t participants = std::min(by_grain, by_pool);
  return participants < 1 ? 1 : static_cast<int>(participants);
}

void ThreadPool::FatalReentrancy() {
  std::fprintf(stderr,
               "lla::ThreadPool: ParallelFor is not reentrant "
               "(dispatch issued while another dispatch is in flight)\n");
  std::abort();
}

void ThreadPool::Publish(int participants) {
  if (busy_.exchange(true, std::memory_order_acq_rel)) FatalReentrancy();
  job_participants_ = participants;
  ++generation_;
  // seq_cst doorbell stores: each is globally ordered before the
  // num_parked_ load below, so a worker that parked after reading a stale
  // doorbell is guaranteed visible here (and gets the notify), and a worker
  // that sees the fresh doorbell never parks on it.
  for (int i = 0; i < participants - 1; ++i) {
    slots_[i].job.store(generation_, std::memory_order_seq_cst);
  }
  if (num_parked_.load(std::memory_order_seq_cst) > 0) {
    // Empty critical section: orders the notify after any in-flight park's
    // predicate check under the same mutex.
    { std::lock_guard<std::mutex> lock(mutex_); }
    start_cv_.notify_all();
  }
}

bool ThreadPool::AllDone(std::uint64_t gen, int participants) const {
  for (int i = 0; i < participants - 1; ++i) {
    if (slots_[i].done.load(std::memory_order_acquire) < gen) return false;
  }
  return true;
}

void ThreadPool::AwaitDone(std::uint64_t gen, int participants) {
  for (int spins = 0; spins < kSpinCount; ++spins) {
    if (AllDone(gen, participants)) return;
    CpuRelax();
  }
  done_waiters_.fetch_add(1, std::memory_order_seq_cst);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return AllDone(gen, participants); });
  }
  done_waiters_.fetch_sub(1, std::memory_order_seq_cst);
}

void ThreadPool::RunAssigned(int participant_index) {
  const auto [begin, end] =
      ChunkRange(job_n_, job_participants_, participant_index);
  if (begin < end) for_body_(begin, end);
}

bool ThreadPool::ParkWorker(WorkerSlot& slot, std::uint64_t seen) {
  // Eventcount: advertise the park (seq_cst, pairs with Publish's doorbell
  // store → num_parked_ load), then re-check the doorbell under the lock
  // before actually sleeping.
  num_parked_.fetch_add(1, std::memory_order_seq_cst);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    start_cv_.wait(lock, [&] {
      return slot.job.load(std::memory_order_seq_cst) != seen ||
             stop_.load(std::memory_order_seq_cst);
    });
  }
  num_parked_.fetch_sub(1, std::memory_order_seq_cst);
  return !stop_.load(std::memory_order_seq_cst);
}

void ThreadPool::WorkerLoop(int worker_index) {
  WorkerSlot& slot = slots_[worker_index];
  std::uint64_t seen = 0;
  for (;;) {
    std::uint64_t gen = seen;
    int spins = 0;
    while ((gen = slot.job.load(std::memory_order_acquire)) == seen) {
      if (stop_.load(std::memory_order_relaxed)) return;
      if (++spins > kSpinCount) {
        if (!ParkWorker(slot, seen)) return;
        spins = 0;
      } else {
        CpuRelax();
      }
    }
    seen = gen;
    RunAssigned(worker_index + 1);
    slot.done.store(gen, std::memory_order_seq_cst);
    if (done_waiters_.load(std::memory_order_seq_cst) > 0) {
      { std::lock_guard<std::mutex> lock(mutex_); }
      done_cv_.notify_one();
    }
  }
}

void ThreadPool::ParallelFor(std::size_t n, int min_items_per_thread,
                             ParallelBody body) {
  const int participants = ParticipantsFor(n, min_items_per_thread);
  if (participants <= 1) {
    if (n > 0) body(0, n);
    return;
  }
  for_body_ = body;
  job_n_ = n;
  Publish(participants);
  const auto [begin, end] = ChunkRange(n, participants, 0);
  if (begin < end) body(begin, end);
  AwaitDone(generation_, participants);
  busy_.store(false, std::memory_order_release);
}

void StaticParallelFor(ThreadPool* pool, std::size_t n, ParallelBody body) {
  if (pool == nullptr || pool->size() <= 1) {
    if (n > 0) body(0, n);
    return;
  }
  pool->ParallelFor(n, body);
}

void ParallelSweep(ThreadPool* pool, std::size_t n,
                   FunctionRef<void(std::size_t)> body) {
  auto chunk = [&body](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) body(i);
  };
  if (pool == nullptr || pool->size() <= 1) {
    if (n > 0) chunk(0, n);
    return;
  }
  pool->ParallelFor(n, /*min_items_per_thread=*/1, chunk);
}

}  // namespace lla
