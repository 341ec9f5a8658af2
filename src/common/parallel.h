// A low-overhead fork-join thread pool with deterministic static
// partitioning.
//
// The LLA iteration decomposes per task (latency allocation) and per
// resource/path (price sweeps); given the prices those pieces are
// independent, which is exactly the structure the paper exploits for
// distribution.  ParallelFor, the pool's one dispatch, splits [0, n) into
// contiguous chunks — chunk t of P is [t*n/P, (t+1)*n/P) — so the
// work-to-chunk mapping depends only on n and the participant count, never
// on scheduling.  Workers write disjoint output slots and callers reduce
// per-item results serially in index order, which makes every result
// bit-identical for any thread count (including the no-pool serial path)
// and for any chunking.  The engine's per-sweep fan-outs (StaticParallelFor),
// the coordinator's round lanes and EngineBatch (ParallelSweep) all reach
// the workers through it.
//
// Dispatch protocol (DESIGN.md §7.5): each worker owns a cache-line-padded
// slot holding a `job` doorbell and a `done` acknowledgement, both
// monotonically increasing generation counters.  The caller publishes a job
// descriptor, bumps the participating workers' doorbells, and wakes the
// condition variable only when a worker has actually parked; workers spin on
// their doorbell for a bounded budget before parking.  Completion is the
// mirror image: the caller spins on the `done` counters and only touches the
// mutex when the spin budget runs out.  In the steady state (workers hot) a
// fork-join round is a handful of atomic operations — no mutex, no condvar,
// no allocation (`FunctionRef` replaces `std::function`).
//
// A deterministic grain-size cutoff keeps tiny sweeps serial: a sweep fans
// out only when every participant would receive at least
// `min_items_per_thread` items, so an n too small to amortize a wake-up
// never pays for one.  The cutoff changes only which thread computes an
// item, never its value, so it cannot perturb results.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace lla {

/// A non-owning, non-allocating reference to a callable — the pool's
/// replacement for std::function on the dispatch path.  The referenced
/// callable must outlive every call (always true for ParallelFor, which
/// joins before returning).
template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  /// Null reference; calling it is undefined.  Exists so the pool can hold
  /// a FunctionRef member between dispatches.
  FunctionRef() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cv_t<std::remove_reference_t<F>>,
                                FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& callable) noexcept  // NOLINT(google-explicit-constructor)
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(callable)))),
        invoke_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return invoke_(object_, std::forward<Args>(args)...);
  }

  explicit operator bool() const { return invoke_ != nullptr; }

 private:
  void* object_ = nullptr;
  R (*invoke_)(void*, Args...) = nullptr;
};

/// Chunked body: called with the half-open item range [begin, end).
using ParallelBody = FunctionRef<void(std::size_t, std::size_t)>;

/// Tuning knobs for the pool; every value is deterministic configuration —
/// none of them can change a computed result, only where/when it is
/// computed.
struct ParallelConfig {
  /// A sweep fans out only if every participant gets at least this many
  /// items; smaller sweeps run serially on the calling thread.
  int min_items_per_thread = 32;
  /// Upper bound on concurrently working threads.  0 means the hardware
  /// concurrency of the host — threads beyond the core count only add
  /// contention.  Tests force a value to exercise parallelism regardless of
  /// host size.
  int max_concurrency = 0;
};

/// The half-open index range of chunk `index` when [0, n) is split into
/// `chunks` contiguous pieces (sizes differ by at most one).
inline std::pair<std::size_t, std::size_t> ChunkRange(std::size_t n,
                                                      int chunks, int index) {
  const std::size_t t = static_cast<std::size_t>(chunks);
  const std::size_t i = static_cast<std::size_t>(index);
  return {n * i / t, n * (i + 1) / t};
}

class ThreadPool {
 public:
  /// Spawns up to `num_threads - 1` workers (the calling thread is always
  /// participant 0).  The worker count is additionally clamped by
  /// `config.max_concurrency` (default: the host's hardware concurrency) —
  /// oversubscribed workers cannot speed anything up, and the clamp cannot
  /// change results (only chunking).  `num_threads <= 1` spawns nothing and
  /// every call runs serially.
  explicit ThreadPool(int num_threads, ParallelConfig config = {});
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of participants (spawned workers + the calling thread).
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  const ParallelConfig& config() const { return config_; }

  /// Number of threads a sweep over `n` items would use given the grain
  /// cutoff: min(size(), n / min_items) but at least 1.  Deterministic in
  /// (n, config, pool size).
  int ParticipantsFor(std::size_t n) const {
    return ParticipantsFor(n, config_.min_items_per_thread);
  }
  int ParticipantsFor(std::size_t n, int min_items_per_thread) const;

  /// Runs `body(begin, end)` over [0, n) split into ParticipantsFor(n)
  /// static chunks; blocks until every chunk finishes.  Runs serially (one
  /// `body(0, n)` call) when the grain cutoff keeps the sweep on one
  /// thread.  `body` must not throw and chunks must only write disjoint
  /// state.  Not reentrant: dispatching while another dispatch is in flight
  /// aborts with a message (release builds included).
  void ParallelFor(std::size_t n, ParallelBody body) {
    ParallelFor(n, config_.min_items_per_thread, body);
  }

  /// ParallelFor with an explicit grain (min items per participating
  /// thread); pass 1 for coarse items that are whole jobs by themselves
  /// (e.g. stepping independent engines).
  void ParallelFor(std::size_t n, int min_items_per_thread, ParallelBody body);

 private:
  /// One cache line per worker: the doorbell the caller rings (`job`) and
  /// the acknowledgement the worker posts (`done`), both generation
  /// numbers.  Padding keeps one worker's spinning off its neighbours'
  /// lines.
  struct alignas(64) WorkerSlot {
    std::atomic<std::uint64_t> job{0};
    std::atomic<std::uint64_t> done{0};
  };

  void WorkerLoop(int worker_index);
  void RunAssigned(int participant_index);
  /// True once every participating worker acknowledged generation `gen`.
  bool AllDone(std::uint64_t gen, int participants) const;
  /// Rings doorbells for workers 0..participants-2 and wakes parked ones.
  void Publish(int participants);
  /// Spin-then-park wait until AllDone.
  void AwaitDone(std::uint64_t gen, int participants);
  /// Parks worker `slot` until its doorbell moves past `seen` or shutdown;
  /// returns false on shutdown.
  bool ParkWorker(WorkerSlot& slot, std::uint64_t seen);
  [[noreturn]] static void FatalReentrancy();

  ParallelConfig config_;
  std::vector<std::thread> workers_;
  std::unique_ptr<WorkerSlot[]> slots_;

  // Job descriptor: written by the caller before ringing doorbells, read by
  // workers after their acquire-load of the doorbell.
  ParallelBody for_body_;
  std::size_t job_n_ = 0;
  int job_participants_ = 0;
  std::uint64_t generation_ = 0;  ///< only the dispatching thread mutates

  std::atomic<bool> busy_{false};  ///< release-mode reentrancy detector
  std::atomic<bool> stop_{false};

  // Parking fallback (only touched when spin budgets run out).
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::atomic<int> num_parked_{0};
  std::atomic<int> done_waiters_{0};
};

/// ParallelFor through an optional pool: serial (one `body(0, n)` call) when
/// `pool` is null or single-threaded, so call sites need no branching.
void StaticParallelFor(ThreadPool* pool, std::size_t n, ParallelBody body);

/// Coarse-grained sweep: runs `body(i)` for every i in [0, n) with a grain
/// of one — each item is assumed to be a whole job (an engine step, an
/// admission probe), so any n >= 2 fans out when a pool is available.  The
/// backbone of EngineBatch.
void ParallelSweep(ThreadPool* pool, std::size_t n,
                   FunctionRef<void(std::size_t)> body);

}  // namespace lla
