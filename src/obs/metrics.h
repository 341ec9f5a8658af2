// Counters and timers for the LLA engine, bus, coordinator and DES
// substrate.
//
// A MetricRegistry hands out stable Counter*/Timer* handles by name;
// instrumented components resolve their handles once (at construction /
// registration) and the hot path touches only the handle — an integer add
// for counters, two steady_clock reads for a scoped timer.  A null registry
// pointer disables everything: components keep null handles and the guards
// compile down to one pointer test (the overhead contract of DESIGN.md
// §7.4).
//
// Naming scheme: `<component>.<metric>` (engine.steps, bus.sent,
// coordinator.rounds, sim.jobs_completed); per-entity metrics append the
// entity (`bus.endpoint.<name>.sent`).  Phase timers use the phase name
// (engine.solve, engine.price_update).
//
// Counters are relaxed-atomic so a pool worker may increment one safely;
// everything else (timers, the registry itself) must still be driven from
// the owning thread.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace lla::obs {

/// Monotonic event count.  Increments are relaxed atomics: safe from
/// concurrent pool workers, and the summed value is deterministic (the
/// order of additions does not matter); reads from the owning thread after
/// a join observe every increment.
class Counter {
 public:
  void Increment(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Accumulated wall-clock duration statistics.
class Timer {
 public:
  void RecordMs(double elapsed_ms) {
    ++count_;
    total_ms_ += elapsed_ms;
    if (elapsed_ms > max_ms_) max_ms_ = elapsed_ms;
  }
  std::uint64_t count() const { return count_; }
  double total_ms() const { return total_ms_; }
  double max_ms() const { return max_ms_; }
  double mean_ms() const {
    return count_ == 0 ? 0.0 : total_ms_ / static_cast<double>(count_);
  }

 private:
  std::uint64_t count_ = 0;
  double total_ms_ = 0.0;
  double max_ms_ = 0.0;
};

/// Records the lifetime of a scope into `timer`; a null timer skips the
/// clock reads entirely.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer* timer) : timer_(timer) {
    if (timer_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (timer_ != nullptr) {
      const auto stop = std::chrono::steady_clock::now();
      timer_->RecordMs(
          std::chrono::duration<double, std::milli>(stop - start_).count());
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timer* timer_;
  std::chrono::steady_clock::time_point start_;
};

/// Point-in-time copy of every metric, with text rendering.
struct MetricsSnapshot {
  struct CounterEntry {
    std::string name;
    std::uint64_t value = 0;
  };
  struct TimerEntry {
    std::string name;
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double max_ms = 0.0;
  };
  std::vector<CounterEntry> counters;  ///< registration order
  std::vector<TimerEntry> timers;      ///< registration order

  /// Aligned `name value` lines (counters), then timer lines with
  /// count/total/mean/max.
  std::string RenderText() const;
};

/// Owner of all counters and timers.  Handles returned by GetCounter /
/// GetTimer stay valid for the registry's lifetime; repeated lookups of the
/// same name return the same handle.
class MetricRegistry {
 public:
  Counter* GetCounter(std::string_view name);
  Timer* GetTimer(std::string_view name);
  MetricsSnapshot Snapshot() const;

 private:
  // deques: stable addresses under growth.
  std::deque<Counter> counters_;
  std::deque<Timer> timers_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> timer_names_;
  std::unordered_map<std::string, std::size_t> counter_index_;
  std::unordered_map<std::string, std::size_t> timer_index_;
};

}  // namespace lla::obs
