// Proportional-share resource schedulers for the discrete-event substrate.
//
// The paper's prototype runs on a kernel with Surplus Fair Scheduling [6];
// we provide two simulations of proportional share:
//
//   * GpsScheduler — fluid Generalized Processor Sharing: at any instant,
//     each backlogged flow receives capacity proportional to its weight
//     (work-conserving).  This is the idealization every PS scheduler
//     approximates; completions are exact to floating point.
//
//   * SfsScheduler — a quantum-based weighted scheduler with surplus
//     tracking: time advances in fixed quanta; each quantum is given to the
//     backlogged flow whose normalized service lags furthest behind its
//     weighted entitlement (the surplus-fair criterion).  This exhibits the
//     discretization lag real schedulers add — the paper's l_r.
//
// Flows correspond to subtasks; a flow can be marked always-backlogged to
// model background reservations such as the prototype's 0.1-share garbage
// collector.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

namespace lla::sim {

/// A unit of work queued on a flow.  `id` is opaque to the scheduler.
struct Job {
  std::uint64_t id = 0;
  double work_ms = 0.0;      ///< service demand at full capacity
  double enqueued_ms = 0.0;  ///< when the job became eligible
};

/// Completion notification: job id + completion time.
using CompletionCallback =
    std::function<void(std::uint64_t job_id, double completed_ms)>;

class PsScheduler {
 public:
  virtual ~PsScheduler() = default;

  /// Registers a flow; returns its index.  Its weight is fixed for the
  /// scheduler's lifetime.  `always_backlogged` flows consume their share
  /// forever and never complete jobs (background reservations).
  virtual int AddFlow(double weight, bool always_backlogged = false) = 0;

  /// Queues a job on a flow at the current time.
  virtual void Enqueue(int flow, Job job) = 0;

  /// The next instant at which a job completes, or +infinity when no
  /// real flow is backlogged.
  virtual double NextCompletionMs() const = 0;

  /// Advances the clock to `t_ms` (>= now), delivering completions in order.
  virtual void AdvanceTo(double t_ms, const CompletionCallback& on_done) = 0;

  virtual double now_ms() const = 0;
  virtual std::size_t QueueLength(int flow) const = 0;
};

/// Fluid GPS (exact).
class GpsScheduler final : public PsScheduler {
 public:
  /// `capacity_rate` = work-ms served per elapsed ms at full allocation
  /// (1.0 models a dedicated CPU or link).
  explicit GpsScheduler(double capacity_rate = 1.0);

  int AddFlow(double weight, bool always_backlogged = false) override;
  void Enqueue(int flow, Job job) override;
  double NextCompletionMs() const override;
  void AdvanceTo(double t_ms, const CompletionCallback& on_done) override;
  double now_ms() const override { return now_ms_; }
  std::size_t QueueLength(int flow) const override {
    return flows_[flow].queue.size();
  }

 private:
  struct Flow {
    double weight = 0.0;
    bool always_backlogged = false;
    std::queue<Job> queue;
    double head_remaining_ms = 0.0;
  };

  double ActiveWeight() const;
  double FlowRate(const Flow& flow, double active_weight) const;
  /// Serves all flows for `dt` at current rates; returns completions.
  void Serve(double dt, std::vector<std::pair<int, Job>>* completed);

  double capacity_rate_;
  double now_ms_ = 0.0;
  std::vector<Flow> flows_;
};

/// Quantum-based surplus-fair scheduler (approximate; adds lag).
class SfsScheduler final : public PsScheduler {
 public:
  SfsScheduler(double capacity_rate = 1.0, double quantum_ms = 1.0);

  int AddFlow(double weight, bool always_backlogged = false) override;
  void Enqueue(int flow, Job job) override;
  double NextCompletionMs() const override;
  void AdvanceTo(double t_ms, const CompletionCallback& on_done) override;
  double now_ms() const override { return now_ms_; }
  std::size_t QueueLength(int flow) const override {
    return flows_[flow].queue.size();
  }

 private:
  struct Flow {
    double weight = 0.0;
    bool always_backlogged = false;
    std::queue<Job> queue;
    double head_remaining_ms = 0.0;
    double service_ms = 0.0;  ///< total service received
  };

  bool AnyBacklogged() const;
  int PickNext() const;

  double capacity_rate_;
  double quantum_ms_;
  double now_ms_ = 0.0;
  double virtual_service_ms_ = 0.0;  ///< total weighted entitlement clock
  std::vector<Flow> flows_;
};

}  // namespace lla::sim
