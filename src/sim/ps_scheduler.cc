#include "sim/ps_scheduler.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace lla::sim {
namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-9;
}  // namespace

// ---------------------------------------------------------------- GPS -----

GpsScheduler::GpsScheduler(double capacity_rate)
    : capacity_rate_(capacity_rate) {
  assert(capacity_rate > 0.0);
}

int GpsScheduler::AddFlow(double weight, bool always_backlogged) {
  assert(weight >= 0.0);
  Flow flow;
  flow.weight = weight;
  flow.always_backlogged = always_backlogged;
  flows_.push_back(std::move(flow));
  return static_cast<int>(flows_.size()) - 1;
}

void GpsScheduler::Enqueue(int flow, Job job) {
  assert(job.work_ms > 0.0);
  Flow& f = flows_[flow];
  assert(!f.always_backlogged);
  if (f.queue.empty()) f.head_remaining_ms = job.work_ms;
  f.queue.push(job);
}

double GpsScheduler::ActiveWeight() const {
  double total = 0.0;
  for (const Flow& flow : flows_) {
    if (flow.always_backlogged || !flow.queue.empty()) total += flow.weight;
  }
  return total;
}

double GpsScheduler::FlowRate(const Flow& flow, double active_weight) const {
  if (active_weight <= 0.0 || flow.weight <= 0.0) return 0.0;
  return capacity_rate_ * flow.weight / active_weight;
}

double GpsScheduler::NextCompletionMs() const {
  const double active_weight = ActiveWeight();
  double next = kInf;
  for (const Flow& flow : flows_) {
    if (flow.always_backlogged || flow.queue.empty()) continue;
    const double rate = FlowRate(flow, active_weight);
    if (rate <= 0.0) continue;
    next = std::min(next, now_ms_ + flow.head_remaining_ms / rate);
  }
  return next;
}

void GpsScheduler::Serve(double dt,
                         std::vector<std::pair<int, Job>>* completed) {
  const double active_weight = ActiveWeight();
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    Flow& flow = flows_[i];
    if (flow.always_backlogged || flow.queue.empty()) continue;
    flow.head_remaining_ms -= FlowRate(flow, active_weight) * dt;
    if (flow.head_remaining_ms <= kEps) {
      completed->push_back({static_cast<int>(i), flow.queue.front()});
      flow.queue.pop();
      flow.head_remaining_ms =
          flow.queue.empty() ? 0.0 : flow.queue.front().work_ms;
    }
  }
}

void GpsScheduler::AdvanceTo(double t_ms, const CompletionCallback& on_done) {
  assert(t_ms >= now_ms_ - kEps);
  std::vector<std::pair<int, Job>> completed;
  while (now_ms_ < t_ms - kEps) {
    const double next = NextCompletionMs();
    const double step_end = std::min(next, t_ms);
    const double dt = step_end - now_ms_;
    completed.clear();
    if (dt > 0.0) Serve(dt, &completed);
    now_ms_ = step_end;
    for (const auto& [flow, job] : completed) {
      (void)flow;
      if (on_done) on_done(job.id, now_ms_);
    }
    if (next > t_ms) break;  // served straight to the horizon
  }
  now_ms_ = std::max(now_ms_, t_ms);
}

// ---------------------------------------------------------------- SFS -----

SfsScheduler::SfsScheduler(double capacity_rate, double quantum_ms)
    : capacity_rate_(capacity_rate), quantum_ms_(quantum_ms) {
  assert(capacity_rate > 0.0);
  assert(quantum_ms > 0.0);
}

int SfsScheduler::AddFlow(double weight, bool always_backlogged) {
  assert(weight >= 0.0);
  Flow flow;
  flow.weight = weight;
  flow.always_backlogged = always_backlogged;
  flows_.push_back(std::move(flow));
  return static_cast<int>(flows_.size()) - 1;
}

void SfsScheduler::Enqueue(int flow, Job job) {
  assert(job.work_ms > 0.0);
  Flow& f = flows_[flow];
  assert(!f.always_backlogged);
  if (f.queue.empty()) {
    f.head_remaining_ms = job.work_ms;
    // A newly backlogged flow joins at the current normalized-service level
    // so it cannot claim service "owed" for its idle period.
    if (f.weight > 0.0) {
      f.service_ms = std::max(f.service_ms, virtual_service_ms_ * f.weight);
    }
  }
  f.queue.push(job);
}

bool SfsScheduler::AnyBacklogged() const {
  for (const Flow& flow : flows_) {
    if ((flow.always_backlogged || !flow.queue.empty()) && flow.weight > 0.0) {
      return true;
    }
  }
  return false;
}

int SfsScheduler::PickNext() const {
  // Surplus-fair criterion: serve the backlogged flow with the smallest
  // normalized service (largest deficit relative to entitlement).
  int best = -1;
  double best_norm = kInf;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const Flow& flow = flows_[i];
    if (flow.weight <= 0.0) continue;
    if (!flow.always_backlogged && flow.queue.empty()) continue;
    const double norm = flow.service_ms / flow.weight;
    if (norm < best_norm) {
      best_norm = norm;
      best = static_cast<int>(i);
    }
  }
  return best;
}

double SfsScheduler::NextCompletionMs() const {
  if (!AnyBacklogged()) return kInf;
  const int next = PickNext();
  if (next < 0) return kInf;
  const Flow& flow = flows_[next];
  double segment = quantum_ms_;
  if (!flow.always_backlogged) {
    segment = std::min(segment, flow.head_remaining_ms / capacity_rate_);
  }
  // No completion can occur before the end of the upcoming segment.
  return now_ms_ + std::max(segment, kEps);
}

void SfsScheduler::AdvanceTo(double t_ms, const CompletionCallback& on_done) {
  assert(t_ms >= now_ms_ - kEps);
  while (now_ms_ < t_ms - kEps) {
    if (!AnyBacklogged()) {
      now_ms_ = t_ms;
      break;
    }
    const int current = PickNext();
    Flow& flow = flows_[current];
    double segment = quantum_ms_;
    if (!flow.always_backlogged) {
      segment = std::min(segment, flow.head_remaining_ms / capacity_rate_);
    }
    const double dt = std::min(segment, t_ms - now_ms_);
    const double served = dt * capacity_rate_;
    flow.service_ms += served;
    virtual_service_ms_ = std::max(
        virtual_service_ms_,
        flow.weight > 0.0 ? flow.service_ms / flow.weight : 0.0);
    now_ms_ += dt;
    if (!flow.always_backlogged) {
      flow.head_remaining_ms -= served;
      if (flow.head_remaining_ms <= kEps) {
        const Job job = flow.queue.front();
        flow.queue.pop();
        flow.head_remaining_ms =
            flow.queue.empty() ? 0.0 : flow.queue.front().work_ms;
        if (on_done) on_done(job.id, now_ms_);
      }
    }
  }
  now_ms_ = std::max(now_ms_, t_ms);
}

}  // namespace lla::sim
