#include "obs/metrics.h"

#include <cstdio>

namespace lla::obs {

Counter* MetricRegistry::GetCounter(std::string_view name) {
  const auto it = counter_index_.find(std::string(name));
  if (it != counter_index_.end()) return &counters_[it->second];
  counter_index_.emplace(std::string(name), counters_.size());
  counter_names_.emplace_back(name);
  counters_.emplace_back();
  return &counters_.back();
}

Timer* MetricRegistry::GetTimer(std::string_view name) {
  const auto it = timer_index_.find(std::string(name));
  if (it != timer_index_.end()) return &timers_[it->second];
  timer_index_.emplace(std::string(name), timers_.size());
  timer_names_.emplace_back(name);
  timers_.emplace_back();
  return &timers_.back();
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    snapshot.counters.push_back({counter_names_[i], counters_[i].value()});
  }
  snapshot.timers.reserve(timers_.size());
  for (std::size_t i = 0; i < timers_.size(); ++i) {
    snapshot.timers.push_back({timer_names_[i], timers_[i].count(),
                               timers_[i].total_ms(), timers_[i].max_ms()});
  }
  return snapshot;
}

std::string MetricsSnapshot::RenderText() const {
  std::size_t width = 0;
  for (const CounterEntry& c : counters) width = std::max(width, c.name.size());
  for (const TimerEntry& t : timers) width = std::max(width, t.name.size());

  std::string out;
  char line[256];
  for (const CounterEntry& c : counters) {
    std::snprintf(line, sizeof(line), "%-*s %llu\n", static_cast<int>(width),
                  c.name.c_str(), static_cast<unsigned long long>(c.value));
    out += line;
  }
  for (const TimerEntry& t : timers) {
    const double mean =
        t.count == 0 ? 0.0 : t.total_ms / static_cast<double>(t.count);
    std::snprintf(line, sizeof(line),
                  "%-*s count=%llu total=%.3fms mean=%.6fms max=%.6fms\n",
                  static_cast<int>(width), t.name.c_str(),
                  static_cast<unsigned long long>(t.count), t.total_ms, mean,
                  t.max_ms);
    out += line;
  }
  return out;
}

}  // namespace lla::obs
