#include "probe.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <memory>

#include "stats.h"

namespace perfbench {
namespace {

volatile double probe_sink = 0.0;

// Allocates and frees 50000 vectors of 8-39 doubles, 500 live at a time.
double KernelMs() {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::unique_ptr<std::vector<double>>> live;
  live.reserve(500);
  double sum = 0.0;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 500; ++i) {
      live.push_back(std::make_unique<std::vector<double>>(8 + i % 32, 1.0));
    }
    sum += live[static_cast<std::size_t>(round)]->back();
    live.clear();
  }
  probe_sink = sum;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

void HostProbe::Tick() {
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  if (!samples_.empty() &&
      static_cast<double>(now - samples_.back().first) < kIntervalMs * 1e6) {
    return;
  }
  Add(now, KernelMs());
}

double HostProbe::ScaleAt(std::int64_t at_ns) const {
  if (samples_.empty()) return 1.0;
  const auto window = static_cast<std::int64_t>(kWindowS * 1e9);
  const auto by_time = [](const std::pair<std::int64_t, double>& sample,
                          std::int64_t t) { return sample.first < t; };
  auto first = std::lower_bound(samples_.begin(), samples_.end(),
                                at_ns - window, by_time);
  auto last = std::lower_bound(first, samples_.end(), at_ns + window, by_time);
  if (first == last) {
    // No probe that close: take the nearest one.
    if (last == samples_.end()) {
      --first;
    } else if (first != samples_.begin() &&
               at_ns - std::prev(first)->first < first->first - at_ns) {
      --first;
    }
    last = std::next(first);
  }
  std::vector<double> times;
  for (auto it = first; it != last; ++it) times.push_back(it->second);
  return kReferenceMs / Median(times);
}

double HostProbe::MedianMs() const {
  std::vector<double> times;
  for (const auto& sample : samples_) times.push_back(sample.second);
  return Median(times);
}

}  // namespace perfbench
