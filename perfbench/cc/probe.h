// Host-speed probe.  The benchmark host is shared, and the speed of the
// solvers drifts with its load in phases that last minutes: over six minutes
// the median engine_solve op of 30 s windows ranged over 52 % and the
// dist_solve op over 47 %.  A fixed, library-independent kernel -- allocate
// and free 50000 small vectors -- slows down with the same phases; dividing
// by its time cut those ranges to 14 % and 12 %.  The probe runs the kernel
// between ops at most every kIntervalMs, and ScaleAt() turns an op's wall
// time into milliseconds at the host speed where the kernel takes
// kReferenceMs.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

class HostProbe {
 public:
  static constexpr double kReferenceMs = 4.0;
  static constexpr double kIntervalMs = 200.0;
  /// Probes within this distance of an op set its scale.
  static constexpr double kWindowS = 5.0;

  /// Runs the kernel if kIntervalMs passed since the last probe.
  void Tick();
  /// Records one kernel time (Tick's sink; probes arrive in time order).
  void Add(std::int64_t start_ns, double kernel_ms) {
    samples_.emplace_back(start_ns, kernel_ms);
  }

  /// kReferenceMs / the median kernel time of the probes within kWindowS of
  /// `at_ns` (the nearest probe when none is that close).
  double ScaleAt(std::int64_t at_ns) const;

  double MedianMs() const;
  std::size_t count() const { return samples_.size(); }

 private:
  std::vector<std::pair<std::int64_t, double>> samples_;  ///< (start, ms)
};

}  // namespace perfbench
