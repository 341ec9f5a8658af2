// Triggering-event specifications (paper Sec. 2).
//
// Tasks are released by triggering events; the paper's experiments use
// periodic triggers (100 ms period in simulation; 40/s and 10/s rates in the
// prototype).  The model generalizes to Poisson and bursty arrivals, which
// the paper motivates ("real-life workloads with bursty arrivals") — the
// discrete-event substrate honours all three.
//
// The factories only fill fields; Workload::Create checks them (finite
// numbers, period and rate > 0, burst size >= 1, spread >= 0), so a bad
// spec read from a file is an error message in every build mode.
#pragma once

namespace lla {

struct TriggerSpec {
  enum class Kind { kPeriodic, kPoisson, kBursty };

  Kind kind = Kind::kPeriodic;
  double period_ms = 100.0;     ///< periodic & bursty: inter-release interval
  double phase_ms = 0.0;        ///< periodic: offset of the first release
  double rate_per_s = 10.0;     ///< poisson: mean arrival rate
  int burst_size = 1;           ///< bursty: job sets per burst
  double burst_spread_ms = 0.0; ///< bursty: spacing inside a burst

  static TriggerSpec Periodic(double period_ms, double phase_ms = 0.0) {
    TriggerSpec t;
    t.kind = Kind::kPeriodic;
    t.period_ms = period_ms;
    t.phase_ms = phase_ms;
    return t;
  }

  static TriggerSpec Poisson(double rate_per_s) {
    TriggerSpec t;
    t.kind = Kind::kPoisson;
    t.rate_per_s = rate_per_s;
    return t;
  }

  static TriggerSpec Bursty(double period_ms, int burst_size,
                            double burst_spread_ms) {
    TriggerSpec t;
    t.kind = Kind::kBursty;
    t.period_ms = period_ms;
    t.burst_size = burst_size;
    t.burst_spread_ms = burst_spread_ms;
    return t;
  }

  /// Mean task releases per second implied by the spec.
  double MeanRatePerSecond() const {
    switch (kind) {
      case Kind::kPeriodic:
        return 1000.0 / period_ms;
      case Kind::kPoisson:
        return rate_per_s;
      case Kind::kBursty:
        return 1000.0 * burst_size / period_ms;
    }
    return 0.0;
  }
};

}  // namespace lla
