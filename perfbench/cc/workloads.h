// The benchmark's three workloads.  Each runs single-threaded in this
// process: set-up (timed separately), then passes over a fixed, seeded list
// of ops until the run's time is spent.  Every pass must reproduce the
// first pass's outcomes bit for bit; the traced run interleaves untraced and
// traced passes and holds them to the same rule.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans; empty skips the file.
  std::string spans_path;
  /// Where to write one line per op (service time and outcome); empty
  /// skips the file.
  std::string ops_path;
  /// Workload parameters by name (perfbench/workloads.json); every key the
  /// workload reads must be present and no other key may be.
  std::map<std::string, double> params;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed ahead of the result (percentiles chosen,
  /// op counts, check failures).
  std::vector<std::string> notes;
};

/// Runs `config.workload`; an unknown name or a bad parameter set yields a
/// report with correct = false and the reason in notes.
Report RunWorkload(const RunConfig& config);

}  // namespace perfbench
