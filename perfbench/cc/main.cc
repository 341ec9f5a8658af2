// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans PATH] [--ops PATH] --param KEY=VALUE ...
//
// The parameters are the workload's entry in perfbench/workloads.json
// (run.py passes them).  The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}; the end-to-end
// metrics untraced, the per-layer metrics traced.  Exit code 0 when every
// check passed, 1 when one failed, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans PATH] [--ops PATH] --param KEY=VALUE "
               "...\n");
  return 2;
}

bool ParseDouble(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(*out);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    double number = 0.0;
    if (std::strcmp(flag, "--workload") == 0) {
      config.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      char* end = nullptr;
      config.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return Usage();
      have_seed = true;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      if (!ParseDouble(value, &config.seconds) || config.seconds <= 0.0) {
        return Usage();
      }
      have_seconds = true;
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage();
      }
      config.trace = value[0] == '1';
      have_trace = true;
    } else if (std::strcmp(flag, "--spans") == 0) {
      config.spans_path = value;
    } else if (std::strcmp(flag, "--ops") == 0) {
      config.ops_path = value;
    } else if (std::strcmp(flag, "--param") == 0) {
      const char* eq = std::strchr(value, '=');
      if (eq == nullptr || !ParseDouble(eq + 1, &number)) return Usage();
      config.params[std::string(value, eq)] = number;
    } else {
      return Usage();
    }
  }
  if (config.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return Usage();
  }

  const perfbench::Report report = perfbench::RunWorkload(config);
  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& metric = report.metrics[i];
    // Non-finite values are not JSON; print null so the caller rejects them.
    if (std::isfinite(metric.value)) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
    } else {
      std::printf("%s\"%s\": {\"value\": null, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metric.name.c_str(),
                  metric.unit.c_str());
    }
  }
  std::printf("}}\n");
  return report.correct ? 0 : 1;
}
