// Shared helpers for the paper-reproduction benches: consistent headers and
// series printing so every bench emits a self-describing report, plus a
// minimal JSON value type so benches can also write machine-readable
// BENCH_*.json artifacts for the perf trajectory.
#pragma once

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "model/workload.h"

namespace lla::bench {

inline void PrintHeader(const std::string& title, const std::string& paper_ref,
                        const std::string& expectation) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Paper artifact: %s\n", paper_ref.c_str());
  std::printf("Expected shape: %s\n", expectation.c_str());
  std::printf("==============================================================="
              "=================\n");
}

/// Prints a utility-vs-iteration series, sampled so long runs stay readable.
inline void PrintUtilitySeries(const std::string& label,
                               const std::vector<IterationStats>& history,
                               int max_points = 25) {
  const int n = static_cast<int>(history.size());
  const int stride = n <= max_points ? 1 : n / max_points;
  std::printf("%-24s iter:utility  ", label.c_str());
  for (int i = 0; i < n; i += stride) {
    std::printf("%" PRId64 ":%.1f ", history[i].iteration,
                history[i].total_utility);
  }
  if (n > 0 && (n - 1) % stride != 0) {
    std::printf("%" PRId64 ":%.1f", history[n - 1].iteration,
                history[n - 1].total_utility);
  }
  std::printf("\n");
}

/// First iteration after which utility stays within `band` (relative) of the
/// final value; -1 if it never settles.
inline int SettleIteration(const std::vector<IterationStats>& history,
                           double band = 0.01) {
  if (history.empty()) return -1;
  const double final_utility = history.back().total_utility;
  const double tolerance =
      band * std::max(1.0, std::abs(final_utility));
  int settle = -1;
  for (int i = static_cast<int>(history.size()) - 1; i >= 0; --i) {
    if (std::abs(history[i].total_utility - final_utility) > tolerance) {
      settle = history[i].iteration + 1;
      break;
    }
  }
  return settle == -1 ? 1 : settle;
}

/// The paper-calibrated engine configuration used by all benches.
inline LlaConfig PaperLlaConfig() {
  LlaConfig config;
  config.step_policy = StepPolicyKind::kAdaptive;
  config.gamma0 = 4.0;
  config.adaptive_max_multiplier = 8.0;
  return config;
}

/// Minimal JSON value (number / string / bool / array / object) for the
/// BENCH_*.json artifacts.  Build with the static factories and the chaining
/// Add/Push helpers, then serialize with WriteJson.
struct JsonValue {
  enum class Kind { kNumber, kString, kBool, kArray, kObject };
  Kind kind = Kind::kNumber;
  double number = 0.0;
  std::string string;
  bool boolean = false;
  std::vector<JsonValue> items;                          ///< kArray
  std::vector<std::pair<std::string, JsonValue>> fields; ///< kObject

  static JsonValue Number(double value) {
    JsonValue v;
    v.kind = Kind::kNumber;
    v.number = value;
    return v;
  }
  static JsonValue String(std::string value) {
    JsonValue v;
    v.kind = Kind::kString;
    v.string = std::move(value);
    return v;
  }
  static JsonValue Bool(bool value) {
    JsonValue v;
    v.kind = Kind::kBool;
    v.boolean = value;
    return v;
  }
  static JsonValue Array() {
    JsonValue v;
    v.kind = Kind::kArray;
    return v;
  }
  static JsonValue Object() {
    JsonValue v;
    v.kind = Kind::kObject;
    return v;
  }

  JsonValue& Add(std::string key, JsonValue value) {
    fields.emplace_back(std::move(key), std::move(value));
    return *this;
  }
  JsonValue& Push(JsonValue value) {
    items.push_back(std::move(value));
    return *this;
  }
};

inline void WriteJsonValue(std::FILE* file, const JsonValue& value,
                           int indent) {
  const auto pad = [&](int depth) {
    for (int i = 0; i < depth; ++i) std::fputs("  ", file);
  };
  switch (value.kind) {
    case JsonValue::Kind::kNumber:
      std::fprintf(file, "%.17g", value.number);
      break;
    case JsonValue::Kind::kBool:
      std::fputs(value.boolean ? "true" : "false", file);
      break;
    case JsonValue::Kind::kString:
      std::fputc('"', file);
      for (char c : value.string) {
        if (c == '"' || c == '\\') std::fputc('\\', file);
        if (static_cast<unsigned char>(c) < 0x20) {
          std::fprintf(file, "\\u%04x", c);
        } else {
          std::fputc(c, file);
        }
      }
      std::fputc('"', file);
      break;
    case JsonValue::Kind::kArray:
      std::fputc('[', file);
      for (std::size_t i = 0; i < value.items.size(); ++i) {
        std::fputs(i == 0 ? "\n" : ",\n", file);
        pad(indent + 1);
        WriteJsonValue(file, value.items[i], indent + 1);
      }
      if (!value.items.empty()) {
        std::fputc('\n', file);
        pad(indent);
      }
      std::fputc(']', file);
      break;
    case JsonValue::Kind::kObject:
      std::fputc('{', file);
      for (std::size_t i = 0; i < value.fields.size(); ++i) {
        std::fputs(i == 0 ? "\n" : ",\n", file);
        pad(indent + 1);
        std::fprintf(file, "\"%s\": ", value.fields[i].first.c_str());
        WriteJsonValue(file, value.fields[i].second, indent + 1);
      }
      if (!value.fields.empty()) {
        std::fputc('\n', file);
        pad(indent);
      }
      std::fputc('}', file);
      break;
  }
}

/// The commit SHA the bench binary is reporting for: GITHUB_SHA (CI) or
/// LLA_COMMIT (manual override), falling back to `git rev-parse HEAD`, then
/// "unknown" outside a checkout.
inline std::string CommitSha() {
  for (const char* var : {"GITHUB_SHA", "LLA_COMMIT"}) {
    const char* value = std::getenv(var);
    if (value != nullptr && value[0] != '\0') return value;
  }
  std::string sha;
  if (std::FILE* pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buffer[64];
    if (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) sha = buffer;
    ::pclose(pipe);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

/// Stamps provenance into a BENCH_*.json root object: the commit SHA and
/// the generation time (ISO 8601 UTC), so archived artifacts from the perf
/// trajectory remain attributable to the code that produced them.
inline void StampMeta(JsonValue* root) {
  root->Add("commit", JsonValue::String(CommitSha()));
  std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char stamp[32];
  std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &utc);
  root->Add("generated_at", JsonValue::String(stamp));
}

/// Writes `value` to `path` (pretty-printed, trailing newline).  Returns
/// false when the file cannot be opened.
inline bool WriteJson(const std::string& path, const JsonValue& value) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  WriteJsonValue(file, value, 0);
  std::fputc('\n', file);
  std::fclose(file);
  return true;
}

/// The standard BENCH_*.json root shared by the JSON-emitting benches: bench
/// name, measurement unit, quick flag, plus the provenance stamp.  Benches
/// append their gate flags and result sections to the returned object.
inline JsonValue BenchReportRoot(const std::string& bench,
                                 const std::string& unit, bool quick) {
  JsonValue root = JsonValue::Object();
  root.Add("bench", JsonValue::String(bench));
  root.Add("unit", JsonValue::String(unit));
  root.Add("quick", JsonValue::Bool(quick));
  StampMeta(&root);
  return root;
}

/// Writes the finished report and prints the outcome.  Returns the exit-code
/// contribution (0 ok, 1 write failure) for the bench's main to combine with
/// its gate status.
inline int EmitBenchReport(const std::string& path, const JsonValue& root) {
  if (WriteJson(path, root)) {
    std::printf("wrote %s\n", path.c_str());
    return 0;
  }
  std::printf("failed to write %s\n", path.c_str());
  return 1;
}

/// Shared --quick detection for bench mains.
inline bool HasQuickFlag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) return true;
  }
  return false;
}

}  // namespace lla::bench
