// In-memory spans for the traced run.  The benchmark places them around its
// own calls into the library's public functions; nothing inside src/ is
// instrumented.  Spans are written out once, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = -1;  ///< index of the enclosing span, -1 at top
    std::uint32_t op = 0;      ///< spans of one op share this id
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  struct Summary {
    std::string name;
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;  ///< duration minus the time its children cover
  };

  /// Interns a span name; call once per name, outside the timed loops.
  std::uint32_t Name(std::string_view name);

  /// Opens a span under the innermost open span; returns its index.
  std::size_t Begin(std::uint32_t name, std::uint32_t op) {
    spans_.push_back({name, open_, op, Now(), 0});
    open_ = static_cast<std::int32_t>(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void End(std::size_t span) {
    spans_[span].end_ns = Now();
    open_ = spans_[span].parent;
  }

  /// Durations of every span named `name`, in microseconds, in start order.
  std::vector<double> DurationsUs(std::uint32_t name) const;
  std::vector<Summary> Summarize() const;
  void Clear() {
    spans_.clear();
    open_ = -1;
  }
  std::size_t size() const { return spans_.size(); }

  /// Tab-separated spans (index, name, parent, op, start_ns, end_ns) after a
  /// header of per-name summaries.
  bool Write(const std::string& path) const;

 private:
  static std::int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::int32_t open_ = -1;
};

/// Records its scope as a span; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::uint32_t name, std::uint32_t op)
      : recorder_(recorder),
        span_(recorder != nullptr ? recorder->Begin(name, op) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::size_t span_;
};

}  // namespace perfbench
