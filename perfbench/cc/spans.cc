#include "spans.h"

#include <cstdio>

namespace perfbench {

std::uint32_t SpanRecorder::Name(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::vector<double> SpanRecorder::DurationsUs(std::uint32_t name) const {
  std::vector<double> durations;
  for (const Span& span : spans_) {
    if (span.name == name) {
      durations.push_back(static_cast<double>(span.end_ns - span.start_ns) /
                          1e3);
    }
  }
  return durations;
}

std::vector<SpanRecorder::Summary> SpanRecorder::Summarize() const {
  std::vector<Summary> summaries(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) summaries[i].name = names_[i];
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    Summary& summary = summaries[span.name];
    ++summary.count;
    summary.total_ms += static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    summary.self_ms +=
        static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) / 1e6;
  }
  return summaries;
}

bool SpanRecorder::Write(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "# name\tcount\ttotal_ms\tself_ms\n");
  for (const Summary& summary : Summarize()) {
    std::fprintf(file, "# %s\t%zu\t%.6f\t%.6f\n", summary.name.c_str(),
                 summary.count, summary.total_ms, summary.self_ms);
  }
  std::fprintf(file, "index\tname\tparent\top\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file, "%zu\t%s\t%d\t%u\t%lld\t%lld\n", i,
                 names_[span.name].c_str(), span.parent, span.op,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
