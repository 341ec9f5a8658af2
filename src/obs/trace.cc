#include "obs/trace.h"

#include <cassert>
#include <cinttypes>

namespace lla::obs {
namespace {

void WriteJsonString(std::FILE* file, const std::string& s) {
  std::fputc('"', file);
  for (char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', file);
    if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(file, "\\u%04x", c);
    } else {
      std::fputc(c, file);
    }
  }
  std::fputc('"', file);
}

void WriteJsonArray(std::FILE* file, const char* key,
                    const std::vector<double>& values) {
  std::fprintf(file, ",\"%s\":[", key);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::fprintf(file, i == 0 ? "%.17g" : ",%.17g", values[i]);
  }
  std::fputc(']', file);
}

std::FILE* OpenOrStdout(const std::string& path, bool* owns) {
  if (path == "-") {
    *owns = false;
    return stdout;
  }
  *owns = true;
  return std::fopen(path.c_str(), "w");
}

}  // namespace

JsonlTraceSink::JsonlTraceSink(const std::string& path) {
  file_ = OpenOrStdout(path, &owns_file_);
}

JsonlTraceSink::~JsonlTraceSink() {
  if (file_ != nullptr && owns_file_) std::fclose(file_);
}

void JsonlTraceSink::OnRunBegin(const RunInfo& info) {
  run_label_ = info.label;
  if (file_ == nullptr) return;
  std::fputs("{\"type\":\"run_begin\",\"run\":", file_);
  WriteJsonString(file_, info.label);
  std::fprintf(file_, ",\"resources\":%zu,\"paths\":%zu}\n",
               info.resource_count, info.path_count);
}

void JsonlTraceSink::OnIteration(const IterationTrace& trace) {
  if (file_ == nullptr) return;
  std::fputs("{\"type\":\"iteration\",\"run\":", file_);
  WriteJsonString(file_, run_label_);
  std::fprintf(file_, ",\"iteration\":%" PRId64, trace.iteration);
  if (trace.at_ms >= 0.0) std::fprintf(file_, ",\"at_ms\":%.17g", trace.at_ms);
  std::fprintf(file_,
               ",\"total_utility\":%.17g,\"feasible\":%s"
               ",\"max_resource_excess\":%.17g,\"max_path_ratio\":%.17g",
               trace.total_utility, trace.feasible ? "true" : "false",
               trace.max_resource_excess, trace.max_path_ratio);
  WriteJsonArray(file_, "resource_share_sums", trace.resource_share_sums);
  WriteJsonArray(file_, "resource_mu", trace.resource_mu);
  WriteJsonArray(file_, "resource_step", trace.resource_step);
  WriteJsonArray(file_, "path_latencies", trace.path_latencies);
  WriteJsonArray(file_, "path_lambda", trace.path_lambda);
  WriteJsonArray(file_, "path_step", trace.path_step);
  // Per-step work, present only when the producer reports it.
  if (trace.tasks_solved >= 0) {
    std::fprintf(file_, ",\"tasks_solved\":%d,\"subtasks_solved\":%d",
                 trace.tasks_solved, trace.subtasks_solved);
  }
  if (trace.active_mu >= 0) {
    std::fprintf(file_, ",\"active_mu\":%d,\"active_lambda\":%d",
                 trace.active_mu, trace.active_lambda);
  }
  // Momentum diagnostics, present only under accelerated dynamics.
  if (trace.momentum_restarts >= 0) {
    std::fprintf(file_, ",\"momentum_restarts\":%d,\"effective_beta\":%.17g",
                 trace.momentum_restarts, trace.effective_beta);
  }
  std::fputs("}\n", file_);
}

void JsonlTraceSink::OnEvent(const TraceEvent& event) {
  if (file_ == nullptr) return;
  std::fputs("{\"type\":\"event\",\"event\":", file_);
  WriteJsonString(file_, event.type);
  std::fputs(",\"run\":", file_);
  WriteJsonString(file_, run_label_);
  for (const auto& [key, value] : event.fields) {
    std::fputs(",", file_);
    WriteJsonString(file_, key);
    std::fprintf(file_, ":%.17g", value);
  }
  std::fputs("}\n", file_);
}

void JsonlTraceSink::OnRunEnd() {
  if (file_ != nullptr) {
    std::fputs("{\"type\":\"run_end\",\"run\":", file_);
    WriteJsonString(file_, run_label_);
    std::fputs("}\n", file_);
    std::fflush(file_);
  }
  run_label_.clear();
}

RingBufferTraceSink::RingBufferTraceSink(std::size_t capacity)
    : capacity_(capacity) {
  assert(capacity > 0);
  buffer_.reserve(capacity);
}

void RingBufferTraceSink::OnIteration(const IterationTrace& trace) {
  ++total_received_;
  if (buffer_.size() < capacity_) {
    buffer_.push_back(trace);
    return;
  }
  buffer_[next_] = trace;
  next_ = (next_ + 1) % capacity_;
}

const IterationTrace& RingBufferTraceSink::at(std::size_t i) const {
  assert(i < buffer_.size());
  if (buffer_.size() < capacity_) return buffer_[i];
  return buffer_[(next_ + i) % capacity_];
}

}  // namespace lla::obs
