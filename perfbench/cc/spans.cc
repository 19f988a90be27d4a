#include "spans.h"

#include <chrono>
#include <cstdio>
#include <fstream>

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void ComputeSelfTimes(std::vector<Span>* unit) {
  for (Span& span : *unit) span.self_ns = span.duration_ns();
  for (const Span& span : *unit) {
    if (span.parent >= 0) {
      (*unit)[static_cast<std::size_t>(span.parent)].self_ns -=
          span.duration_ns();
    }
  }
}

SpanRecorder::SpanRecorder(std::size_t max_retained)
    : max_retained_(max_retained) {
  retained_.reserve(max_retained_);
}

void SpanRecorder::BeginUnit(std::int64_t unit) {
  unit_id_ = unit;
  unit_.clear();
  open_.clear();
}

int SpanRecorder::Begin(const char* name) {
  Span span;
  span.name = name;
  span.unit = unit_id_;
  span.parent = open_.empty() ? -1 : open_.back();
  unit_.push_back(span);
  const int handle = static_cast<int>(unit_.size()) - 1;
  open_.push_back(handle);
  // Read the clock last so the bookkeeping above is outside the span.
  unit_.back().start_ns = NowNs();
  return handle;
}

void SpanRecorder::End(int handle) {
  const std::int64_t now = NowNs();
  unit_[static_cast<std::size_t>(handle)].end_ns = now;
  if (!open_.empty() && open_.back() == handle) open_.pop_back();
}

int SpanRecorder::Add(const char* name, int parent, std::int64_t start_ns,
                      std::int64_t end_ns) {
  Span span;
  span.name = name;
  span.unit = unit_id_;
  span.parent = parent;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  unit_.push_back(span);
  return static_cast<int>(unit_.size()) - 1;
}

const std::vector<Span>& SpanRecorder::EndUnit() {
  ComputeSelfTimes(&unit_);
  ++units_;
  if (retained_.size() + unit_.size() <= max_retained_) {
    // Parents become indices into retained_.
    const int base = static_cast<int>(retained_.size());
    for (Span span : unit_) {
      if (span.parent >= 0) span.parent += base;
      retained_.push_back(span);
    }
  }
  return unit_;
}

cdt::util::Status WriteChromeTrace(
    const std::string& path, const std::vector<const SpanRecorder*>& lanes) {
  std::int64_t origin = 0;
  bool have_origin = false;
  for (const SpanRecorder* lane : lanes) {
    for (const Span& s : lane->retained()) {
      if (!have_origin || s.start_ns < origin) origin = s.start_ns;
      have_origin = true;
    }
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) return cdt::util::Status::IoError("cannot write " + path);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  const char* sep = "";
  char buf[512];
  for (std::size_t tid = 0; tid < lanes.size(); ++tid) {
    const std::vector<Span>& spans = lanes[tid]->retained();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                    "\"unit\":%lld,\"span\":%zu,\"parent\":%d,"
                    "\"self_us\":%.3f}}",
                    sep, s.name, tid + 1,
                    static_cast<double>(s.start_ns - origin) * 1e-3,
                    static_cast<double>(s.duration_ns()) * 1e-3,
                    static_cast<long long>(s.unit), i, s.parent,
                    static_cast<double>(s.self_ns) * 1e-3);
      out << buf;
      sep = ",";
    }
  }
  out << "\n]}\n";
  out.close();
  if (!out) return cdt::util::Status::IoError("short write to " + path);
  return cdt::util::Status::OK();
}

}  // namespace perfbench
