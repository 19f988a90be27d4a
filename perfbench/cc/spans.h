// In-memory span recorder for the traced runs. Spans are recorded by the
// benchmark around its calls into the library (never inside it); each
// belongs to a unit — one campaign round or one service tick — and names
// its parent span within that unit. Self time is a span's duration minus
// the durations of its direct children.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
std::int64_t NowNs();

struct Span {
  const char* name = "";   // static string
  std::int64_t unit = 0;   // round or tick id
  int parent = -1;         // index within the unit, -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t self_ns = 0;  // filled by ComputeSelfTimes

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Sets self_ns of every span of one unit: duration minus the summed
/// durations of the spans naming it as parent.
void ComputeSelfTimes(std::vector<Span>* unit);

class SpanRecorder {
 public:
  /// Keeps at most `max_retained` spans for the Chrome trace; self times
  /// are computed for every unit regardless.
  explicit SpanRecorder(std::size_t max_retained);

  /// Starts a unit; spans opened until EndUnit() belong to it.
  void BeginUnit(std::int64_t unit);
  /// Opens a span under the innermost open span of the unit. Returns its
  /// handle for End().
  int Begin(const char* name);
  void End(int handle);
  /// Adds an already finished span (for intervals that do not nest on one
  /// call stack, such as a service tick between submit and settlement).
  int Add(const char* name, int parent, std::int64_t start_ns,
          std::int64_t end_ns);
  /// Closes the unit: computes its self times, retains its spans while
  /// under the cap, and returns them.
  const std::vector<Span>& EndUnit();

  const std::vector<Span>& retained() const { return retained_; }
  std::uint64_t units() const { return units_; }

 private:
  std::size_t max_retained_;
  std::int64_t unit_id_ = 0;
  std::vector<Span> unit_;
  std::vector<int> open_;
  std::vector<Span> retained_;
  std::uint64_t units_ = 0;
};

/// Writes the retained spans of every recorder as one Chrome trace-event
/// JSON file, recorder i on thread lane i + 1.
cdt::util::Status WriteChromeTrace(
    const std::string& path, const std::vector<const SpanRecorder*>& lanes);

/// RAII span on a possibly-null recorder (null = untraced, no clock reads).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder),
        handle_(recorder != nullptr ? recorder->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int handle_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
