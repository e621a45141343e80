// Outside-in spans for the benchmark's traced runs.
//
// The benchmark records a span around each of its own calls into a
// module's public functions (no span inside the program). Each client
// thread owns one Tracer, so recording takes no lock; the spans stay in
// memory and are written once, after the run, as Chrome trace-event
// JSON (viewable in Perfetto or about:tracing).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double millisSince(Clock::time_point start);

struct Span {
  std::string name;
  double startUs = 0;
  double endUs = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0; ///< 0 = a root span
  std::uint64_t request = 0;
  int thread = 0;
};

class Tracer {
public:
  explicit Tracer(int thread) : thread_(thread) {}

  /// Spans opened after this belong to `request` (a workload-unique id).
  void setRequest(std::uint64_t request) { request_ = request; }
  void begin(const std::string& name);
  void end();
  const std::vector<Span>& spans() const { return spans_; }

private:
  int thread_;
  std::uint64_t request_ = 0;
  std::uint64_t nextId_ = 1;
  std::vector<std::size_t> open_; // indices into spans_
  std::vector<Span> spans_;
};

/// RAII span; a null tracer records nothing (the untraced path).
class ScopedSpan {
public:
  ScopedSpan(Tracer* tracer, const std::string& name) : tracer_(tracer) {
    if (tracer_)
      tracer_->begin(name);
  }
  ~ScopedSpan() {
    if (tracer_)
      tracer_->end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
  Tracer* tracer_;
};

struct SpanTotals {
  std::int64_t count = 0;
  double totalMs = 0;
  double selfMs = 0; ///< duration minus the part covered by child spans
};

/// Per-name totals over all spans; a span's children are the spans whose
/// parent is its id.
std::map<std::string, SpanTotals> spanTotals(const std::vector<Span>& spans);

/// Writes {"traceEvents": [...]} with one complete ("X") event per span;
/// args carry the span id, parent id, request id and end time.
bool writeChromeTrace(const std::string& path, const std::vector<Span>& spans);

} // namespace perfbench
