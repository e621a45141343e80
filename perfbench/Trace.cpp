#include "Trace.h"

#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace perfbench {

namespace {

const Clock::time_point kEpoch = Clock::now();

double microsNow() {
  return std::chrono::duration<double, std::micro>(Clock::now() - kEpoch)
      .count();
}

} // namespace

double millisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

void Tracer::begin(const std::string& name) {
  Span span;
  span.name = name;
  span.id = (static_cast<std::uint64_t>(thread_) << 40) | nextId_++;
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.request = request_;
  span.thread = thread_;
  span.startUs = microsNow();
  open_.push_back(spans_.size());
  spans_.push_back(std::move(span));
}

void Tracer::end() {
  spans_[open_.back()].endUs = microsNow();
  open_.pop_back();
}

std::map<std::string, SpanTotals> spanTotals(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, double> childUs;
  for (const Span& span : spans)
    if (span.parent != 0)
      childUs[span.parent] += span.endUs - span.startUs;
  std::map<std::string, SpanTotals> totals;
  for (const Span& span : spans) {
    SpanTotals& entry = totals[span.name];
    const double durationUs = span.endUs - span.startUs;
    const auto child = childUs.find(span.id);
    ++entry.count;
    entry.totalMs += durationUs / 1000.0;
    entry.selfMs +=
        (durationUs - (child == childUs.end() ? 0.0 : child->second)) /
        1000.0;
  }
  return totals;
}

bool writeChromeTrace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    char line[512];
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu,\"request\":%llu,\"end\":%.3f}}%s\n",
                  span.name.c_str(), span.thread, span.startUs,
                  span.endUs - span.startUs,
                  static_cast<unsigned long long>(span.id),
                  static_cast<unsigned long long>(span.parent),
                  static_cast<unsigned long long>(span.request), span.endUs,
                  i + 1 < spans.size() ? "," : "");
    out << line;
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

} // namespace perfbench
