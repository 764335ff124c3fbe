#pragma once

// In-memory spans for the traced run. Each span has a name, a start and
// an end, the span that caused it, and the request (block or query) it
// belongs to. Spans are kept in memory while the run measures and
// written out as Chrome trace-event JSON when it ends.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = UINT32_MAX;

  /// Per-name totals over the run. A span's self time is its duration
  /// minus the durations of its children (which never overlap).
  struct Totals {
    double total_us = 0.0;
    double self_us = 0.0;
    std::size_t count = 0;
  };

  /// Opens a span now; close() ends it. `name` must be a string literal.
  std::uint32_t open(const char* name, std::uint64_t request,
                     std::uint32_t parent = kNoParent) {
    spans_.push_back(Span{name, request, parent, Clock::now(), {}});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void close(std::uint32_t span) { spans_[span].end = Clock::now(); }

  /// Records a span whose bounds were timed by the caller.
  void record(const char* name, std::uint64_t request, std::uint32_t parent,
              Clock::time_point start, Clock::time_point end) {
    spans_.push_back(Span{name, request, parent, start, end});
  }

  [[nodiscard]] std::map<std::string, Totals> totals() const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent != kNoParent) child_us[s.parent] += micros(s.end - s.start);
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const double us = micros(spans_[i].end - spans_[i].start);
      Totals& t = out[spans_[i].name];
      t.total_us += us;
      t.self_us += us - child_us[i];
      ++t.count;
    }
    return out;
  }

  /// Writes every span as a complete ("X") trace event; false on I/O
  /// failure.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    const Clock::time_point origin =
        spans_.empty() ? Clock::time_point{} : spans_.front().start;
    std::fputs("{\"traceEvents\":[\n", file);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(file,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                   "\"span\":%zu,\"parent\":%lld}}\n",
                   i == 0 ? "" : ",", s.name,
                   micros(s.start - origin), micros(s.end - s.start),
                   static_cast<unsigned long long>(s.request), i,
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent));
    }
    std::fputs("]}\n", file);
    return std::fclose(file) == 0;
  }

 private:
  struct Span {
    const char* name;
    std::uint64_t request;
    std::uint32_t parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::vector<Span> spans_;
};

}  // namespace perfbench
