// Copyright 2026 The MarkoView Authors.
//
// In-memory span recorder for the benchmark's traced replay. A span is one
// timed call into a layer's public function, recorded from the benchmark's
// own code around that call: name, start, end, the enclosing span, and the
// request it served. Spans stay in memory while the replay runs and are
// written out once, as a Chrome trace-event file (load it in Perfetto or
// chrome://tracing), when the benchmark ends.

#ifndef MVDB_PERFBENCH_TRACE_H_
#define MVDB_PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace mvdb {
namespace perfbench {

struct Span {
  const char* name;  ///< layer name; must be a string literal
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;    ///< index of the enclosing span, -1 for a request root
  uint32_t request;  ///< shared by every span of one request
};

class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  /// Opens a span nested in the innermost open one; returns its index.
  int32_t Begin(const char* name, uint32_t request) {
    const int32_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, NowNs(), 0, parent, request});
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }

  /// Closes the innermost open span, which must be `span`.
  void End(int32_t span) {
    spans_[static_cast<size_t>(span)].end_ns = NowNs();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the part of its interval
  /// that its children cover.
  std::vector<int64_t> SelfTimesNs() const {
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        kids[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
      }
    }
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      std::vector<std::pair<int64_t, int64_t>>& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      int64_t covered = 0, reach = spans_[i].start_ns;
      for (const auto& [b, e] : iv) {
        const int64_t from = std::max(b, reach), to = std::min(e, spans_[i].end_ns);
        if (to > from) covered += to - from;
        reach = std::max(reach, to);
      }
      self[i] = spans_[i].end_ns - spans_[i].start_ns - covered;
    }
    return self;
  }

  /// True when every span is closed and lies inside its parent's interval.
  bool WellNested() const {
    if (!open_.empty()) return false;
    for (const Span& s : spans_) {
      if (s.end_ns < s.start_ns) return false;
      if (s.parent < 0) continue;
      const Span& p = spans_[static_cast<size_t>(s.parent)];
      if (s.request != p.request || s.start_ns < p.start_ns ||
          s.end_ns > p.end_ns) {
        return false;
      }
    }
    return true;
  }

  /// Writes every span as a complete ("X") trace event.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\":[\n", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                   "\"parent\":%d,\"request\":%u}}\n",
                   i == 0 ? "" : ",", s.name, s.start_ns / 1e3,
                   (s.end_ns - s.start_ns) / 1e3, i, s.parent, s.request);
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

}  // namespace perfbench
}  // namespace mvdb

#endif  // MVDB_PERFBENCH_TRACE_H_
