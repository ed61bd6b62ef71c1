// In-memory span recorder for the benchmark's traced run.
//
// A span is one call into a layer's public API, recorded from the benchmark
// around that call: name, start, end, the span that caused it, and the id of
// the request it belongs to. Spans are kept in memory and written out once,
// when the benchmark ends. A span's self time is its duration minus the part
// of its interval that its child spans cover (children of one parent may run
// concurrently, so their union is subtracted, not their sum).
//
// A disabled recorder records nothing: Begin returns kNoSpan and End is a
// no-op, so the untraced run pays one branch per call site.
#ifndef GCGT_PERFBENCH_SPAN_RECORDER_H_
#define GCGT_PERFBENCH_SPAN_RECORDER_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace gcgt::perfbench {

/// The benchmark's time origin: the steady-clock instant of the first call.
inline std::chrono::steady_clock::time_point Epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

/// Nanoseconds on the steady clock since Epoch().
inline int64_t NowNs() {
  const auto epoch = Epoch();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

/// The steady-clock instant `ns` nanoseconds after Epoch().
inline std::chrono::steady_clock::time_point TimePoint(int64_t ns) {
  return Epoch() + std::chrono::nanoseconds(ns);
}

class SpanRecorder {
 public:
  static constexpr int64_t kNoSpan = -1;

  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = -1;  ///< -1 while open
    int64_t parent = kNoSpan;
    uint64_t request = 0;  ///< 0 = not part of a request
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const { return enabled_; }

  /// Opens a span starting now, or at `start_ns` when given (an open-loop
  /// request starts when it was due, not when it was sent).
  int64_t Begin(const char* name, int64_t parent = kNoSpan,
                uint64_t request = 0, int64_t start_ns = -1) {
    if (!enabled_) return kNoSpan;
    const int64_t start = start_ns >= 0 ? start_ns : NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start, -1, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  /// Closes a span now, or at `end_ns` when given.
  void End(int64_t id, int64_t end_ns = -1) {
    if (id == kNoSpan) return;
    const int64_t end = end_ns >= 0 ? end_ns : NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = end;
  }

  /// Duration of a closed span in seconds (0 for kNoSpan or an open span).
  double Seconds(int64_t id) const {
    if (id == kNoSpan) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    const Span& s = spans_[static_cast<size_t>(id)];
    return s.end_ns < 0 ? 0 : (s.end_ns - s.start_ns) * 1e-9;
  }

  /// Writes every span (with its self time) and, per span name, the count,
  /// total and self time, as one JSON document. Returns false when the file
  /// cannot be written.
  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    const std::vector<int64_t> self = SelfNsLocked();
    struct Aggregate {
      uint64_t count = 0;
      int64_t total_ns = 0;
      int64_t self_ns = 0;
    };
    std::map<std::string, Aggregate> agg;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end_ns < 0) continue;
      Aggregate& a = agg[s.name];
      ++a.count;
      a.total_ns += s.end_ns - s.start_ns;
      a.self_ns += self[i];
    }
    std::fprintf(f, "{\"aggregates\": {");
    bool first = true;
    for (const auto& [name, a] : agg) {
      std::fprintf(f,
                   "%s\n  \"%s\": {\"count\": %llu, \"total_s\": %.9f, "
                   "\"self_s\": %.9f}",
                   first ? "" : ",", name.c_str(),
                   static_cast<unsigned long long>(a.count), a.total_ns * 1e-9,
                   a.self_ns * 1e-9);
      first = false;
    }
    std::fprintf(f, "},\n\"spans\": [");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %lld, \"request\": %llu, "
                   "\"self_ns\": %lld}",
                   i ? "," : "", i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(self[i]));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  // Self time of every span: its duration minus the union of its closed
  // children's intervals, clipped to the parent's interval.
  std::vector<int64_t> SelfNsLocked() const {
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans_.size());
    for (const Span& s : spans_) {
      if (s.parent != kNoSpan && s.end_ns >= 0) {
        children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                             s.end_ns);
      }
    }
    std::vector<int64_t> self(spans_.size(), 0);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& p = spans_[i];
      if (p.end_ns < 0) continue;
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      int64_t covered = 0;
      int64_t run_begin = 0;
      int64_t run_end = -1;
      for (auto [b, e] : kids) {
        b = std::max(b, p.start_ns);
        e = std::min(e, p.end_ns);
        if (e <= b) continue;
        if (b > run_end) {
          if (run_end > run_begin) covered += run_end - run_begin;
          run_begin = b;
          run_end = e;
        } else {
          run_end = std::max(run_end, e);
        }
      }
      if (run_end > run_begin) covered += run_end - run_begin;
      self[i] = (p.end_ns - p.start_ns) - covered;
    }
    return self;
  }

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

}  // namespace gcgt::perfbench

#endif  // GCGT_PERFBENCH_SPAN_RECORDER_H_
