// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark around each public library call it
// makes (the library itself is not instrumented). They stay in memory while
// the run measures and are written out once, when it ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace pipebench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;       ///< layer.call, e.g. "buchi.determinize"
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;    ///< index of the enclosing span, -1 for a root
  std::int64_t request;   ///< the spec or batch the span serves
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(std::size_t{1} << 16);
  }

  bool enabled() const { return enabled_; }
  std::size_t size() const { return spans_.size(); }

  /// Opens a span under the innermost open one; -1 when tracing is off.
  int begin(const char* name, std::int64_t request) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, now_ns(), 0, parent, request});
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }

  void end(int index) {
    if (index < 0) return;
    spans_[index].end_ns = now_ns();
    open_.pop_back();
  }

  /// Self time (duration minus the time its child spans cover) summed per
  /// span name over spans [from, to), in milliseconds.
  std::map<std::string, double> self_ms(std::size_t from, std::size_t to) const {
    std::vector<std::int64_t> child_ns(to - from, 0);
    for (std::size_t i = from; i < to; ++i) {
      const Span& s = spans_[i];
      if (s.parent >= static_cast<std::int32_t>(from)) {
        child_ns[s.parent - from] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = from; i < to; ++i) {
      const Span& s = spans_[i];
      out[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i - from]) / 1e6;
    }
    return out;
  }

  /// Writes every span as CSV (times relative to the first span).
  bool write_csv(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(out, "id,name,start_ns,end_ns,parent,request\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out, "%zu,%s,%lld,%lld,%d,%lld\n", i, s.name,
                   static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - t0), s.parent,
                   static_cast<long long>(s.request));
    }
    return std::fclose(out) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::int64_t request)
      : tracer_(tracer), index_(tracer.begin(name, request)) {}
  ~Scope() { tracer_.end(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace pipebench
