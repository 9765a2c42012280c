// In-memory span recorder for the traced benchmark run.
//
// Each span has a name ("<layer>.<what>"), start and end on the steady
// clock, the id of the span that was open when it started (its parent),
// and a request id shared by every span of one request (-1: none). Spans
// stay in memory until writeJsonl() at the end of the run, so recording
// costs a clock read and a vector push. A disabled recorder records
// nothing; the untraced run uses one.
//
// A layer's self time is the summed duration of its spans minus the part
// of each span covered by child spans (a child of the same layer is
// counted once, in the child).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mbbench {

struct Span {
  std::string name;
  std::int64_t startNs = 0;
  std::int64_t endNs = -1;  // -1 while open
  int parent = -1;          // index into the span list, -1 for a root
  std::int64_t request = -1;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Open a span under the innermost open span; returns its id (-1 when
  /// disabled).
  int open(const std::string& name, std::int64_t request = -1);
  void close(int id);

  /// Record an already-timed interval (client-side spans whose ends arrive
  /// as events, not scopes) under `parent`, or under the innermost open
  /// span when `parent` is kOpenParent. Returns its id (-1 when disabled).
  static constexpr int kOpenParent = -2;
  int add(const std::string& name, std::int64_t startNs, std::int64_t endNs,
          std::int64_t request = -1, int parent = kOpenParent);

  std::int64_t nowNs() const;

  /// Self time per layer (the name up to the first '.'), in seconds.
  std::map<std::string, double> layerSelfSeconds() const;

  /// Durations of the spans named `name`, in seconds, in record order.
  std::vector<double> durations(const std::string& name) const;

  bool writeJsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII scope for SpanRecorder::open/close.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const std::string& name, std::int64_t request = -1)
      : rec_(rec), id_(rec.open(name, request)) {}
  ~ScopedSpan() { rec_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

}  // namespace mbbench
