// Span recorder of the traced replay. The benchmark wraps each call into
// a layer's public functions in a span (name, start, end, parent,
// request id); spans stay in memory and are summarized when the replay
// ends. A layer's self time is its span minus its child spans. A
// disabled recorder records nothing, which is how the untraced replay
// measures the recorder's own overhead.
#ifndef PERFBENCH_QVBENCH_SPANS_H_
#define PERFBENCH_QVBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/sync.h"

namespace qvbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";
  uint64_t request = 0;
  int parent = -1;  // index into the recorder's spans, -1 for a root
  Clock::time_point start;
  Clock::time_point end;
};

/// Per-name durations of one replay.
struct SpanSummary {
  /// Inclusive span durations (ms), per name.
  std::map<std::string, std::vector<double>> durations_ms;
  /// Sum of inclusive time (ms), per name.
  std::map<std::string, double> total_ms;
  /// Root ("request") time, and the part of it no child span covers.
  double request_ms = 0;
  double unattributed_ms = 0;
  /// (request id, root span ms) of every replayed request.
  std::vector<std::pair<uint64_t, double>> requests;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (-1 when disabled). Thread-safe.
  int Begin(const char* name, uint64_t request, int parent);
  void End(int id);

  /// Root spans are named "request"; every other span is a layer span.
  SpanSummary Summarize() const;

  /// Writes every span as one JSON line: name, request, id, parent,
  /// start and end in microseconds since the first span.
  bool WriteJsonl(const std::string& path) const;

 private:
  const bool enabled_;
  mutable qv::Mutex mu_;
  std::vector<Span> spans_ QV_GUARDED_BY(mu_);
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t request,
             int parent)
      : recorder_(recorder),
        id_(recorder == nullptr ? -1
                                : recorder->Begin(name, request, parent)) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }
  void Close() {
    if (recorder_ != nullptr && id_ >= 0) recorder_->End(id_);
    recorder_ = nullptr;
  }

 private:
  SpanRecorder* recorder_;
  int id_;
};

/// Exact percentile (nearest rank) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);

}  // namespace qvbench

#endif  // PERFBENCH_QVBENCH_SPANS_H_
