// Per-request tracing: a Trace is allocated per request (the server uses
// the wire request id as the trace id), spans are opened and closed
// around pipeline stages, and the finished tree serializes to a
// flame-style indented breakdown.
//
// The span tree mirrors the search pipeline:
//
//   request (root)
//   ├─ prepare                cache probe + plan on the calling thread
//   ├─ shard [shard=i]        one per shard task, created in shard order
//   │   ├─ plan
//   │   ├─ build_pdts         counters: ids_processed, nodes_emitted, ...
//   │   └─ evaluate           counters: view_results, candidates,
//   │                         view_evaluations (0 when a cached bundle
//   │                         ran no evaluator)
//   ├─ merge                  ranked-stream fan-in + idf finalization
//   └─ materialize            FetchNext: hits, heap_pops, pages_read, ...
//
// Concurrency model (lock-cheap by construction):
//   - StartSpan reserves its span's slot with one atomic increment;
//     shard tasks racing to create spans is the supported case. Only a
//     span past the first block takes the trace mutex, to find (or add)
//     its block; spans never move, so pointers stay stable.
//   - Everything else on a span — Close, AddCounter — is plain stores
//     by the one thread that owns the span at that moment. No atomics,
//     no locks on the hot path.
//   - Serialize/Snapshot require quiescence: every span owner must have
//     finished, with a happens-before edge to the serializing thread
//     (the engine's Open barrier and the cursor's single-threaded
//     contract provide exactly that).
//
// Tracing is opt-in per request: a null Trace* disables every hook
// (SpanScope on a null trace is a no-op), which is the compiled-in
// default path benchmarked by bench_trace_overhead. A traced warm search
// must stay within a few percent of it, so a warm search's trace makes a
// handful of small allocations (itself, one more block of spans, its
// text): spans live in blocks, a span's counters inside the span, span
// and counter names are string literals the trace points to, a caller
// that has read the clock for its own timer passes that instant
// (StartSpanAt, CloseAt), and Serialize formats on the stack.
//
// AddCounter is an upsert (adding to an existing key accumulates), and
// it stays legal after Close: the cursor attributes materialization I/O
// back to the already-closed per-shard spans so that summing a counter
// over the shard spans always matches the cursor's EngineStats.
#ifndef QUICKVIEW_OBS_TRACE_H_
#define QUICKVIEW_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/sync.h"

namespace quickview::obs {

class Trace;

class TraceSpan {
 public:
  using Clock = std::chrono::steady_clock;

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Sets the span's duration to "now - start". May be called more than
  /// once (the cursor re-closes its materialize span after every
  /// FetchNext); the last call wins.
  void Close();
  /// Close with an end instant the caller has read already: on a hot
  /// path, the span shares a timer's clock read.
  void CloseAt(Clock::time_point end);

  /// Adds `delta` to counter `name`, creating it at the end of the
  /// counter list on first use. Owner-thread only (see file comment).
  /// `name` must be a string literal: the span keeps the pointer.
  void AddCounter(std::string_view name, uint64_t delta);

  std::string_view name() const { return name_; }
  int shard() const { return shard_; }
  /// Offset from the trace epoch / wall time of the span, nanoseconds.
  uint64_t start_ns() const { return start_ns_; }
  uint64_t duration_ns() const { return duration_ns_; }
  bool closed() const { return closed_; }
  const TraceSpan* parent() const { return parent_; }
  /// The counters, in the order they were first added: how many, and
  /// the name and value of counter `i`.
  size_t counter_count() const {
    return spilled_ != nullptr ? spilled_->size() : inline_count_;
  }
  std::string_view counter_name(size_t i) const {
    return spilled_ != nullptr ? (*spilled_)[i].first
                               : std::string_view(names_[i], name_sizes_[i]);
  }
  uint64_t counter_value(size_t i) const {
    return spilled_ != nullptr ? (*spilled_)[i].second : values_[i];
  }
  /// The counter's value, 0 if absent.
  uint64_t counter(std::string_view name) const;

 private:
  friend class Trace;
  TraceSpan() = default;

  // Every span the engine records has at most this many counters, each
  // with a name under 256 bytes; others spill to the heap.
  static constexpr size_t kInlineCounters = 8;

  Trace* trace_ = nullptr;
  std::string_view name_;
  const TraceSpan* parent_ = nullptr;
  uint64_t start_ns_ = 0;
  uint64_t duration_ns_ = 0;
  int32_t shard_ = -1;
  // Bytes the span's line can take in Serialize.
  uint32_t text_bound_ = 0;
  uint16_t depth_ = 0;  // the root's is 0
  uint8_t inline_count_ = 0;
  bool closed_ = false;
  // The inline counters, kept apart so a span is small: four spans fit
  // a block under the allocator's small-request size.
  uint8_t name_sizes_[kInlineCounters];
  const char* names_[kInlineCounters];
  uint64_t values_[kInlineCounters];
  // Every counter, once one did not fit inline.
  std::unique_ptr<std::vector<std::pair<std::string_view, uint64_t>>>
      spilled_;
};

class Trace {
 public:
  /// Creates the trace with an open root span named `root_name`; the
  /// epoch (span time zero) is the construction instant.
  explicit Trace(uint64_t id, std::string_view root_name = "request");
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  uint64_t id() const { return id_; }
  TraceSpan* root() { return root_; }

  /// Opens a child span. Thread-safe (shard tasks race here). A null
  /// `parent` parents to the root. Like a counter's, `name` must be a
  /// string literal.
  TraceSpan* StartSpan(std::string_view name, TraceSpan* parent = nullptr,
                       int shard = -1) QV_EXCLUDES(mu_);
  /// StartSpan with a start instant the caller has read already.
  TraceSpan* StartSpanAt(std::string_view name, TraceSpan* parent, int shard,
                         TraceSpan::Clock::time_point start) QV_EXCLUDES(mu_);

  /// The flame-style breakdown: one line per span, two-space indent per
  /// depth, children in creation order under their parent —
  ///
  ///   trace <id>
  ///     <name>[ shard=<s>] start=<us>us dur=<us>us [ctr=v ...]
  ///
  /// Deterministic modulo the start=/dur= fields (strip them to compare
  /// runs byte-for-byte). Closes the root first if still open.
  /// Requires quiescence: no concurrent span activity.
  std::string Serialize() QV_EXCLUDES(mu_);

  /// All spans in creation order (root first). Requires quiescence;
  /// pointers are valid for the trace's lifetime.
  std::vector<const TraceSpan*> spans() const QV_EXCLUDES(mu_);

  /// `instant` as an offset from the trace epoch, nanoseconds.
  uint64_t ToNs(TraceSpan::Clock::time_point instant) const;

 private:
  // Spans live in blocks of this many: the first inside the Trace, the
  // rest on the heap. A block stays under the allocator's small-request
  // size, so neither the Trace nor a block takes malloc's slow path.
  static constexpr size_t kBlockSpans = 4;

  /// The span in `slot`, past the first block, adding the blocks up to
  /// it.
  TraceSpan* BlockSlot(size_t slot) QV_REQUIRES(mu_);
  /// The span in a reserved `slot`.
  const TraceSpan& At(size_t slot) const QV_REQUIRES(mu_);
  /// Writes the span in `slot` and, depth first, its subtree to `out`;
  /// returns the end of what it wrote.
  char* Render(size_t slot, size_t count, char* out) const QV_REQUIRES(mu_);

  mutable qv::Mutex mu_;
  std::atomic<size_t> size_{0};  // slots reserved
  TraceSpan first_block_[kBlockSpans];
  std::vector<std::unique_ptr<TraceSpan[]>> blocks_ QV_GUARDED_BY(mu_);
  TraceSpan* root_ = nullptr;
  TraceSpan::Clock::time_point epoch_;
  uint64_t id_;
};

/// RAII span guard tolerant of a disabled trace: every operation on a
/// SpanScope constructed with a null Trace* is a no-op, so call sites
/// carry no branches beyond one null check.
class SpanScope {
 public:
  SpanScope(Trace* trace, std::string_view name, TraceSpan* parent = nullptr,
            int shard = -1)
      : span_(trace == nullptr ? nullptr
                               : trace->StartSpan(name, parent, shard)) {}
  /// Starts at an instant the caller has read already.
  SpanScope(Trace* trace, std::string_view name, TraceSpan* parent, int shard,
            TraceSpan::Clock::time_point start)
      : span_(trace == nullptr
                  ? nullptr
                  : trace->StartSpanAt(name, parent, shard, start)) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (span_ != nullptr && !closed_) span_->Close();
  }

  TraceSpan* span() const { return span_; }
  void AddCounter(std::string_view name, uint64_t delta) {
    if (span_ != nullptr) span_->AddCounter(name, delta);
  }
  /// Closes the span at `end` (read already) instead of at destruction.
  void CloseAt(TraceSpan::Clock::time_point end) {
    if (span_ != nullptr) span_->CloseAt(end);
    closed_ = true;
  }

 private:
  TraceSpan* span_;
  bool closed_ = false;
};

}  // namespace quickview::obs

#endif  // QUICKVIEW_OBS_TRACE_H_
