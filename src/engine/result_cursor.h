// ResultCursor: the pull-based result surface of the engine (paper
// §4.2.2.2 taken to its API conclusion). ViewSearchEngine::Open runs the
// cheap whole-stream stages once — evaluation over the PDTs, scoring,
// per-shard ranked heaps merged under one tournament frontier — and
// hands back a cursor; each FetchNext(n) pops the next n entries in
// global score order and materializes exactly those from the owning
// shard's document store. Materialization is the ONLY base-data access
// of the pipeline, so a hit that is never fetched costs zero store
// fetches — observable in stats().search.store_fetches globally and in
// stats().shards[i] per shard: fetching the global top 10 touches only
// the pages of the shards those 10 hits live on. This is what makes
// "10 more" pagination incremental at any shard count.
//
// Lifetime: the cursor pins every shard's PreparedQuery via shared_ptr —
// a bundle, and with it its skeleton's PDTs and the arena the view was
// evaluated into once, which many cursors read at once; or caller-built
// PDTs and the arena this request evaluated them into — so it stays
// valid after the PreparedQueryCache evicts entries or the engine's
// caller moves on. The Databases, indexes and DocumentStores the engine
// was built over must still outlive the cursor (they are immutable,
// service-lifetime structures).
//
// Cancellation: the cursor co-owns the query's CancellationToken. It
// fires the token once the top_k budget is satisfied and again on
// destruction, so caller-side work cooperating on the same token stops
// when the cursor is done with it. (Shard tasks themselves finished
// inside Open — the barrier — so firing here never races engine work.)
//
// Error handling: a failed FetchNext returns the error and leaves the
// cursor in an unspecified (but destructible) state; discard it.
#ifndef QUICKVIEW_ENGINE_RESULT_CURSOR_H_
#define QUICKVIEW_ENGINE_RESULT_CURSOR_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "engine/engine_stats.h"
#include "engine/merged_ranked_stream.h"
#include "engine/view_search_engine.h"
#include "obs/trace.h"
#include "scoring/scorer.h"
#include "storage/document_store.h"
#include "xml/dom.h"

namespace quickview::engine {

class ResultCursor {
 public:
  ResultCursor(const ResultCursor&) = delete;
  ResultCursor& operator=(const ResultCursor&) = delete;
  ~ResultCursor();

  /// Returns the next (up to) `n` hits in descending score order,
  /// materializing each from its shard's document store as it is
  /// returned. Returns fewer than `n` — possibly zero — once the merged
  /// stream or the cursor's top_k budget is exhausted. Splitting one
  /// fetch into several smaller ones yields the identical hit sequence.
  Result<std::vector<SearchHit>> FetchNext(size_t n);

  /// True once every hit the cursor will ever yield has been fetched.
  bool Done() const { return pending() == 0; }

  /// Hits returned so far.
  size_t fetched() const { return fetched_; }

  /// Hits still fetchable: min(top_k budget left, candidates left).
  size_t pending() const {
    size_t budget = limit_ - fetched_;
    return std::min(budget, stream_.Size());
  }

  /// The unified stats answer. stats().search and stats().shards[i]
  /// counters for view/matching results, PDT work and view bytes are
  /// final at Open; store/page counters count only the hits fetched so
  /// far (the lazy-materialization guarantee). stats().timings is the
  /// Fig-14 wall-clock view (per-module MAX over shards), post_ms
  /// growing with every fetch.
  const EngineStats& stats() const { return stats_; }

  /// The prepared query of shard 0 — on an unsharded engine, THE
  /// prepared query this cursor executes. The cursor keeps every shard's
  /// prepared query alive.
  const PreparedQuery& prepared() const { return *slices_[0].prepared; }

  /// Number of executed shards behind this cursor (slot order ==
  /// executed-shard order: all shards, or just the hinted one).
  size_t shard_slices() const { return slices_.size(); }

  /// Shared ownership of slot `slot`'s prepared query — how the service
  /// layer caches PDTs the engine built on the fly during Open.
  std::shared_ptr<const PreparedQuery> SharedPrepared(size_t slot) const {
    return slices_[slot].prepared;
  }

  /// Pins `lease` for the cursor's lifetime — the same shared_ptr scheme
  /// that already pins the PreparedQueries and their arenas, extended
  /// to caller-owned state. The service layer attaches the live corpus
  /// version the query pinned, so updates applied after Open can never
  /// invalidate what this cursor materializes from (the
  /// snapshot-isolation guarantee).
  void AddLease(std::shared_ptr<const void> lease) {
    leases_.push_back(std::move(lease));
  }

 private:
  friend class ViewSearchEngine;
  ResultCursor() = default;

  /// One shard's execution product. `candidates` is in shard view order;
  /// the merged stream's (shard, position) entries index into it.
  struct Slice {
    std::shared_ptr<const PreparedQuery> prepared;  // pins PDTs, arena
    // Caller-built PDTs only: the arena this request evaluated into.
    std::shared_ptr<const xml::Document> arena;
    const storage::DocumentStore* store = nullptr;
    std::vector<scoring::ScoredResult> candidates;
    // This shard's trace span (null when tracing is off). Closed at Open;
    // FetchNext still accumulates materialization I/O into its counters
    // (post-close annotation is legal by the trace contract) so summing
    // a counter over the shard spans matches the cursor's EngineStats.
    obs::TraceSpan* span = nullptr;
    // With tracing on: the hits and I/O of the fetch in progress from
    // this shard, which the spans take when the fetch is done.
    uint64_t fetch_hits = 0;
    storage::DocumentStore::Stats fetch_io;
  };

  std::vector<Slice> slices_;  // corpus order (== stats_.shards order)
  std::vector<std::shared_ptr<const void>> leases_;  // caller-pinned state
  MergedRankedStream stream_;
  std::shared_ptr<CancellationToken> cancel_;  // fired at budget / dtor
  size_t limit_ = 0;  // total hit budget (SearchOptions::top_k)
  size_t fetched_ = 0;
  EngineStats stats_;
  // Keeps the request's trace (and the spans Slice::span points into)
  // alive for the cursor's lifetime. One reusable "materialize" span is
  // created on the first fetch and re-closed after every fetch, so the
  // tree shape does not depend on how fetches were batched.
  std::shared_ptr<obs::Trace> trace_;
  obs::TraceSpan* materialize_span_ = nullptr;
};

/// Drains `cursor` into the batch response shape: every remaining hit,
/// plus the cursor's cumulative timings and stats (the legacy flat pair,
/// taken from EngineStats). On a fresh cursor this reproduces the
/// batch-pipeline output byte for byte at any shard count — it is the
/// path under Execute / SearchBatch.
Result<SearchResponse> DrainToResponse(ResultCursor* cursor);

}  // namespace quickview::engine

#endif  // QUICKVIEW_ENGINE_RESULT_CURSOR_H_
