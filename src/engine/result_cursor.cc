#include "engine/result_cursor.h"

#include <chrono>
#include <utility>

#include "scoring/materializer.h"

namespace quickview::engine {

namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

}  // namespace

ResultCursor::~ResultCursor() {
  // Release the token for any caller-side work still watching it. Shard
  // tasks completed inside Open (the barrier), so this never races
  // engine work.
  if (cancel_ != nullptr) cancel_->Cancel();
}

namespace {

void AddIo(const storage::DocumentStore::Stats& fetches,
           storage::DocumentStore::Stats* total) {
  total->fetch_calls += fetches.fetch_calls;
  total->bytes_fetched += fetches.bytes_fetched;
  total->pages_read += fetches.pages_read;
  total->buffer_hits += fetches.buffer_hits;
}

void AddIoCounters(const storage::DocumentStore::Stats& io,
                   obs::TraceSpan* span) {
  span->AddCounter("store_fetches", io.fetch_calls);
  span->AddCounter("store_bytes", io.bytes_fetched);
  span->AddCounter("pages_read", io.pages_read);
  span->AddCounter("buffer_hits", io.buffer_hits);
}

}  // namespace

Result<std::vector<SearchHit>> ResultCursor::FetchNext(size_t n) {
  const Clock::time_point start = Clock::now();
  if (trace_ != nullptr && materialize_span_ == nullptr) {
    materialize_span_ = trace_->StartSpanAt("materialize", nullptr, -1, start);
  }
  std::vector<SearchHit> page;
  size_t want = std::min(n, pending());
  page.reserve(want);
  while (page.size() < want) {
    MergedRankedStream::Entry best = stream_.Pop();
    Slice& slice = slices_[best.shard];
    const scoring::ScoredResult& candidate = slice.candidates[best.position];
    SearchHit hit;
    hit.score = candidate.score;
    hit.tf = candidate.tf;
    hit.byte_length = candidate.byte_length;
    // The fetch: the pipeline's only base-data access, accounted per hit
    // against BOTH the global counters and the owning shard's. The hit's
    // XML is written once, into a string reserved to its byte length.
    storage::DocumentStore::Stats fetches;
    hit.xml.reserve(hit.byte_length);
    QUICKVIEW_RETURN_IF_ERROR(scoring::MaterializeInto(
        candidate.result, slice.store, &hit.xml, &fetches));
    stats_.search.store_fetches += fetches.fetch_calls;
    stats_.search.store_bytes += fetches.bytes_fetched;
    stats_.search.pages_read += fetches.pages_read;
    stats_.search.buffer_hits += fetches.buffer_hits;
    if (best.shard < stats_.shards.size()) {
      ShardStats& shard = stats_.shards[best.shard];
      shard.store_fetches += fetches.fetch_calls;
      shard.store_bytes += fetches.bytes_fetched;
      shard.pages_read += fetches.pages_read;
      shard.buffer_hits += fetches.buffer_hits;
    }
    if (materialize_span_ != nullptr) {
      ++slice.fetch_hits;
      AddIo(fetches, &slice.fetch_io);
    }
    page.push_back(std::move(hit));
    ++fetched_;
  }
  // Attribute this fetch's I/O back to the owning shards' spans, so the
  // span counters stay equal to the per-shard EngineStats, and in total
  // to the materialize span: once per span, not once per hit.
  if (materialize_span_ != nullptr && !page.empty()) {
    storage::DocumentStore::Stats total;
    for (Slice& slice : slices_) {
      if (slice.fetch_hits == 0) continue;
      if (slice.span != nullptr) AddIoCounters(slice.fetch_io, slice.span);
      AddIo(slice.fetch_io, &total);
      slice.fetch_hits = 0;
      slice.fetch_io = {};
    }
    materialize_span_->AddCounter("hits", page.size());
    AddIoCounters(total, materialize_span_);
  }
  const Clock::time_point end = Clock::now();
  stats_.timings.post_ms += MsBetween(start, end);
  // Re-close after every fetch (last close wins): the span's duration
  // spans first-fetch start to last-fetch end once fetching stops.
  if (materialize_span_ != nullptr) materialize_span_->CloseAt(end);
  // Budget satisfied: release the token so cooperating work (and any
  // caller watching it) stops — the cursor will never ask for more.
  if (fetched_ >= limit_ && cancel_ != nullptr) cancel_->Cancel();
  return page;
}

Result<SearchResponse> DrainToResponse(ResultCursor* cursor) {
  SearchResponse response;
  QUICKVIEW_ASSIGN_OR_RETURN(response.hits,
                             cursor->FetchNext(cursor->pending()));
  response.timings = cursor->stats().timings;
  response.stats = cursor->stats().search;
  return response;
}

}  // namespace quickview::engine
