// SearchRequest: the one request object behind the unified search entry
// point ViewSearchEngine::Open(request) (and QueryService::OpenSearch).
// A request is a view plus a keyword list (paper Fig 2), the ranking
// options, an optional deadline, and an optional caller-owned
// cancellation token; it always searches every shard of the corpus.
// Validation lives in ONE place — Validate(), called once at Open — so
// per-entry-point drift (top_k checked in one place, empty keywords in
// another) cannot recur.
#ifndef QUICKVIEW_ENGINE_SEARCH_REQUEST_H_
#define QUICKVIEW_ENGINE_SEARCH_REQUEST_H_

#include <chrono>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "obs/trace.h"

namespace quickview::engine {

struct SearchOptions {
  size_t top_k = 10;        // must be >= 1 (see SearchRequest::Validate)
  bool conjunctive = true;  // all keywords vs any keyword
};

/// API-boundary validation shared by every search entry point (engine and
/// service): InvalidArgument for top_k == 0 — a request for zero results
/// is a caller bug, not a query to run.
Status ValidateSearchOptions(const SearchOptions& options);

struct SearchRequest {
  /// The view: its TEXT at the engine boundary, a registered view NAME at
  /// the service boundary. ComposeKeywordQuery combines it with
  /// `keywords` (lowercased internally) and the connective from
  /// options.conjunctive into the Fig-2 keyword query.
  std::string view;
  std::vector<std::string> keywords;

  SearchOptions options;

  /// Wall-clock budget measured from Open. When it expires, in-flight
  /// shard work unwinds and the query fails DeadlineExceeded.
  std::optional<std::chrono::milliseconds> deadline;

  /// Caller-owned cancellation token, shared with every shard task this
  /// request spawns. Cancel() from any thread stops the query (Open
  /// returns Cancelled); the cursor also fires it once the top_k budget
  /// is satisfied and on destruction, so cooperating caller-side work
  /// can stop too. Left null, the engine makes a private token (needed
  /// for deadline / fail-fast propagation).
  std::shared_ptr<CancellationToken> cancel;

  /// Optional per-request trace (null = tracing off, the default, with
  /// near-zero cost on the search path). When set, Open records one
  /// span per shard task (plan/build_pdts/evaluate children), a merge
  /// span, and the cursor adds a materialize span whose per-shard I/O
  /// counters are attributed back to the shard spans — so summing a
  /// counter over the shard spans always matches the cursor's
  /// EngineStats. The cursor co-owns the trace; serialize it only after
  /// the request (and any fetching) is quiescent.
  std::shared_ptr<obs::Trace> trace;

  /// The single validation boundary, a typed InvalidArgument on each
  /// violation: the view is set, the keyword list is non-empty, no
  /// keyword contains a single quote (each is pasted into a
  /// single-quoted literal of the composed query, and the grammar has
  /// no escape for it), and top_k >= 1.
  Status Validate() const;
};

}  // namespace quickview::engine

#endif  // QUICKVIEW_ENGINE_SEARCH_REQUEST_H_
