// Scoring & Materialization module, materialization half (paper §4.2.2.2):
// "Only after the final top-k results are identified are the contents of
// these results retrieved from the document storage system." A result
// tree is written out as XML in one walk: a constructed node writes its
// tags, escaped text and children, and a pruned node has the
// DocumentStore serialize its full stored subtree in place.
//
// Thread safety: materialization only reads the store (which is immutable
// after construction) and appends to a caller-owned string, so concurrent
// queries may materialize against the same store. Per-query fetch
// accounting goes through the optional `fetch_stats` accumulator.
#ifndef QUICKVIEW_SCORING_MATERIALIZER_H_
#define QUICKVIEW_SCORING_MATERIALIZER_H_

#include <string>

#include "common/result.h"
#include "storage/document_store.h"
#include "xquery/evaluator.h"

namespace quickview::scoring {

/// Appends the XML of one (possibly pruned) result tree to `out`,
/// fetching pruned subtrees from `store`; a pruned node's own children are
/// structural duplicates of the fetched content and are dropped. A full
/// result touches no storage. The bytes appended are the result's
/// byte_length, so a caller that reserves that much appends without
/// reallocating. When `fetch_stats` is non-null, every store fetch is
/// also accumulated into it (per-query accounting). On error `out` may
/// hold a partial append.
Status MaterializeInto(const xquery::NodeHandle& result,
                       const storage::DocumentStore* store, std::string* out,
                       storage::DocumentStore::Stats* fetch_stats = nullptr);

/// Convenience: the result's XML as a fresh string.
Result<std::string> MaterializeToXml(
    const xquery::NodeHandle& result, const storage::DocumentStore* store,
    storage::DocumentStore::Stats* fetch_stats = nullptr);

}  // namespace quickview::scoring

#endif  // QUICKVIEW_SCORING_MATERIALIZER_H_
