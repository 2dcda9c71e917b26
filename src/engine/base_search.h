// The traditional query path of paper Fig 3 (solid lines): XQuery
// full-text / keyword search directly over the *base* documents, answered
// from the inverted-list indices. Results are the deepest elements whose
// subtree contains the keywords (XRank-style element granularity, the
// paper's [24]), ranked with the same element-level TF-IDF used for
// views. Included so quickview is a complete engine, not only the
// virtual-view path.
#ifndef QUICKVIEW_ENGINE_BASE_SEARCH_H_
#define QUICKVIEW_ENGINE_BASE_SEARCH_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "engine/search_request.h"
#include "index/index_builder.h"
#include "xml/dom.h"

namespace quickview::engine {

struct BaseSearchHit {
  std::string document;  // database document name
  xml::DeweyId id;       // deepest element containing the keywords
  std::vector<uint64_t> tf;
  uint64_t byte_length = 0;
  double score = 0;
  std::string xml;  // materialized element
};

/// Keyword search over every document of `database`. Keywords are
/// expected lowercased. Hits are sorted by descending score, ties in
/// document order.
Result<std::vector<BaseSearchHit>> SearchBaseDocuments(
    const xml::Database& database, const index::DatabaseIndexes& indexes,
    const std::vector<std::string>& keywords,
    const SearchOptions& options);

}  // namespace quickview::engine

#endif  // QUICKVIEW_ENGINE_BASE_SEARCH_H_
