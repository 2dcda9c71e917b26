// Inverted-list index (paper §3.2, Fig 4b): for each term, the Dewey-
// ordered list of elements that *directly* contain it, with the term
// frequency. The index is built once per document and never modified,
// so it is a term-sorted array of per-term posting lists: a lookup is a
// binary search over the terms and a copy of one list.
#ifndef QUICKVIEW_INDEX_INVERTED_INDEX_H_
#define QUICKVIEW_INDEX_INVERTED_INDEX_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "index/index_view.h"
#include "xml/dewey_id.h"
#include "xml/dom.h"

namespace quickview::index {

class InvertedIndex final : public TermIndexView {
 public:
  InvertedIndex() = default;
  InvertedIndex(const InvertedIndex&) = delete;
  InvertedIndex& operator=(const InvertedIndex&) = delete;
  InvertedIndex(InvertedIndex&&) = default;
  InvertedIndex& operator=(InvertedIndex&&) = default;

  /// Indexes every element of `doc` by its lowercased direct terms
  /// (xml::ForEachDirectTerm) with their per-element counts. Called once,
  /// on an empty index.
  void AddDocument(const xml::Document& doc);

  Result<std::vector<Posting>> Lookup(const std::string& term) const override;

  /// Iterates every (term, id, tf) posting in (term, id) order. Used by
  /// persistence.
  void ForEachPosting(
      const std::function<void(const std::string& term,
                               const xml::DeweyId& id, uint32_t tf)>& fn)
      const;

 private:
  struct TermList {
    std::string term;
    std::vector<Posting> postings;  // Dewey order
  };

  std::vector<TermList> lists_;  // term order
};

}  // namespace quickview::index

#endif  // QUICKVIEW_INDEX_INVERTED_INDEX_H_
