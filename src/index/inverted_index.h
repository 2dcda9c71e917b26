// Inverted-list index (paper §3.2, Fig 4b): for each term, the Dewey-
// ordered list of elements that *directly* contain it, with the term
// frequency. A B+-tree over (term, id) composite keys provides both full
// list retrieval (prefix scan) and point containment probes, matching
// "an index such as a B+-tree is usually built on top of each inverted
// list so that we can efficiently check whether a given element contains
// a keyword".
#ifndef QUICKVIEW_INDEX_INVERTED_INDEX_H_
#define QUICKVIEW_INDEX_INVERTED_INDEX_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "index/btree.h"
#include "xml/dewey_id.h"
#include "xml/dom.h"

namespace quickview::index {

struct Posting {
  xml::DeweyId id;
  uint32_t tf = 0;
};

class InvertedIndex {
 public:
  InvertedIndex() = default;
  InvertedIndex(const InvertedIndex&) = delete;
  InvertedIndex& operator=(const InvertedIndex&) = delete;
  InvertedIndex(InvertedIndex&&) = default;
  InvertedIndex& operator=(InvertedIndex&&) = default;

  /// Indexes every element of `doc` by its lowercased direct terms
  /// (xml::ForEachDirectTerm) with their per-element counts. Called once,
  /// on an empty index: postings are grouped by term and the tree is
  /// bulk-loaded in key order.
  void AddDocument(const xml::Document& doc);

  /// Full postings list for `term`, Dewey-ordered. Empty if unknown.
  std::vector<Posting> Lookup(const std::string& term) const;

  /// Point probe: does element `id` directly contain `term`? Fills `*tf`
  /// when non-null.
  bool Contains(const std::string& term, const xml::DeweyId& id,
                uint32_t* tf = nullptr) const;

  /// Number of elements directly containing `term`.
  size_t ListLength(const std::string& term) const;

  /// Iterates every (term, id, tf) posting in (term, id) order. Used by
  /// persistence.
  void ForEachPosting(
      const std::function<void(const std::string& term,
                               const xml::DeweyId& id, uint32_t tf)>& fn)
      const;

  size_t size() const { return tree_.size(); }
  BTree::Stats stats() const { return tree_.stats(); }
  void ResetStats() { tree_.ResetStats(); }

 private:
  static std::string MakeKey(std::string_view term, const xml::DeweyId& id);

  BTree tree_;
};

}  // namespace quickview::index

#endif  // QUICKVIEW_INDEX_INVERTED_INDEX_H_
