// Index views: the PageSource-facing abstraction of the two query-time
// index surfaces. PrepareLists issues exactly two probes — per-path rows
// for a path pattern and one term's inverted list — so that narrow
// surface is what gets virtualized: the same PrepareLists / GeneratePdt
// code runs over the in-memory sorted arrays (PathIndex, InvertedIndex)
// or over disk-resident B-tree pages pulled on demand through a buffer
// pool (pagestore/packed_db.h). Lookups against a paged backing can fail
// with real I/O errors (truncated file, checksum mismatch), so both
// probes return Result<> even though the in-memory indexes cannot fail.
#ifndef QUICKVIEW_INDEX_INDEX_VIEW_H_
#define QUICKVIEW_INDEX_INDEX_VIEW_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "xml/dewey_id.h"

namespace quickview::index {

/// One step of a path pattern: axis ('/' or '//') plus a tag-name test.
struct PathStep {
  bool descendant = false;  // true for '//'
  std::string tag;

  bool operator==(const PathStep&) const = default;
};

/// A root-anchored path pattern such as /books//book/isbn.
using PathPattern = std::vector<PathStep>;

/// An id retrieved from the path index, with its element's subtree byte
/// length and (when values are requested) its atomic value.
struct PathEntry {
  xml::DeweyId id;
  uint64_t byte_length = 0;
  std::optional<std::string> value;
};

/// One (data path, Dewey-ordered entries) group per distinct full data
/// path matching a pattern. PDT generation needs the per-path grouping
/// to map each id's ancestors back to QPT nodes.
struct PathRows {
  std::string path;
  std::vector<PathEntry> entries;
};

/// One element of an inverted list: an element directly containing the
/// term, and how often it does.
struct Posting {
  xml::DeweyId id;
  uint32_t tf = 0;
};

/// Query-time surface of a path index (paper §3.2, Fig 5).
class PathIndexView {
 public:
  virtual ~PathIndexView() = default;

  /// One (data path, Dewey-ordered entries) group per distinct matching
  /// full data path, in path order; each entry carries its atomic value
  /// iff `with_values`.
  virtual Result<std::vector<PathRows>> LookUpPerPath(
      const PathPattern& pattern, bool with_values) const = 0;
};

/// Query-time surface of an inverted-list index (paper §3.2, Fig 4b).
class TermIndexView {
 public:
  virtual ~TermIndexView() = default;

  /// Full postings list for `term`, Dewey-ordered; empty if unknown.
  virtual Result<std::vector<Posting>> Lookup(
      const std::string& term) const = 0;
};

/// The two views of one document's indices, as consumed by PrepareLists /
/// GeneratePdt. Non-owning; valid while the backing IndexSource lives.
struct DocumentIndexView {
  const PathIndexView* paths = nullptr;
  const TermIndexView* terms = nullptr;
};

/// Where a query finds the indices of a document: the in-memory
/// DatabaseIndexes or a packed on-disk database. Lookup by the document
/// name used in fn:doc().
class IndexSource {
 public:
  virtual ~IndexSource() = default;

  /// std::nullopt if no indices exist for `doc_name`. The returned
  /// pointers stay valid for the lifetime of the source.
  virtual std::optional<DocumentIndexView> GetView(
      const std::string& doc_name) const = 0;
};

}  // namespace quickview::index

#endif  // QUICKVIEW_INDEX_INDEX_VIEW_H_
