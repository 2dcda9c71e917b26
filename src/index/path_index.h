// Path index (paper §3.2, Fig 5): a Path-Values table with one row per
// unique (Path, Value) pair, mapping to the Dewey-ordered list of ids of
// elements on that path with that atomic value. The index is built once
// per document and never modified, so the table is a sorted array: one
// group of rows per entry of the sorted dictionary of distinct full data
// paths, each group in value order. Supports
//  - path probes:             a matched path's rows, read by position,
//  - value-predicate probes:  a binary search over one path's values,
//  - descendant axes:         expansion of '//' patterns against the
//                             path dictionary.
// Entries additionally carry the subtree byte length of each element,
// which is how PDTs obtain byte lengths "solely using indices".
#ifndef QUICKVIEW_INDEX_PATH_INDEX_H_
#define QUICKVIEW_INDEX_PATH_INDEX_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "index/index_view.h"
#include "xml/dewey_id.h"

namespace quickview::index {

/// Renders a pattern as "/books//book/isbn".
std::string PatternToString(const PathPattern& pattern);

/// Serialized row payload: count-prefixed (Dewey id, byte length) pairs.
/// The same bytes back the in-memory rows and the packed B-tree-node
/// pages on disk.
std::string EncodePathEntryList(
    const std::vector<std::pair<xml::DeweyId, uint64_t>>& entries);

/// Appends the row's entries to `out`, each carrying `value` (or nullopt).
/// The row may come from a disk page: a truncated or malformed row is an
/// Internal "corrupt path-index row" error, and `out` may then hold the
/// entries decoded before the damage.
Status DecodePathEntryListInto(std::string_view encoded,
                               const std::optional<std::string>& value,
                               std::vector<PathEntry>* out);

/// Sorts entries into Dewey order: the merge of several rows' lists.
void SortByDewey(std::vector<PathEntry>* entries);

class PathIndex final : public PathIndexView {
 public:
  PathIndex() = default;
  PathIndex(const PathIndex&) = delete;
  PathIndex& operator=(const PathIndex&) = delete;
  PathIndex(PathIndex&&) = default;
  PathIndex& operator=(PathIndex&&) = default;

  /// Interns a full data path like "/books/book/isbn" and returns the
  /// ordinal AddEntry takes; a path interned again keeps its ordinal.
  uint32_t InternPath(const std::string& path);

  /// Registers an element on the interned path `path` with atomic value
  /// `value` (empty string is the null value of Fig 5). `value` is
  /// borrowed until Finalize: the indexed document must outlive the
  /// build. Must be called in non-decreasing Dewey order per (path,
  /// value) pair, which each row keeps; the builder calls in document
  /// order.
  void AddEntry(uint32_t path, std::string_view value, const xml::DeweyId& id,
                uint64_t byte_length);

  /// Groups the buffered entries into the sorted table; called once,
  /// after the last AddEntry. Lookups before Finalize() see nothing.
  void Finalize();

  Result<std::vector<PathRows>> LookUpPerPath(const PathPattern& pattern,
                                              bool with_values) const override;

  /// All ids on paths matching `pattern`, merged into one Dewey-ordered
  /// list (LookUpID of Fig 7). Values are not materialized.
  std::vector<PathEntry> LookUpId(const PathPattern& pattern) const;

  /// As LookUpId but each entry carries its atomic value (LookUpIDValue
  /// of Fig 7 — "combining retrieval of IDs and values").
  std::vector<PathEntry> LookUpIdValue(const PathPattern& pattern) const;

  /// Ids on paths matching `pattern` whose atomic value equals `value`
  /// (equality-predicate probe), Dewey-ordered.
  std::vector<PathEntry> LookUpValue(const PathPattern& pattern,
                                     const std::string& value) const;

  /// Iterates every (path, value, entries) row in (path, value) order.
  /// Entries carry no `value` field (the row's value is the 2nd
  /// argument).
  void ForEachRow(
      const std::function<void(const std::string& path,
                               const std::string& value,
                               const std::vector<PathEntry>& entries)>& fn)
      const;

  /// As ForEachRow, but hands over each row's EncodePathEntryList bytes —
  /// what a packed database stores in its B-tree-node pages.
  void ForEachRaw(const std::function<void(const std::string& path,
                                           const std::string& value,
                                           const std::string& entries)>& fn)
      const;

  /// Sorted distinct full data paths (the dictionary patterns expand
  /// against; a packed database persists it in its directory).
  const std::vector<std::string>& distinct_path_list() const {
    return paths_;
  }

  size_t distinct_paths() const { return paths_.size(); }

 private:
  /// One (Path, Value) row: the atomic value and its encoded entry list.
  struct Row {
    std::string value;
    std::string entries;
  };

  /// Decodes every row of paths_[path] into `out`.
  void AppendRows(size_t path, bool with_values,
                  std::vector<PathEntry>* out) const;
  std::vector<PathEntry> Collect(const PathPattern& pattern,
                                 bool with_values) const;

  /// One AddEntry call, buffered until Finalize.
  struct PendingEntry {
    uint32_t path;
    std::string_view value;
    xml::DeweyId id;
    uint64_t byte_length;
  };

  // Before Finalize: interned paths and the entries in arrival order.
  std::unordered_map<std::string, uint32_t> path_ordinals_;
  std::vector<PendingEntry> pending_;
  std::vector<std::string> paths_;  // sorted distinct full data paths
  std::vector<std::vector<Row>> rows_;  // rows_[i]: paths_[i]'s, by value
};

/// True iff the full data path `path` (e.g. "/books/book/isbn") matches
/// the pattern (e.g. /books//isbn).
bool PatternMatchesPath(const PathPattern& pattern, const std::string& path);

}  // namespace quickview::index

#endif  // QUICKVIEW_INDEX_PATH_INDEX_H_
