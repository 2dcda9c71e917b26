// PackedDb: the query-time face of a .qvpack file. Opens the directory,
// wires a shared BufferPool over the PagedFile, and exposes
//  - index::IndexSource: per-document PathIndexView / TermIndexView
//    implementations that answer the PDT probe set from B-tree-node and
//    posting-run pages, and
//  - document fetches (AppendSubtreeXml / GetValue / GetSubtreeLength)
//    that read node-record pages — the packed backing of DocumentStore —
//    and CopySubtree, the DOM copy compaction rebuilds documents with.
// Everything is demand-paged: opening the database reads the header and
// directory only; a query touches exactly the pages its B-tree descents,
// posting runs and materialized hits require.
//
// Live updates: the pack file itself is immutable, so Open also replays
// the append-only `<pack>.delta` side log (pagestore/delta_log.h) into an
// in-memory overlay — inserted documents get fresh root components past
// the packed ones and fully in-memory indices; tombstoned (or shadowed)
// base documents are masked out of every lookup. Overlay fetches cost
// zero page reads. `quickview_cli compact` folds the log back into a
// fresh pack offline.
//
// Thread safety: immutable after Open (the delta log is read once, at
// open; reopen to observe later appends); all page reads go through the
// BufferPool, which is internally synchronized.
#ifndef QUICKVIEW_PAGESTORE_PACKED_DB_H_
#define QUICKVIEW_PAGESTORE_PACKED_DB_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "index/index_builder.h"
#include "index/index_view.h"
#include "pagestore/buffer_pool.h"
#include "pagestore/disk_btree.h"
#include "pagestore/paged_file.h"
#include "xml/dewey_id.h"
#include "xml/dom.h"

namespace quickview::pagestore {

/// Path-index view answered from disk B-tree pages. A disk row is keyed
/// by (path \x01 ordinal), the ordinal counting the path's rows in value
/// order, and its payload is (value_len | value | EncodePathEntryList
/// bytes). So a prefix scan over one path reads the same rows, in the
/// same order, as the in-memory PathIndex, and both backings return
/// byte-identical results.
class PagedPathIndex final : public index::PathIndexView {
 public:
  PagedPathIndex(DiskBTree tree, std::vector<std::string> distinct_paths)
      : tree_(tree), paths_(std::move(distinct_paths)) {}

  Result<std::vector<index::PathRows>> LookUpPerPath(
      const index::PathPattern& pattern, bool with_values) const override;

 private:
  DiskBTree tree_;
  std::vector<std::string> paths_;  // sorted distinct full data paths
};

/// Inverted-list view over per-term posting runs on disk.
class PagedTermIndex final : public index::TermIndexView {
 public:
  explicit PagedTermIndex(DiskBTree tree) : tree_(tree) {}

  Result<std::vector<index::Posting>> Lookup(
      const std::string& term) const override;

 private:
  DiskBTree tree_;
};

/// Appends the XML of the node-record run `reader` stands at: the
/// subtree of its first record, in preorder, each tag and text handed
/// over as views of the pinned pages (no Document, no string per record).
/// Internal when a record's depth skips a level or leaves the subtree, or
/// when the bytes appended differ from the first record's subtree_bytes.
/// On error `out` may hold a partial append.
Status AppendNodeRecordsXml(ChainReader* reader, std::string* out);

class PackedDb final : public index::IndexSource {
 public:
  /// Reads header + directory; index and node-record pages stay on disk
  /// until queries pull them through the pool.
  static Result<std::shared_ptr<PackedDb>> Open(
      const std::string& path, const BufferPoolOptions& pool_options = {});

  std::optional<index::DocumentIndexView> GetView(
      const std::string& doc_name) const override;

  /// Per-call page accounting for the document fetches lands in `acct`
  /// (locator descent + node-record pages).
  ///
  /// Appends the subtree's XML to `out`: AppendNodeRecordsXml over its
  /// records, or the serializer's walk for an overlay document.
  Status AppendSubtreeXml(uint32_t root_component, const xml::DeweyId& id,
                          std::string* out, PageAccounting* acct) const;
  /// Copies the subtree into `target` under `target_parent` (compaction).
  Status CopySubtree(uint32_t root_component, const xml::DeweyId& id,
                     xml::Document* target, xml::NodeIndex target_parent,
                     uint64_t* fetched_bytes, PageAccounting* acct) const;
  Status GetValue(uint32_t root_component, const xml::DeweyId& id,
                  std::string* out, PageAccounting* acct) const;
  Status GetSubtreeLength(uint32_t root_component, const xml::DeweyId& id,
                          uint64_t* out, PageAccounting* acct) const;

  const BufferPool& pool() const { return *pool_; }
  const PagedFile& file() const { return *file_; }
  std::vector<std::string> document_names() const;

  /// Every live document (base + overlay), name -> root component, in
  /// name order. What compaction repacks.
  std::map<std::string, uint32_t> document_roots() const;

  /// How the delta side log changed this open, all zero when none exists.
  struct DeltaStats {  // lint:allow(adhoc-stats) point-in-time size snapshot of the delta store
    uint64_t inserts = 0;     // insert records replayed
    uint64_t tombstones = 0;  // tombstone records replayed
    size_t overlay_documents = 0;  // live in-memory documents
    size_t masked_base_documents = 0;  // packed docs hidden by the log
  };
  const DeltaStats& delta_stats() const { return delta_stats_; }

 private:
  struct PackedDocument {
    std::string name;
    uint32_t root_component = 0;
    uint64_t node_count = 0;
    DiskBTree locator;
    std::unique_ptr<PagedPathIndex> paths;
    std::unique_ptr<PagedTermIndex> terms;
  };

  /// A document that lives in the delta log, not in pack pages: fully
  /// in-memory, served with zero page I/O.
  struct OverlayDocument {
    std::string name;
    std::shared_ptr<xml::Document> doc;
    std::unique_ptr<index::DocumentIndexes> indexes;
  };

  PackedDb() = default;

  Status ApplyDeltaLog(const std::string& path);

  /// Hides `name` from every lookup (tombstone, or shadowing by a newer
  /// insert record).
  void MaskName(const std::string& name);

  /// Locator hit for `id`, or NotFound (same message shape as the
  /// in-memory store so responses stay byte-identical).
  Result<ChainReader> LocateRecord(uint32_t root_component,
                                   const xml::DeweyId& id,
                                   PageAccounting* acct) const;

  /// Overlay document owning `root_component`, or nullptr.
  const OverlayDocument* OverlayByRoot(uint32_t root_component) const;

  std::unique_ptr<PagedFile> file_;
  std::unique_ptr<BufferPool> pool_;
  std::map<std::string, std::unique_ptr<PackedDocument>> by_name_;
  std::map<uint32_t, const PackedDocument*> by_root_;
  std::map<std::string, std::unique_ptr<OverlayDocument>> overlay_by_name_;
  std::map<uint32_t, const OverlayDocument*> overlay_by_root_;
  DeltaStats delta_stats_;
};

}  // namespace quickview::pagestore

#endif  // QUICKVIEW_PAGESTORE_PACKED_DB_H_
