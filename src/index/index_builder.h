// Builds the per-document path and inverted-list indices for a Database —
// the offline "load time" work of a traditional full-text XML engine
// (paper §1), after which queries over virtual views never scan base data.
#ifndef QUICKVIEW_INDEX_INDEX_BUILDER_H_
#define QUICKVIEW_INDEX_INDEX_BUILDER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "index/index_view.h"
#include "index/inverted_index.h"
#include "index/path_index.h"
#include "xml/dom.h"

namespace quickview::index {

/// The indices for one document. Always heap-allocated and pinned (views
/// point into this object), hence neither copyable nor movable.
struct DocumentIndexes {
  PathIndex path_index;
  InvertedIndex inverted_index;

  DocumentIndexes() = default;
  DocumentIndexes(const DocumentIndexes&) = delete;
  DocumentIndexes& operator=(const DocumentIndexes&) = delete;

  /// The PageSource-style view the PDT pipeline consumes; valid while
  /// this object lives.
  DocumentIndexView View() const { return {&path_index, &inverted_index}; }
};

/// Indices for every document in a database, keyed by document name (the
/// name used in fn:doc()). Implements IndexSource so the engine can run
/// the identical pipeline over this in-memory backing or over a packed
/// on-disk database. Per-document indices are immutable and shared: a
/// copy shares every document's indices with the original, which is how
/// a live corpus version keeps the indices of the documents a commit did
/// not touch.
class DatabaseIndexes : public IndexSource {
 public:
  const DocumentIndexes* Get(const std::string& doc_name) const;
  /// Registers (or replaces) the document's indices.
  void Put(const std::string& doc_name,
           std::shared_ptr<const DocumentIndexes> idx);

  /// Unregisters the document's indices, if any.
  void Remove(const std::string& doc_name) { indexes_.erase(doc_name); }

  std::optional<DocumentIndexView> GetView(
      const std::string& doc_name) const override;

  const std::map<std::string, std::shared_ptr<const DocumentIndexes>>& all()
      const {
    return indexes_;
  }

 private:
  std::map<std::string, std::shared_ptr<const DocumentIndexes>> indexes_;
};

/// Builds path + inverted indices for one document. The one way a
/// document is indexed: at load time, and for every live insert or
/// replacement (which gets a fresh build, never an edit of the old one).
std::unique_ptr<DocumentIndexes> BuildDocumentIndexes(
    const xml::Document& doc);

/// Builds indices for every document in `database`.
std::unique_ptr<DatabaseIndexes> BuildDatabaseIndexes(
    const xml::Database& database);

}  // namespace quickview::index

#endif  // QUICKVIEW_INDEX_INDEX_BUILDER_H_
