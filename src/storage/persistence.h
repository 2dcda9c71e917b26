// On-disk persistence for in-memory databases. A quickview database
// directory holds one file per document plus a manifest; its indexes are
// rebuilt when it is opened (index::BuildDatabaseIndexes). The persisted
// index format is the paged .qvpack (pagestore/pack.h), which stores
// the documents, path index and inverted index together.
//
// Layout of <dir>:
//   manifest.qv           one line per document: <root_component> <name>
//   doc_<root>.xml        serialized document
#ifndef QUICKVIEW_STORAGE_PERSISTENCE_H_
#define QUICKVIEW_STORAGE_PERSISTENCE_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "xml/dom.h"

namespace quickview::storage {

/// Writes every document of `database` under `dir` (created if needed).
Status SaveDatabase(const xml::Database& database, const std::string& dir);

/// Loads a database previously written by SaveDatabase.
Result<std::shared_ptr<xml::Database>> LoadDatabase(const std::string& dir);

}  // namespace quickview::storage

#endif  // QUICKVIEW_STORAGE_PERSISTENCE_H_
