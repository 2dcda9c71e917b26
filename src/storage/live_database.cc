#include "storage/live_database.h"

#include <utility>

#include "pagestore/delta_log.h"
#include "xml/parser.h"

namespace quickview::storage {

LiveDatabase::LiveDatabase()
    : db_(std::make_shared<xml::Database>()),
      indexes_(std::make_unique<index::DatabaseIndexes>()),
      store_(std::make_shared<const DocumentStore>(*db_)) {}

LiveDatabase::LiveDatabase(std::shared_ptr<xml::Database> initial)
    : db_(std::move(initial)),
      indexes_(index::BuildDatabaseIndexes(*db_)),
      store_(std::make_shared<const DocumentStore>(*db_)) {
  documents_.Set(static_cast<int64_t>(db_->documents().size()));
}

Status LiveDatabase::ApplyInsert(const std::string& name,
                                 const std::string& xml_text,
                                 const std::function<void()>& post_apply) {
  qv::MutexLock apply_lock(apply_mu_);
  // Replacements keep their root Dewey component so the document's "path
  // ordinal" stays stable across versions; new names get a fresh one.
  // Holding apply_mu_ keeps this answer valid until the publish below.
  uint32_t root_component = 0;
  {
    qv::ReaderLock lock(mu_);
    const xml::Document* old_doc = db_->GetDocument(name);
    root_component = old_doc != nullptr ? old_doc->root_component()
                                        : db_->NextRootComponent();
  }
  // Parse and build with no corpus lock held: readers keep running
  // against the previous version. A bad document fails here, before any
  // state changes.
  QUICKVIEW_ASSIGN_OR_RETURN(std::shared_ptr<xml::Document> doc,
                             xml::ParseXml(xml_text, root_component));
  std::unique_ptr<index::DocumentIndexes> doc_indexes =
      index::BuildDocumentIndexes(*doc);

  // The replaced version (document, indexes, store snapshot) is moved
  // into these locals, declared before the lock so that they are freed
  // after it drops, off the readers' path.
  std::shared_ptr<xml::Document> old_doc;
  std::unique_ptr<index::DocumentIndexes> old_indexes;
  std::shared_ptr<const DocumentStore> old_store;
  qv::WriterLock lock(mu_);
  old_doc = db_->GetDocumentShared(name);
  db_->RemoveDocument(name);
  db_->AddDocument(name, std::move(doc));
  old_indexes = indexes_->Put(name, std::move(doc_indexes));
  old_store =
      std::exchange(store_, std::make_shared<const DocumentStore>(*db_));
  inserts_.Increment();
  documents_.Set(static_cast<int64_t>(db_->documents().size()));
  if (post_apply) post_apply();
  return Status::OK();
}

Status LiveDatabase::ApplyRemove(const std::string& name,
                                 const std::function<void()>& post_apply) {
  qv::MutexLock apply_lock(apply_mu_);
  // Freed after the lock drops, as in ApplyInsert.
  std::shared_ptr<xml::Document> old_doc;
  std::unique_ptr<index::DocumentIndexes> old_indexes;
  std::shared_ptr<const DocumentStore> old_store;
  qv::WriterLock lock(mu_);
  old_doc = db_->GetDocumentShared(name);
  if (!db_->RemoveDocument(name)) {
    return Status::NotFound("no document named '" + name + "'");
  }
  old_indexes = indexes_->Remove(name);
  old_store =
      std::exchange(store_, std::make_shared<const DocumentStore>(*db_));
  removes_.Increment();
  documents_.Set(static_cast<int64_t>(db_->documents().size()));
  if (post_apply) post_apply();
  return Status::OK();
}

Status LiveDatabase::OpenWal(const std::string& path,
                             const pagestore::WalOptions& options) {
  if (wal_ != nullptr) {
    return Status::InvalidArgument("a WAL is already attached at " +
                                   wal_->path());
  }
  QUICKVIEW_ASSIGN_OR_RETURN(std::unique_ptr<pagestore::Wal> wal,
                             pagestore::Wal::Open(path, options));
  // Replay the committed history into the corpus before accepting new
  // traffic. A tombstone for an absent name is a no-op (see
  // CommitRemove's race note), anything else that fails to apply is a
  // real error — the log would not match the corpus it claims to
  // describe.
  for (const std::string& payload : wal->replay().payloads) {
    QUICKVIEW_ASSIGN_OR_RETURN(pagestore::DeltaRecord record,
                               pagestore::DecodeDeltaPayload(payload));
    if (record.tombstone) {
      Status removed = ApplyRemove(record.name, nullptr);
      if (!removed.ok() && removed.code() != StatusCode::kNotFound) {
        return removed;
      }
    } else {
      QUICKVIEW_RETURN_IF_ERROR(ApplyInsert(record.name, record.xml, nullptr));
    }
  }
  wal_ = std::move(wal);
  return Status::OK();
}

Status LiveDatabase::CommitInsert(const std::string& name,
                                  const std::string& xml_text,
                                  const std::function<void()>& post_apply) {
  if (name.empty()) {
    return Status::InvalidArgument("document name must not be empty");
  }
  if (wal_ == nullptr) return ApplyInsert(name, xml_text, post_apply);
  // Validate before logging (and before joining a commit group): a
  // record that cannot replay would poison recovery, and rejecting it
  // here keeps the failure out of the WAL entirely.
  QUICKVIEW_RETURN_IF_ERROR(xml::ParseXml(xml_text));
  pagestore::DeltaRecord record;
  record.name = name;
  record.xml = xml_text;
  // The apply callback runs on the commit-group leader's thread, after
  // the record is durable, in sequence order — so WAL order and apply
  // order agree and replay reproduces exactly this corpus.
  QUICKVIEW_ASSIGN_OR_RETURN(
      uint64_t seq,
      wal_->Append(pagestore::EncodeDeltaPayload(record),
                   [&]() { return ApplyInsert(name, xml_text, post_apply); }));
  (void)seq;
  return Status::OK();
}

Status LiveDatabase::CommitRemove(const std::string& name,
                                  const std::function<void()>& post_apply) {
  if (wal_ == nullptr) return ApplyRemove(name, post_apply);
  {
    // Pre-check so a remove of an absent name fails without logging a
    // tombstone. Two racing removers may both pass and both log; the
    // loser's apply returns NotFound (its tombstone replays as a no-op).
    qv::ReaderLock lock(mu_);
    if (db_->GetDocumentShared(name) == nullptr) {
      return Status::NotFound("no document named '" + name + "'");
    }
  }
  pagestore::DeltaRecord record;
  record.tombstone = true;
  record.name = name;
  QUICKVIEW_ASSIGN_OR_RETURN(
      uint64_t seq,
      wal_->Append(pagestore::EncodeDeltaPayload(record),
                   [&]() { return ApplyRemove(name, post_apply); }));
  (void)seq;
  return Status::OK();
}

Status LiveDatabase::RegisterMetrics(obs::MetricsRegistry* registry,
                                     obs::LabelSet labels) const {
  QV_RETURN_IF_ERROR(registry->RegisterCounter("qv_livedb_inserts_total",
                                               labels, &inserts_));
  QV_RETURN_IF_ERROR(registry->RegisterCounter("qv_livedb_removes_total",
                                               labels, &removes_));
  QV_RETURN_IF_ERROR(
      registry->RegisterGauge("qv_livedb_documents", labels, &documents_));
  if (wal_ != nullptr) {
    return wal_->RegisterMetrics(registry, std::move(labels));
  }
  return Status::OK();
}

std::vector<std::string> LiveDatabase::document_names() const {
  std::vector<std::string> out;
  out.reserve(db_->documents().size());
  for (const auto& [name, doc] : db_->documents()) out.push_back(name);
  return out;
}

}  // namespace quickview::storage
