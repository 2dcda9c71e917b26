#include "storage/live_database.h"

#include <utility>

#include "pagestore/delta_log.h"
#include "xml/parser.h"

namespace quickview::storage {

CorpusVersion::CorpusVersion(uint64_t sequence, xml::Database database,
                             index::DatabaseIndexes indexes,
                             std::map<std::string, uint64_t> document_versions)
    : sequence(sequence),
      database(std::move(database)),
      indexes(std::move(indexes)),
      store(this->database),
      document_versions(std::move(document_versions)) {}

std::optional<uint64_t> CorpusVersion::DocumentVersion(
    const std::string& name) const {
  auto it = document_versions.find(name);
  if (it == document_versions.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> CorpusVersion::DocumentNames() const {
  std::vector<std::string> out;
  out.reserve(document_versions.size());
  for (const auto& [name, version] : document_versions) out.push_back(name);
  return out;
}

namespace {

std::shared_ptr<const CorpusVersion> InitialVersion(
    const xml::Database& database) {
  std::map<std::string, uint64_t> versions;
  for (const auto& [name, doc] : database.documents()) versions[name] = 0;
  return std::make_shared<const CorpusVersion>(
      0, database, std::move(*index::BuildDatabaseIndexes(database)),
      std::move(versions));
}

}  // namespace

LiveDatabase::LiveDatabase()
    : LiveDatabase(std::make_shared<xml::Database>()) {}

LiveDatabase::LiveDatabase(std::shared_ptr<xml::Database> initial)
    : current_(InitialVersion(*initial)) {
  documents_.Set(static_cast<int64_t>(initial->documents().size()));
}

std::shared_ptr<const CorpusVersion> LiveDatabase::Pin() const {
  qv::ReaderLock lock(mu_);
  return current_;
}

void LiveDatabase::Publish(const CorpusVersion& base, const std::string& name,
                           std::shared_ptr<xml::Document> doc) {
  // Build the next version with no lock held: it copies the name maps,
  // so every other document and its indexes are shared with `base`.
  const uint64_t sequence = base.sequence + 1;
  xml::Database database = base.database;
  index::DatabaseIndexes indexes = base.indexes;
  std::map<std::string, uint64_t> versions = base.document_versions;
  database.RemoveDocument(name);
  indexes.Remove(name);
  versions.erase(name);
  if (doc != nullptr) {
    indexes.Put(name, index::BuildDocumentIndexes(*doc));
    database.AddDocument(name, std::move(doc));
    versions[name] = sequence;
  }
  documents_.Set(static_cast<int64_t>(versions.size()));
  auto next = std::make_shared<const CorpusVersion>(
      sequence, std::move(database), std::move(indexes), std::move(versions));
  qv::WriterLock lock(mu_);
  // `next` takes the replaced version, so it is released after the lock.
  current_.swap(next);
}

Status LiveDatabase::ApplyInsert(const std::string& name,
                                 const std::string& xml_text) {
  qv::MutexLock apply_lock(apply_mu_);
  const std::shared_ptr<const CorpusVersion> base = Pin();
  // Replacements keep their root Dewey component so the document's "path
  // ordinal" stays stable across versions; new names get a fresh one. A
  // bad document fails here, before any state changes.
  const xml::Document* old_doc = base->database.GetDocument(name);
  const uint32_t root_component = old_doc != nullptr
                                      ? old_doc->root_component()
                                      : base->database.NextRootComponent();
  QUICKVIEW_ASSIGN_OR_RETURN(std::shared_ptr<xml::Document> doc,
                             xml::ParseXml(xml_text, root_component));
  Publish(*base, name, std::move(doc));
  inserts_.Increment();
  return Status::OK();
}

Status LiveDatabase::ApplyRemove(const std::string& name) {
  qv::MutexLock apply_lock(apply_mu_);
  const std::shared_ptr<const CorpusVersion> base = Pin();
  if (!base->DocumentVersion(name).has_value()) {
    return Status::NotFound("no document named '" + name + "'");
  }
  Publish(*base, name, /*doc=*/nullptr);
  removes_.Increment();
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
      Status removed = ApplyRemove(record.name);
      if (!removed.ok() && removed.code() != StatusCode::kNotFound) {
        return removed;
      }
    } else {
      QUICKVIEW_RETURN_IF_ERROR(ApplyInsert(record.name, record.xml));
    }
  }
  wal_ = std::move(wal);
  return Status::OK();
}

Status LiveDatabase::CommitInsert(const std::string& name,
                                  const std::string& xml_text) {
  if (name.empty()) {
    return Status::InvalidArgument("document name must not be empty");
  }
  if (wal_ == nullptr) return ApplyInsert(name, xml_text);
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
                   [&]() { return ApplyInsert(name, xml_text); }));
  (void)seq;
  return Status::OK();
}

Status LiveDatabase::CommitRemove(const std::string& name) {
  if (wal_ == nullptr) return ApplyRemove(name);
  // Pre-check so a remove of an absent name fails without logging a
  // tombstone. Two racing removers may both pass and both log; the
  // loser's apply returns NotFound (its tombstone replays as a no-op).
  if (!Pin()->DocumentVersion(name).has_value()) {
    return Status::NotFound("no document named '" + name + "'");
  }
  pagestore::DeltaRecord record;
  record.tombstone = true;
  record.name = name;
  QUICKVIEW_ASSIGN_OR_RETURN(
      uint64_t seq, wal_->Append(pagestore::EncodeDeltaPayload(record),
                                 [&]() { return ApplyRemove(name); }));
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

}  // namespace quickview::storage
