// LiveDatabase: the mutable face of an in-memory corpus — documents, their
// per-document path/inverted indices, and a copy-on-write DocumentStore
// snapshot chain. Queries over a static corpus never needed a write path;
// a service ingesting and deleting documents while queries run does.
//
// There is one write path, CommitInsert / CommitRemove:
//
//   CommitInsert(name, xml)  assign the document's root Dewey component
//                            (reused on replacement, fresh otherwise — the
//                            "path ordinal" every id in the document
//                            starts with) -> parse -> bulk-build its
//                            indexes with index::BuildDocumentIndexes,
//                            the same builder every corpus uses at load
//                            time -> publish the document, its indexes
//                            and a new store snapshot.
//   CommitRemove(name)       drop the document, its indices and its
//                            store entry.
//
// A replacement never edits the previous version's indexes: it gets a
// fresh per-document build, made with no corpus lock held, and the
// exclusive lock is taken only to swap the new version in.
//
// Snapshot isolation: every mutation publishes a NEW DocumentStore that
// shares the unchanged documents by shared_ptr; readers that captured the
// previous snapshot (open cursors) keep materializing from the exact
// corpus state they were opened against, including removed documents. A
// failed mutation (bad XML, unknown name) changes nothing — readers can
// never observe a half-applied update.
//
// Thread safety: callers that write never take the corpus lock —
// CommitInsert and CommitRemove take it themselves, exclusively and only
// for the swap. Readers still drive it: multi-call read sequences must
// span one shared critical section (a query must see the corpus entirely
// before or entirely after an update). The reader discipline is
// compiler-enforced: every accessor is QV_REQUIRES_SHARED(mu()) and
// clang's thread-safety analysis rejects call sites that don't hold it —
// take a qv::ReaderLock on mu() first. Snapshots returned by store() are
// immutable and safe to use lock-free after capture. Writers are
// serialized by a second mutex (apply_mu_), so roots are assigned in
// commit order. Lock order: apply_mu_ -> mu() -> QueryService's
// views_mu_ (taken by post_apply).
#ifndef QUICKVIEW_STORAGE_LIVE_DATABASE_H_
#define QUICKVIEW_STORAGE_LIVE_DATABASE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/sync.h"
#include "index/index_builder.h"
#include "obs/metrics.h"
#include "pagestore/wal.h"
#include "storage/document_store.h"
#include "xml/dom.h"

namespace quickview::storage {

class LiveDatabase {
 public:
  /// Starts empty (documents arrive through CommitInsert).
  LiveDatabase();

  /// Adopts an existing corpus: shares its documents, builds their
  /// indices, publishes the first store snapshot.
  explicit LiveDatabase(std::shared_ptr<xml::Database> initial);

  LiveDatabase(const LiveDatabase&) = delete;
  LiveDatabase& operator=(const LiveDatabase&) = delete;

  /// The corpus lock. Readers hold it shared across every database()/
  /// indexes()/store() sequence that must see one corpus state. Callers
  /// never take it exclusively: CommitInsert/CommitRemove take it
  /// themselves, and only while they publish a finished mutation (and
  /// run its post_apply).
  qv::SharedMutex& mu() const QV_RETURN_CAPABILITY(mu_) { return mu_; }

  /// Attaches a write-ahead log at `path` and replays its committed
  /// records into the corpus (a torn tail is truncated — see
  /// pagestore/wal.h). Call once, before the database is shared with
  /// other threads; afterwards CommitInsert/CommitRemove are durable.
  /// InvalidArgument if a WAL is already attached.
  Status OpenWal(const std::string& path,
                 const pagestore::WalOptions& options = {})
      QV_EXCLUDES(apply_mu_, mu_);

  /// The attached WAL (nullptr when none) — replay info, instruments.
  const pagestore::Wal* wal() const { return wal_.get(); }

  /// Inserts `xml_text` under `name`, replacing any document of that
  /// name (which keeps its root Dewey component; a new name gets the
  /// smallest unused one). InvalidArgument for an empty name, ParseError
  /// on bad XML — both leave the corpus and the log untouched. With a
  /// WAL attached the record is group-committed (fdatasync) first and
  /// only then applied, so an acknowledged mutation can always be
  /// replayed. `post_apply` (when provided) runs after a successful
  /// apply, under the same exclusive hold that publishes it —
  /// bookkeeping that must publish atomically with the mutation
  /// (QueryService's view data epochs) goes there.
  Status CommitInsert(const std::string& name, const std::string& xml_text,
                      const std::function<void()>& post_apply = nullptr)
      QV_EXCLUDES(apply_mu_, mu_);

  /// Removes `name`. NotFound (nothing logged) if `name` is absent at
  /// the pre-check; under a concurrent-remover race the tombstone may
  /// still commit and the loser gets NotFound — replay treats a
  /// tombstone for an absent name as a no-op, so recovery is unaffected.
  /// Store snapshots captured earlier keep the document alive.
  Status CommitRemove(const std::string& name,
                      const std::function<void()>& post_apply = nullptr)
      QV_EXCLUDES(apply_mu_, mu_);

  /// Current corpus / index surface. Pointers are valid only while the
  /// shared lock is held (a mutation may replace a document and its
  /// indexes).
  const xml::Database* database() const QV_REQUIRES_SHARED(mu_) {
    return db_.get();
  }
  const index::DatabaseIndexes* indexes() const QV_REQUIRES_SHARED(mu_) {
    return indexes_.get();
  }

  /// Current immutable store snapshot. Capture under the shared lock;
  /// safe to fetch from lock-free afterwards (open cursors pin it).
  std::shared_ptr<const DocumentStore> store() const QV_REQUIRES_SHARED(mu_) {
    return store_;
  }

  std::vector<std::string> document_names() const QV_REQUIRES_SHARED(mu_);

  /// Registers the database's instruments (qv_livedb_*) under `labels`.
  /// Safe without the corpus lock: the instruments are atomics
  /// maintained by the mutation path. The database must outlive the
  /// registry reads.
  Status RegisterMetrics(obs::MetricsRegistry* registry,
                         obs::LabelSet labels = {}) const;

 private:
  /// The appliers — the only code that changes the corpus, shared by the
  /// WAL-less path, the WAL apply callback and OpenWal's replay. Each
  /// holds apply_mu_ throughout; ApplyInsert parses and builds with no
  /// corpus lock held and takes mu_ exclusively only to publish.
  Status ApplyInsert(const std::string& name, const std::string& xml_text,
                     const std::function<void()>& post_apply)
      QV_EXCLUDES(apply_mu_, mu_);
  Status ApplyRemove(const std::string& name,
                     const std::function<void()>& post_apply)
      QV_EXCLUDES(apply_mu_, mu_);

  // One applier at a time: a root component read under the shared lock
  // stays valid until the same applier publishes.
  qv::Mutex apply_mu_;
  mutable qv::SharedMutex mu_ QV_ACQUIRED_AFTER(apply_mu_);
  // Set once by OpenWal before the database is shared; the Wal itself is
  // internally synchronized (its group-commit mutex), so the pointer
  // needs no lock after attachment.
  std::unique_ptr<pagestore::Wal> wal_;
  std::shared_ptr<xml::Database> db_ QV_GUARDED_BY(mu_);
  std::unique_ptr<index::DatabaseIndexes> indexes_ QV_GUARDED_BY(mu_);
  std::shared_ptr<const DocumentStore> store_ QV_GUARDED_BY(mu_);
  // Registry-native instruments, maintained under the exclusive lock
  // but readable lock-free (exposition never blocks on a mutation).
  obs::Counter inserts_;   // successful inserts and replacements
  obs::Counter removes_;   // successful removals
  obs::Gauge documents_;   // current corpus size
};

}  // namespace quickview::storage

#endif  // QUICKVIEW_STORAGE_LIVE_DATABASE_H_
