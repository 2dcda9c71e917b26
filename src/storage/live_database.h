// LiveDatabase: an in-memory corpus that changes while queries run, as a
// chain of immutable versions. A CorpusVersion is one shard's documents,
// their per-document path/inverted indices and a DocumentStore over
// them, plus a version number per document name.
//
// There is one write path, CommitInsert / CommitRemove. A commit parses
// the document (keeping a replaced document's root Dewey component, the
// "path ordinal" every id in it starts with), builds its indexes with
// index::BuildDocumentIndexes — the builder every corpus uses at load
// time — and assembles the next version, all with no lock held. The next
// version copies the name maps only: every other document and its
// indices are shared with the previous version. The commit then swaps
// the current-version pointer under mu(), held for the swap alone. A
// failed mutation (bad XML, unknown name) publishes nothing.
//
// A reader pins a version (Pin) and reads it with no lock, so a query
// sees one corpus state from planning to its last fetch and a writer
// never waits for it. A pin keeps its documents alive, including ones a
// later commit replaced or removed.
//
// Version numbers: commits count 1, 2, ... in apply order (WAL order when
// a WAL is attached; the constructor's corpus is 0), and each document
// name carries the number of the commit that last wrote it. Two pins
// that agree on a name's number hold the same document.
//
// Thread safety: commits may come from any thread; apply_mu_ serializes
// them, so roots are assigned in commit order. Lock order: apply_mu_ ->
// mu().
#ifndef QUICKVIEW_STORAGE_LIVE_DATABASE_H_
#define QUICKVIEW_STORAGE_LIVE_DATABASE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
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

/// One published state of a live corpus. Immutable: held only as
/// shared_ptr<const CorpusVersion>, and safe to read from any number of
/// threads with no lock.
struct CorpusVersion {
  CorpusVersion(uint64_t sequence, xml::Database database,
                index::DatabaseIndexes indexes,
                std::map<std::string, uint64_t> document_versions);

  /// Number of the commit that published this version (0: the corpus the
  /// database was constructed over).
  uint64_t sequence;
  xml::Database database;
  index::DatabaseIndexes indexes;
  DocumentStore store;  // over `database`
  /// Per document name, the number of the commit that last wrote it.
  std::map<std::string, uint64_t> document_versions;

  /// The version number of `name`; nullopt when the document is absent.
  std::optional<uint64_t> DocumentVersion(const std::string& name) const;
  std::vector<std::string> DocumentNames() const;
};

class LiveDatabase {
 public:
  /// Starts empty (documents arrive through CommitInsert).
  LiveDatabase();

  /// Adopts an existing corpus as version 0: shares its documents and
  /// builds their indices. Later commits never modify `initial`.
  explicit LiveDatabase(std::shared_ptr<xml::Database> initial);

  LiveDatabase(const LiveDatabase&) = delete;
  LiveDatabase& operator=(const LiveDatabase&) = delete;

  /// The current version. The pin stays valid — and keeps its documents,
  /// indices and store alive — for as long as the caller holds it,
  /// whatever is committed meanwhile.
  std::shared_ptr<const CorpusVersion> Pin() const QV_EXCLUDES(mu_);

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
  /// replayed.
  Status CommitInsert(const std::string& name, const std::string& xml_text)
      QV_EXCLUDES(apply_mu_, mu_);

  /// Removes `name`. NotFound (nothing logged) if `name` is absent at
  /// the pre-check; under a concurrent-remover race the tombstone may
  /// still commit and the loser gets NotFound — replay treats a
  /// tombstone for an absent name as a no-op, so recovery is unaffected.
  /// Versions pinned earlier keep the document alive.
  Status CommitRemove(const std::string& name) QV_EXCLUDES(apply_mu_, mu_);

  /// Reads of the current version under the caller's shared hold of
  /// mu(), which keeps that version current (a commit's swap waits for
  /// the hold). Kept for perfbench's LiveReplay only; everything else
  /// reads a pinned version, which never holds up a writer.
  qv::SharedMutex& mu() const QV_RETURN_CAPABILITY(mu_) { return mu_; }
  const xml::Database* database() const QV_REQUIRES_SHARED(mu_) {
    return &current_->database;
  }
  const index::DatabaseIndexes* indexes() const QV_REQUIRES_SHARED(mu_) {
    return &current_->indexes;
  }
  std::shared_ptr<const DocumentStore> store() const QV_REQUIRES_SHARED(mu_) {
    return std::shared_ptr<const DocumentStore>(current_, &current_->store);
  }

  /// Registers the database's instruments (qv_livedb_*) under `labels`.
  /// The instruments are atomics maintained by the mutation path. The
  /// database must outlive the registry reads.
  Status RegisterMetrics(obs::MetricsRegistry* registry,
                         obs::LabelSet labels = {}) const;

 private:
  /// The appliers — the only code that changes the corpus, shared by the
  /// WAL-less path, the WAL apply callback and OpenWal's replay. Each
  /// holds apply_mu_ throughout.
  Status ApplyInsert(const std::string& name, const std::string& xml_text)
      QV_EXCLUDES(apply_mu_, mu_);
  Status ApplyRemove(const std::string& name) QV_EXCLUDES(apply_mu_, mu_);

  /// Builds the version after `base` (the current one), in which `name`
  /// is `doc` — or absent when `doc` is null — and makes it current.
  void Publish(const CorpusVersion& base, const std::string& name,
               std::shared_ptr<xml::Document> doc)
      QV_REQUIRES(apply_mu_) QV_EXCLUDES(mu_);

  // One applier at a time: the version an applier builds on stays
  // current until the same applier publishes.
  qv::Mutex apply_mu_;
  mutable qv::SharedMutex mu_ QV_ACQUIRED_AFTER(apply_mu_);
  // Set once by OpenWal before the database is shared; the Wal itself is
  // internally synchronized (its group-commit mutex), so the pointer
  // needs no lock after attachment.
  std::unique_ptr<pagestore::Wal> wal_;
  std::shared_ptr<const CorpusVersion> current_ QV_GUARDED_BY(mu_);
  // Registry-native instruments, maintained by the appliers and
  // readable lock-free (exposition never blocks on a mutation).
  obs::Counter inserts_;   // successful inserts and replacements
  obs::Counter removes_;   // successful removals
  obs::Gauge documents_;   // current corpus size
};

}  // namespace quickview::storage

#endif  // QUICKVIEW_STORAGE_LIVE_DATABASE_H_
