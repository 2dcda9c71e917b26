// Document storage (paper Fig 3, bottom right). The Scoring &
// Materialization module fetches full element subtrees from here for the
// top-k results only; access statistics let benchmarks verify that the
// Efficient path touches base data solely during final materialization.
//
// Two backings, one fetch API (the PageSource split of the storage
// engine): an in-memory Database, or a packed .qvpack database whose
// node-record pages are read on demand through a buffer pool — in that
// mode each fetch also reports the pages it pulled and the buffer hits
// it scored.
//
// Thread safety: the store is immutable after construction; every fetch
// method is const and safe to call concurrently. The global access
// counters are relaxed atomics; callers that need per-query accounting
// (meaningless to derive from deltas of a shared counter under
// concurrency) pass a local `Stats* accounting` that each fetch also
// accumulates into. There is deliberately no mutex here — and so
// nothing for common/sync.h's QV_GUARDED_BY vocabulary to annotate: the
// only shared mutable state is those atomics. A live corpus never
// replaces a store in place either: each published CorpusVersion owns
// its own store (see live_database.h), and a reader fetches from the
// version it pinned.
#ifndef QUICKVIEW_STORAGE_DOCUMENT_STORE_H_
#define QUICKVIEW_STORAGE_DOCUMENT_STORE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "xml/dom.h"

namespace quickview::pagestore {
class PackedDb;
}  // namespace quickview::pagestore

namespace quickview::storage {

/// Stores the base documents of a Database and serves subtree fetches by
/// (document root component, Dewey id).
class DocumentStore {
 public:
  /// A snapshot of (or a local accumulator for) access counters.
  struct Stats {  // lint:allow(adhoc-stats) snapshot view over the store's counters
    uint64_t fetch_calls = 0;
    uint64_t bytes_fetched = 0;
    /// Disk-backed stores only (always zero for in-memory backing).
    uint64_t pages_read = 0;
    uint64_t buffer_hits = 0;
  };

  /// Registers every document of `database`. The store keeps shared
  /// ownership; the database may outlive or predecease the store.
  explicit DocumentStore(const xml::Database& database);

  /// Serves fetches from a packed on-disk database: only the node-record
  /// (and locator) pages a fetch actually needs are read, through the
  /// database's shared buffer pool.
  explicit DocumentStore(std::shared_ptr<const pagestore::PackedDb> packed);

  ~DocumentStore();
  DocumentStore(const DocumentStore&) = delete;
  DocumentStore& operator=(const DocumentStore&) = delete;

  /// Copies the stored subtree identified by (`root_component`, `id`) into
  /// `target` as a child of `target_parent` (or as the root when `target`
  /// is empty and `target_parent` is kInvalidNode). Counts fetch stats.
  Status CopySubtree(uint32_t root_component, const xml::DeweyId& id,
                     xml::Document* target, xml::NodeIndex target_parent,
                     Stats* accounting = nullptr) const;

  /// Returns the atomic text value of the element, or NotFound.
  Status GetValue(uint32_t root_component, const xml::DeweyId& id,
                  std::string* out, Stats* accounting = nullptr) const;

  /// Serialized byte length of the element's subtree (a base-data access;
  /// used by baselines that cannot get lengths from indices).
  Status GetSubtreeLength(uint32_t root_component, const xml::DeweyId& id,
                          uint64_t* out, Stats* accounting = nullptr) const;

  Stats stats() const {
    return Stats{fetch_calls_.load(std::memory_order_relaxed),
                 bytes_fetched_.load(std::memory_order_relaxed),
                 pages_read_.load(std::memory_order_relaxed),
                 buffer_hits_.load(std::memory_order_relaxed)};
  }
  void ResetStats() {
    fetch_calls_.store(0, std::memory_order_relaxed);
    bytes_fetched_.store(0, std::memory_order_relaxed);
    pages_read_.store(0, std::memory_order_relaxed);
    buffer_hits_.store(0, std::memory_order_relaxed);
  }

  /// True when fetches read .qvpack pages instead of in-memory nodes.
  bool paged() const { return packed_ != nullptr; }

 private:
  const xml::Document* Resolve(uint32_t root_component) const;

  void CountFetch(uint64_t bytes, uint64_t pages, uint64_t hits,
                  Stats* accounting) const {
    fetch_calls_.fetch_add(1, std::memory_order_relaxed);
    bytes_fetched_.fetch_add(bytes, std::memory_order_relaxed);
    if (pages != 0) pages_read_.fetch_add(pages, std::memory_order_relaxed);
    if (hits != 0) buffer_hits_.fetch_add(hits, std::memory_order_relaxed);
    if (accounting != nullptr) {
      ++accounting->fetch_calls;
      accounting->bytes_fetched += bytes;
      accounting->pages_read += pages;
      accounting->buffer_hits += hits;
    }
  }

  std::map<uint32_t, std::shared_ptr<const xml::Document>> docs_;
  std::shared_ptr<const pagestore::PackedDb> packed_;  // null = in-memory
  mutable std::atomic<uint64_t> fetch_calls_{0};
  mutable std::atomic<uint64_t> bytes_fetched_{0};
  mutable std::atomic<uint64_t> pages_read_{0};
  mutable std::atomic<uint64_t> buffer_hits_{0};
};

}  // namespace quickview::storage

#endif  // QUICKVIEW_STORAGE_DOCUMENT_STORE_H_
