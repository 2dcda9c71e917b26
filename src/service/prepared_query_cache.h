// LRU cache of PreparedQuery entries of both kinds:
//  - PDT skeletons, keyed by (view id, PDT signature): a view's plan, its
//    PDTs built with no keywords and the view evaluated over them once
//    (the evaluator's arena, the view results, their byte lengths and
//    what their term frequencies sum). Every keyword set over the same
//    QPTs shares one;
//  - annotated bundles, keyed by (view id, plan signature): a skeleton
//    plus one keyword set's term frequencies per view result — all a
//    repeated query needs; serving one runs no evaluator.
// PDT generation and view evaluation are the data-dependent stages of
// the pipeline; reusing their products across queries is what turns the
// engine from one-shot into a multi-query service (EMBANKS-style
// intermediate-structure reuse).
//
// One list, one index, one mutex: both kinds share the capacity and the
// LRU order, and an insertion over capacity evicts the exact
// least-recently-used entry. A skeleton's memory_bytes counts its PDTs
// and its arena, a bundle's only its term frequencies; a cached bundle's
// skeleton is always cached too, and never older than the bundle. A
// bundle enters only through Offer, with its skeleton's key: it caches
// its skeleton under that key when the key is empty (the bundle keeps
// the skeleton in memory anyway), and is not cached when the key holds
// another skeleton object (two requests built the view at once; a caller
// that Peeks the key can rebind the bundle to it first).
// Inserting or hitting a bundle moves its skeleton to the front right
// after it, so LRU evicts a skeleton's bundles before the skeleton, and
// bytes() — the sum of the cached entries' own memory_bytes — is what
// the cache keeps alive. The hit, miss, insertion and declined counters
// count bundles (and standalone entries) only, and skeletons have
// counters of their own. Entries are shared_ptr<const>, so an entry
// evicted while queries still execute against it stays alive until the
// last query drops its reference.
//
// Admission: Put stores unconditionally; Offer stores only a plan sighted
// before (TinyLFU's doorkeeper, Einziger, Friedman & Manes). A one-shot
// plan's PDTs are built, served and dropped without ever taking cache
// memory or evicting a plan that recurs. The doorkeeper is a fixed,
// lock-free table of 64-bit fingerprints sized from `capacity`: one
// bucket of eight per cache entry. A sighting that finds its bucket full
// overwrites a pseudo-random one of the eight, so the table forgets old
// one-shot plans by itself and never grows with the number of plans.
#ifndef QUICKVIEW_SERVICE_PREPARED_QUERY_CACHE_H_
#define QUICKVIEW_SERVICE_PREPARED_QUERY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/sync.h"
#include "engine/view_search_engine.h"
#include "obs/metrics.h"

namespace quickview::service {

class PreparedQueryCache {
 public:
  struct Options {
    /// Maximum entries, skeletons and bundles alike. 0 disables caching
    /// entirely.
    size_t capacity = 128;
  };

  struct Stats {  // lint:allow(adhoc-stats) snapshot view; cache registers obs:: instruments
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    /// Offers refused because the plan had not been sighted before.
    uint64_t declined = 0;
    /// Skeleton lookups and admissions (GetSkeleton; Put and Offer of a
    /// skeleton, and a skeleton a bundle brings), counted apart from the
    /// bundle counters above.
    uint64_t skeleton_hits = 0;
    uint64_t skeleton_misses = 0;
    uint64_t skeleton_insertions = 0;
  };

  explicit PreparedQueryCache(const Options& options);

  /// Returns the cached entry and promotes it (and a bundle's skeleton)
  /// to most-recently-used, or nullptr (counting a miss).
  std::shared_ptr<const engine::PreparedQuery> Get(const std::string& key);

  /// Get for a skeleton's key, counted by the skeleton counters.
  std::shared_ptr<const engine::PreparedQuery> GetSkeleton(
      const std::string& key);

  /// The entry under `key`, or nullptr, neither promoted nor counted.
  std::shared_ptr<const engine::PreparedQuery> Peek(
      const std::string& key) const;

  /// Inserts (or refreshes) a skeleton or a standalone entry under `key`,
  /// evicting the least recently used entries while the cache is over
  /// capacity. A bundle is not put: it enters through Offer.
  void Put(const std::string& key,
           std::shared_ptr<const engine::PreparedQuery> prepared);

  /// Put on the second sighting: `sighting` hashes the plan's admission
  /// key, which may stay the same across several cache keys (the service
  /// leaves its version pair out). Records the sighting; stores only when
  /// it was recorded before, and otherwise counts a declined admission
  /// (of a bundle; a declined skeleton is not counted). A bundle names
  /// its skeleton's key (one offered without it is not cached): it
  /// caches its skeleton there when the key is empty, and is not cached
  /// when the key holds another object. Returns whether `prepared` was
  /// stored.
  bool Offer(const std::string& key, uint64_t sighting,
             std::shared_ptr<const engine::PreparedQuery> prepared,
             const std::string& skeleton_key = "");

  /// Drops every entry (in-flight queries keep their references alive).
  /// The doorkeeper keeps its sightings, so a plan seen before is
  /// admitted again on its next miss.
  void Clear();

  /// Thin view over the cache's registry instruments.
  Stats stats() const;
  size_t size() const;
  /// What qv_pdtcache_bytes reports: the sum of the cached entries' own
  /// memory_bytes, which counts each kept skeleton once.
  uint64_t bytes() const;
  /// The doorkeeper's fixed fingerprint count (0 when caching is
  /// disabled).
  size_t doorkeeper_slots() const {
    return doorkeeper_.size() * DoorkeeperBucket::kWays;
  }

  /// Registers the cache's instruments (qv_pdtcache_*) under `labels`.
  /// The cache must outlive the registry reads.
  Status RegisterMetrics(obs::MetricsRegistry* registry,
                         obs::LabelSet labels = {}) const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const engine::PreparedQuery> prepared;
  };
  using Lru = std::list<Entry>;  // front = most recently used
  struct Position {
    Lru::iterator entry;
    /// A bundle's: its skeleton's entry, always ahead of it in lru_.
    Lru::iterator skeleton;
  };
  /// One cache line of sighting fingerprints (0 = empty).
  struct alignas(64) DoorkeeperBucket {
    static constexpr size_t kWays = 8;
    std::atomic<uint64_t> ways[kWays];
  };

  std::shared_ptr<const engine::PreparedQuery> Lookup(const std::string& key,
                                                      obs::Counter* hits,
                                                      obs::Counter* misses)
      QV_EXCLUDES(mu_);
  /// Records `sighting`; true iff it was recorded before.
  bool Sighted(uint64_t sighting);
  /// Moves the entry to the front, and a bundle's skeleton ahead of it.
  void Touch(const Position& position) QV_REQUIRES(mu_);
  /// Stores `prepared` under `key` (a bundle after its skeleton's entry
  /// `skeleton`), or touches the incumbent; returns the key's entry.
  Lru::iterator Insert(const std::string& key,
                       std::shared_ptr<const engine::PreparedQuery> prepared,
                       Lru::iterator skeleton) QV_REQUIRES(mu_);
  /// Evicts from the back while the cache is over capacity.
  void Evict() QV_REQUIRES(mu_);

  const size_t capacity_;  // 0 = caching disabled
  mutable qv::Mutex mu_;
  Lru lru_ QV_GUARDED_BY(mu_);
  std::unordered_map<std::string, Position> index_ QV_GUARDED_BY(mu_);
  uint64_t bytes_ QV_GUARDED_BY(mu_) = 0;
  /// Indexed by the sighting's own hash: one plan's keys at different
  /// versions share a bucket. A power of two in size.
  std::vector<DoorkeeperBucket> doorkeeper_;
  // Registry-native counters (relaxed atomics, lock-free reads).
  mutable obs::Counter hits_;
  mutable obs::Counter misses_;
  mutable obs::Counter insertions_;
  mutable obs::Counter evictions_;
  mutable obs::Counter declined_;
  mutable obs::Counter skeleton_hits_;
  mutable obs::Counter skeleton_misses_;
  mutable obs::Counter skeleton_insertions_;
};

}  // namespace quickview::service

#endif  // QUICKVIEW_SERVICE_PREPARED_QUERY_CACHE_H_
