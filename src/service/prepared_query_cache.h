// Sharded LRU cache of PreparedQuery entries of both kinds:
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
// intermediate-structure reuse). Both kinds share the capacity, the byte
// budget and the LRU. A skeleton's memory_bytes counts its PDTs and its
// arena, a bundle's only its term frequencies: the cache charges a
// skeleton's bytes once while any cached entry holds it (the skeleton's
// own entry or any of its bundles), so the byte total is what the cached
// entries keep alive. Eviction passes over a skeleton that cached
// bundles still hold — evicting it would free nothing, and the next new
// keyword set over it would build a second copy. The hit, miss,
// insertion and declined counters count bundles only, and skeletons
// have counters of their own. Entries are shared_ptr<const>, so an entry
// evicted while queries still execute against it stays alive until the
// last query drops its reference.
//
// Sharding: keys hash to one of N independently locked shards, so
// concurrent lookups from the service thread pool contend only when they
// collide on a shard, not on one global mutex. Budgets are GLOBAL:
// entry and byte totals are shared atomics, and an insertion evicts from
// its own shard only while the whole cache is over budget — a skewed key
// distribution can therefore fill one shard disproportionately, but can
// never force evictions while the cache as a whole has room. (A fixed
// per-shard quota thrashed exactly that way: any change to the key
// format reshuffles every hash, and a shard that drew more than
// capacity/shards hot keys evicted them on every round robin.)
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
    /// Maximum total entries across all shards. 0 disables caching
    /// entirely.
    size_t capacity = 128;
    size_t shards = 8;
    /// Optional PDT-memory budget across all shards (0 = entries-only
    /// eviction). While the cache is over either global limit, an
    /// insertion evicts LRU-first from its own shard.
    uint64_t max_bytes = 0;
  };

  struct Stats {  // lint:allow(adhoc-stats) snapshot view; cache registers obs:: instruments
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    /// Offers refused because the plan had not been sighted before.
    uint64_t declined = 0;
    /// Skeleton lookups and admissions (GetSkeleton; Put and Offer of a
    /// skeleton), counted apart from the bundle counters above.
    uint64_t skeleton_hits = 0;
    uint64_t skeleton_misses = 0;
    uint64_t skeleton_insertions = 0;
  };

  explicit PreparedQueryCache(const Options& options);

  /// Returns the cached entry and promotes it to most-recently-used, or
  /// nullptr (counting a miss).
  std::shared_ptr<const engine::PreparedQuery> Get(const std::string& key);

  /// Get for a skeleton's key, counted by the skeleton counters.
  std::shared_ptr<const engine::PreparedQuery> GetSkeleton(
      const std::string& key);

  /// Inserts (or refreshes) `prepared` under `key`, evicting LRU entries
  /// while the cache exceeds its budgets. An insertion counts as a
  /// skeleton's when `prepared->is_skeleton()`.
  void Put(const std::string& key,
           std::shared_ptr<const engine::PreparedQuery> prepared);

  /// Put on the second sighting: `sighting` hashes the plan's admission
  /// key, which may stay the same across several cache keys (the service
  /// leaves its version pair out). Records the sighting; Puts only when
  /// it was recorded before, and otherwise counts a declined admission
  /// (of a bundle; a declined skeleton is not counted). Returns whether
  /// `prepared` was put.
  bool Offer(const std::string& key, uint64_t sighting,
             std::shared_ptr<const engine::PreparedQuery> prepared);

  /// Drops every entry (in-flight queries keep their references alive).
  /// The doorkeeper keeps its sightings, so a plan seen before is
  /// admitted again on its next miss.
  void Clear();

  /// Thin view over the cache's registry instruments.
  Stats stats() const;
  size_t size() const;
  /// What qv_pdtcache_bytes reports: the bytes the cached entries keep
  /// alive, each skeleton counted once.
  uint64_t bytes() const {
    return total_bytes_.load(std::memory_order_relaxed);
  }
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
  /// One cache line of sighting fingerprints (0 = empty).
  struct alignas(64) DoorkeeperBucket {
    static constexpr size_t kWays = 8;
    std::atomic<uint64_t> ways[kWays];
  };
  struct Shard {
    qv::Mutex mu;
    std::list<Entry> lru QV_GUARDED_BY(mu);  // front = most recently used
    std::unordered_map<std::string, std::list<Entry>::iterator> index
        QV_GUARDED_BY(mu);
  };

  Shard& ShardFor(const std::string& key);
  std::shared_ptr<const engine::PreparedQuery> Lookup(const std::string& key,
                                                      obs::Counter* hits,
                                                      obs::Counter* misses);
  /// Records `sighting`; true iff it was recorded before.
  bool Sighted(uint64_t sighting);
  void EvictLocked(Shard* shard) QV_REQUIRES(shard->mu);
  /// Adds `prepared` to the byte total as a cached entry, or takes it
  /// away: its own bytes, plus its skeleton's when it is the first (or
  /// the last) cached entry to hold that skeleton.
  void Charge(const engine::PreparedQuery& prepared) QV_EXCLUDES(held_mu_);
  void Release(const engine::PreparedQuery& prepared) QV_EXCLUDES(held_mu_);
  /// Whether `prepared` is a skeleton that other cached entries hold.
  bool HeldByOthers(const engine::PreparedQuery& prepared)
      QV_EXCLUDES(held_mu_);

  size_t capacity_;     // global entry budget (0 = caching disabled)
  uint64_t max_bytes_;  // global PDT-byte budget (0 = entries-only)
  std::atomic<size_t> total_entries_{0};
  std::atomic<uint64_t> total_bytes_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Per skeleton, how many cached entries hold it (itself included).
  /// Locked after a shard's mutex, never before.
  qv::Mutex held_mu_;
  std::unordered_map<const engine::PreparedQuery*, size_t> held_
      QV_GUARDED_BY(held_mu_);
  /// Indexed by the sighting's own hash, not by cache shard: one plan's
  /// keys at different versions land in different shards but share a
  /// bucket. A power of two in size.
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
