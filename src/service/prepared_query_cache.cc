#include "service/prepared_query_cache.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <utility>

namespace quickview::service {

PreparedQueryCache::PreparedQueryCache(const Options& options)
    : capacity_(options.capacity),
      max_bytes_(options.max_bytes),
      doorkeeper_(options.capacity == 0 ? 0
                                        : std::bit_ceil(options.capacity)) {
  size_t shard_count = std::max<size_t>(1, options.shards);
  if (options.capacity == 0) {
    // Disabled: one empty shard.
    shard_count = 1;
    max_bytes_ = 0;
  } else {
    shard_count = std::min(shard_count, options.capacity);
  }
  shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

PreparedQueryCache::Shard& PreparedQueryCache::ShardFor(
    const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

std::shared_ptr<const engine::PreparedQuery> PreparedQueryCache::Lookup(
    const std::string& key, obs::Counter* hits, obs::Counter* misses) {
  Shard& shard = ShardFor(key);
  qv::MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses->Increment();
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits->Increment();
  return it->second->prepared;
}

std::shared_ptr<const engine::PreparedQuery> PreparedQueryCache::Get(
    const std::string& key) {
  return Lookup(key, &hits_, &misses_);
}

std::shared_ptr<const engine::PreparedQuery> PreparedQueryCache::GetSkeleton(
    const std::string& key) {
  return Lookup(key, &skeleton_hits_, &skeleton_misses_);
}

void PreparedQueryCache::Put(
    const std::string& key,
    std::shared_ptr<const engine::PreparedQuery> prepared) {
  if (capacity_ == 0 || prepared == nullptr) return;
  Shard& shard = ShardFor(key);
  qv::MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Concurrent builders racing on the same key: keep the incumbent
    // (identical by construction), just refresh recency.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  total_bytes_.fetch_add(prepared->memory_bytes, std::memory_order_relaxed);
  total_entries_.fetch_add(1, std::memory_order_relaxed);
  (prepared->skeleton ? skeleton_insertions_ : insertions_).Increment();
  shard.lru.push_front(Entry{key, std::move(prepared)});
  shard.index.emplace(key, shard.lru.begin());
  EvictLocked(&shard);
}

bool PreparedQueryCache::Sighted(uint64_t sighting) {
  // The bucket comes from a multiplicative remix of the sighting; the
  // whole hash, low bit forced, is the fingerprint. Concurrent first
  // sightings of one plan may both miss it, and a race may store a
  // fingerprint twice: either costs one more sighting, never a wrong
  // entry.
  DoorkeeperBucket& bucket =
      doorkeeper_[((sighting * 0x9e3779b97f4a7c15ull) >> 32) &
                  (doorkeeper_.size() - 1)];
  const uint64_t fingerprint = sighting | 1;
  for (const std::atomic<uint64_t>& way : bucket.ways) {
    if (way.load(std::memory_order_relaxed) == fingerprint) return true;
  }
  for (std::atomic<uint64_t>& way : bucket.ways) {
    uint64_t empty = 0;
    if (way.compare_exchange_strong(empty, fingerprint,
                                    std::memory_order_relaxed)) {
      return false;
    }
  }
  bucket.ways[(sighting >> 8) % DoorkeeperBucket::kWays].store(
      fingerprint, std::memory_order_relaxed);
  return false;
}

bool PreparedQueryCache::Offer(
    const std::string& key, uint64_t sighting,
    std::shared_ptr<const engine::PreparedQuery> prepared) {
  if (capacity_ == 0 || prepared == nullptr) return false;
  if (!Sighted(sighting)) {
    if (!prepared->skeleton) declined_.Increment();
    return false;
  }
  Put(key, std::move(prepared));
  return true;
}

void PreparedQueryCache::EvictLocked(Shard* shard) {
  // Budgets are global; the inserting shard pays while the cache as a
  // whole is over one of them — but never with the entry just inserted
  // (the shard's sole survivor): evicting the newest key because OTHER
  // shards hold the overflow would make a hot key whose shard receives
  // no other insertions miss forever. The resulting overshoot is
  // bounded by one entry per shard.
  while (shard->lru.size() > 1 &&
         (total_entries_.load(std::memory_order_relaxed) > capacity_ ||
          (max_bytes_ != 0 &&
           total_bytes_.load(std::memory_order_relaxed) > max_bytes_))) {
    const Entry& victim = shard->lru.back();
    total_bytes_.fetch_sub(victim.prepared->memory_bytes,
                           std::memory_order_relaxed);
    total_entries_.fetch_sub(1, std::memory_order_relaxed);
    shard->index.erase(victim.key);
    shard->lru.pop_back();
    evictions_.Increment();
  }
}

void PreparedQueryCache::Clear() {
  for (auto& shard : shards_) {
    qv::MutexLock lock(shard->mu);
    total_entries_.fetch_sub(shard->lru.size(), std::memory_order_relaxed);
    for (const Entry& entry : shard->lru) {
      total_bytes_.fetch_sub(entry.prepared->memory_bytes,
                             std::memory_order_relaxed);
    }
    shard->lru.clear();
    shard->index.clear();
  }
}

PreparedQueryCache::Stats PreparedQueryCache::stats() const {
  Stats out;
  out.hits = hits_.value();
  out.misses = misses_.value();
  out.insertions = insertions_.value();
  out.evictions = evictions_.value();
  out.declined = declined_.value();
  out.skeleton_hits = skeleton_hits_.value();
  out.skeleton_misses = skeleton_misses_.value();
  out.skeleton_insertions = skeleton_insertions_.value();
  return out;
}

Status PreparedQueryCache::RegisterMetrics(obs::MetricsRegistry* registry,
                                           obs::LabelSet labels) const {
  QV_RETURN_IF_ERROR(
      registry->RegisterCounter("qv_pdtcache_hits_total", labels, &hits_));
  QV_RETURN_IF_ERROR(
      registry->RegisterCounter("qv_pdtcache_misses_total", labels, &misses_));
  QV_RETURN_IF_ERROR(registry->RegisterCounter("qv_pdtcache_insertions_total",
                                               labels, &insertions_));
  QV_RETURN_IF_ERROR(registry->RegisterCounter("qv_pdtcache_evictions_total",
                                               labels, &evictions_));
  QV_RETURN_IF_ERROR(registry->RegisterCounter("qv_pdtcache_declined_total",
                                               labels, &declined_));
  QV_RETURN_IF_ERROR(registry->RegisterCounter(
      "qv_pdtcache_skeleton_hits_total", labels, &skeleton_hits_));
  QV_RETURN_IF_ERROR(registry->RegisterCounter(
      "qv_pdtcache_skeleton_misses_total", labels, &skeleton_misses_));
  QV_RETURN_IF_ERROR(registry->RegisterCounter(
      "qv_pdtcache_skeleton_insertions_total", labels, &skeleton_insertions_));
  QV_RETURN_IF_ERROR(registry->RegisterCallback(
      "qv_pdtcache_entries", labels,
      obs::MetricsRegistry::InstrumentKind::kGauge, [this]() -> int64_t {
        return static_cast<int64_t>(
            total_entries_.load(std::memory_order_relaxed));
      }));
  return registry->RegisterCallback(
      "qv_pdtcache_bytes", labels,
      obs::MetricsRegistry::InstrumentKind::kGauge, [this]() -> int64_t {
        return static_cast<int64_t>(
            total_bytes_.load(std::memory_order_relaxed));
      });
}

size_t PreparedQueryCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    qv::MutexLock lock(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

}  // namespace quickview::service
