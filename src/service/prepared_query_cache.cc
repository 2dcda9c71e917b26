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
  Charge(*prepared);
  total_entries_.fetch_add(1, std::memory_order_relaxed);
  (prepared->is_skeleton() ? skeleton_insertions_ : insertions_).Increment();
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
    if (!prepared->is_skeleton()) declined_.Increment();
    return false;
  }
  Put(key, std::move(prepared));
  return true;
}

void PreparedQueryCache::EvictLocked(Shard* shard) {
  // Budgets are global; the inserting shard pays while the cache as a
  // whole is over one of them — but never with the entry just inserted
  // (the front): evicting the newest key because OTHER shards hold the
  // overflow would make a hot key whose shard receives no other
  // insertions miss forever. Victims go LRU first, passing over a
  // skeleton that other cached entries hold. The resulting overshoot is
  // bounded by one entry per shard plus the skeletons passed over.
  auto next = shard->lru.end();  // the oldest entry not yet looked at
  while (total_entries_.load(std::memory_order_relaxed) > capacity_ ||
         (max_bytes_ != 0 &&
          total_bytes_.load(std::memory_order_relaxed) > max_bytes_)) {
    std::list<Entry>::iterator victim;
    do {
      if (next == shard->lru.begin()) return;
      victim = --next;
    } while (victim == shard->lru.begin() ||
             HeldByOthers(*victim->prepared));
    Release(*victim->prepared);
    total_entries_.fetch_sub(1, std::memory_order_relaxed);
    shard->index.erase(victim->key);
    next = shard->lru.erase(victim);
    evictions_.Increment();
  }
}

void PreparedQueryCache::Charge(const engine::PreparedQuery& prepared) {
  uint64_t bytes = prepared.is_skeleton() ? 0 : prepared.memory_bytes;
  const engine::PreparedQuery* skeleton =
      prepared.is_skeleton() ? &prepared : prepared.skeleton.get();
  if (skeleton != nullptr) {
    qv::MutexLock lock(held_mu_);
    if (held_[skeleton]++ == 0) bytes += skeleton->memory_bytes;
  }
  total_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

void PreparedQueryCache::Release(const engine::PreparedQuery& prepared) {
  uint64_t bytes = prepared.is_skeleton() ? 0 : prepared.memory_bytes;
  const engine::PreparedQuery* skeleton =
      prepared.is_skeleton() ? &prepared : prepared.skeleton.get();
  if (skeleton != nullptr) {
    qv::MutexLock lock(held_mu_);
    auto it = held_.find(skeleton);
    if (--it->second == 0) {
      bytes += skeleton->memory_bytes;
      held_.erase(it);
    }
  }
  total_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
}

bool PreparedQueryCache::HeldByOthers(const engine::PreparedQuery& prepared) {
  if (!prepared.is_skeleton()) return false;
  qv::MutexLock lock(held_mu_);
  return held_.at(&prepared) > 1;
}

void PreparedQueryCache::Clear() {
  for (auto& shard : shards_) {
    qv::MutexLock lock(shard->mu);
    total_entries_.fetch_sub(shard->lru.size(), std::memory_order_relaxed);
    for (const Entry& entry : shard->lru) Release(*entry.prepared);
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
      obs::MetricsRegistry::InstrumentKind::kGauge,
      [this]() -> int64_t { return static_cast<int64_t>(bytes()); });
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
