#include "service/prepared_query_cache.h"

#include <bit>
#include <utility>

namespace quickview::service {

PreparedQueryCache::PreparedQueryCache(const Options& options)
    : capacity_(options.capacity),
      doorkeeper_(options.capacity == 0 ? 0
                                        : std::bit_ceil(options.capacity)) {}

void PreparedQueryCache::Touch(const Position& position) {
  lru_.splice(lru_.begin(), lru_, position.entry);
  if (position.entry->prepared->is_bundle()) {
    lru_.splice(lru_.begin(), lru_, position.skeleton);
  }
}

std::shared_ptr<const engine::PreparedQuery> PreparedQueryCache::Lookup(
    const std::string& key, obs::Counter* hits, obs::Counter* misses) {
  qv::MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    misses->Increment();
    return nullptr;
  }
  Touch(it->second);
  hits->Increment();
  return it->second.entry->prepared;
}

std::shared_ptr<const engine::PreparedQuery> PreparedQueryCache::Get(
    const std::string& key) {
  return Lookup(key, &hits_, &misses_);
}

std::shared_ptr<const engine::PreparedQuery> PreparedQueryCache::GetSkeleton(
    const std::string& key) {
  return Lookup(key, &skeleton_hits_, &skeleton_misses_);
}

std::shared_ptr<const engine::PreparedQuery> PreparedQueryCache::Peek(
    const std::string& key) const {
  qv::MutexLock lock(mu_);
  auto it = index_.find(key);
  return it == index_.end() ? nullptr : it->second.entry->prepared;
}

PreparedQueryCache::Lru::iterator PreparedQueryCache::Insert(
    const std::string& key,
    std::shared_ptr<const engine::PreparedQuery> prepared,
    Lru::iterator skeleton) {
  auto [it, inserted] = index_.try_emplace(key);
  if (inserted) {
    bytes_ += prepared->memory_bytes;
    (prepared->is_skeleton() ? skeleton_insertions_ : insertions_)
        .Increment();
    lru_.push_front(Entry{key, std::move(prepared)});
    it->second = Position{lru_.begin(), skeleton};
  }
  // Concurrent builders racing on one key keep the incumbent (identical
  // by construction) and refresh its recency.
  Touch(it->second);
  return it->second.entry;
}

void PreparedQueryCache::Evict() {
  while (lru_.size() > capacity_) {
    // The back is never a skeleton a cached bundle holds: each bundle's
    // skeleton is ahead of it.
    bytes_ -= lru_.back().prepared->memory_bytes;
    index_.erase(lru_.back().key);
    lru_.pop_back();
    evictions_.Increment();
  }
}

void PreparedQueryCache::Put(
    const std::string& key,
    std::shared_ptr<const engine::PreparedQuery> prepared) {
  if (capacity_ == 0 || prepared == nullptr || prepared->is_bundle()) return;
  qv::MutexLock lock(mu_);
  Insert(key, std::move(prepared), lru_.end());
  Evict();
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
    std::shared_ptr<const engine::PreparedQuery> prepared,
    const std::string& skeleton_key) {
  if (capacity_ == 0 || prepared == nullptr) return false;
  if (!Sighted(sighting)) {
    if (!prepared->is_skeleton()) declined_.Increment();
    return false;
  }
  if (prepared->is_bundle() && skeleton_key.empty()) return false;
  qv::MutexLock lock(mu_);
  Lru::iterator skeleton = lru_.end();
  if (prepared->is_bundle()) {
    auto it = index_.find(skeleton_key);
    if (it == index_.end()) {
      skeleton = Insert(skeleton_key, prepared->skeleton, lru_.end());
    } else if (it->second.entry->prepared == prepared->skeleton) {
      skeleton = it->second.entry;
    } else {
      return false;
    }
  }
  Insert(key, std::move(prepared), skeleton);
  Evict();
  return true;
}

void PreparedQueryCache::Clear() {
  qv::MutexLock lock(mu_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

size_t PreparedQueryCache::size() const {
  qv::MutexLock lock(mu_);
  return lru_.size();
}

uint64_t PreparedQueryCache::bytes() const {
  qv::MutexLock lock(mu_);
  return bytes_;
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
      obs::MetricsRegistry::InstrumentKind::kGauge,
      [this]() -> int64_t { return static_cast<int64_t>(size()); }));
  return registry->RegisterCallback(
      "qv_pdtcache_bytes", labels,
      obs::MetricsRegistry::InstrumentKind::kGauge,
      [this]() -> int64_t { return static_cast<int64_t>(bytes()); });
}

}  // namespace quickview::service
