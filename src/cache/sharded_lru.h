// A sharded, thread-safe, LRU-bounded map: the front-end compile cache.
//
// Sharding follows the ShardedWorkQueue convention (src/runtime/): an entry
// lives in shard `hash(key) % num_shards`, each shard owns an independent
// mutex + LRU list, so concurrent lookups of unrelated keys never contend.
// Values are handed out by copy — callers store shared_ptr<const T>, which
// makes a hit O(1) and lets an entry outlive its own eviction.
//
// Hits, misses and evictions are counted into the process-wide obs registry
// under `<series_prefix>.hits` / `.misses` / `.evictions`, so the counts
// outlive the cache and sum across every instance sharing a prefix.
//
// Determinism note: hit/miss/eviction *timing* depends on thread
// interleaving, but a cached value is always byte-identical to what the
// compute function would produce (entries are immutable once inserted), so
// cached and uncached runs of a pure function agree for any thread count.
#ifndef QO_CACHE_SHARDED_LRU_H_
#define QO_CACHE_SHARDED_LRU_H_

#include <cstddef>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace qo::cache {

template <typename Key, typename Value, typename Hasher>
class ShardedLruCache {
 public:
  /// `capacity` is the total entry bound across shards (each shard gets an
  /// equal slice, rounded up). `num_shards` <= 0 falls back to 1.
  /// `series_prefix` names the registry counters this cache counts into.
  ShardedLruCache(size_t capacity, int num_shards,
                  std::string_view series_prefix)
      : capacity_(capacity),
        shards_(static_cast<size_t>(num_shards > 0 ? num_shards : 1)),
        hits_(&Series(series_prefix, ".hits")),
        misses_(&Series(series_prefix, ".misses")),
        evictions_(&Series(series_prefix, ".evictions")) {
    per_shard_capacity_ = (capacity_ + shards_.size() - 1) / shards_.size();
    if (per_shard_capacity_ == 0) per_shard_capacity_ = 1;
  }

  /// Returns the cached value and refreshes its recency, or nullopt.
  std::optional<Value> Get(const Key& key) {
    Shard& shard = ShardOf(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      misses_->Add();
      return std::nullopt;
    }
    hits_->Add();
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->second;
  }

  /// Inserts (or refreshes) `key`, evicting the shard's least-recently-used
  /// entries beyond capacity. Returns the resident value: on an insert race
  /// the first writer wins and later writers receive the existing entry, so
  /// every caller observes one consistent value per key.
  Value Insert(const Key& key, Value value) {
    Shard& shard = ShardOf(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return it->second->second;
    }
    shard.lru.emplace_front(key, std::move(value));
    shard.index.emplace(key, shard.lru.begin());
    while (shard.index.size() > per_shard_capacity_) {
      shard.index.erase(shard.lru.back().first);
      shard.lru.pop_back();
      evictions_->Add();
    }
    return shard.lru.front().second;
  }

  /// Get-or-insert in one call. `compute` runs WITHOUT the shard lock (it
  /// may be arbitrarily expensive — a full compilation); two threads racing
  /// on the same missing key both compute, and Insert keeps the first.
  Value GetOrCompute(const Key& key, const std::function<Value()>& compute) {
    if (std::optional<Value> hit = Get(key)) return std::move(*hit);
    return Insert(key, compute());
  }

  size_t size() const {
    size_t n = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      n += shard.index.size();
    }
    return n;
  }

  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return shards_.size(); }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::list<std::pair<Key, Value>> lru;  ///< front = most recent
    std::unordered_map<Key, typename std::list<std::pair<Key, Value>>::iterator,
                       Hasher>
        index;
  };

  static obs::Counter& Series(std::string_view prefix, std::string_view name) {
    std::string full(prefix);
    full += name;
    return obs::Registry::Get().counter(full);
  }

  Shard& ShardOf(const Key& key) {
    return shards_[Hasher{}(key) % shards_.size()];
  }

  size_t capacity_;
  size_t per_shard_capacity_;
  std::vector<Shard> shards_;
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* evictions_;
};

}  // namespace qo::cache

#endif  // QO_CACHE_SHARDED_LRU_H_
