// The front-end memo behind ScopeEngine::Compile.
//
// Rendered script -> parsed + resolved LogicalPlan, keyed by (script hash,
// catalog-stats fingerprint). The front end is config-independent, so the
// span fix-point's up-to-8 recompiles, multi-flip search, recommendation
// recompiles and flighting all parse each job occurrence exactly once — and
// occurrences of the same template whose rendered script and statistics are
// identical share one parse across the whole batch.
//
// Each entry carries the job's cross-config memo (optimizer/
// cross_config_memo.h), the per-config tier of the compile cache: it maps
// the footprint of consulted rule bits to the finished compilation, so one
// front-end entry answers every configuration of its job that was compiled
// before — or that agrees with one on every bit the optimizer read.
//
// Failures are cached too: a script that fails to parse keeps failing
// identically from cache (the span fix-point and flip evaluation depend on
// observing those failures deterministically).
//
// Invalidation is by fingerprint: statistics drift or script edits change
// the key, and stale entries age out of the sharded LRU. Entries are
// immutable shared_ptr<const ...>, so results are byte-identical to a fresh
// compile at any thread count.
#ifndef QO_CACHE_COMPILATION_CACHE_H_
#define QO_CACHE_COMPILATION_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "cache/sharded_lru.h"
#include "common/hash.h"
#include "common/status.h"
#include "optimizer/cross_config_memo.h"
#include "scope/logical_plan.h"

namespace qo::cache {

/// Everything the config-independent front end reads.
struct FrontEndKey {
  uint64_t script_hash = 0;
  uint64_t catalog_fingerprint = 0;

  bool operator==(const FrontEndKey& o) const {
    return script_hash == o.script_hash &&
           catalog_fingerprint == o.catalog_fingerprint;
  }
};

struct FrontEndKeyHasher {
  size_t operator()(const FrontEndKey& k) const {
    return static_cast<size_t>(
        MixHash(k.script_hash ^ MixHash(k.catalog_fingerprint)));
  }
};

/// An immutable cached front-end result: the logical plan, or the compile
/// error that producing it raised. The cross-config memo rides on the entry
/// because its stored results are valid exactly as long as this plan +
/// catalog fingerprint pair is — eviction or stats drift retires both
/// together. `mutable` because the memo is internally synchronized.
struct CachedFrontEnd {
  Status status;
  scope::LogicalPlan plan;  ///< meaningful only when status.ok()
  mutable opt::CrossConfigMemo cross_config_memo;
};

using FrontEndPtr = std::shared_ptr<const CachedFrontEnd>;

/// Entry bound of the front-end memo (one entry serves every config of a
/// job, so the bound is rarely reached) and its shard count.
inline constexpr size_t kFrontEndCapacity = 4096;
inline constexpr int kFrontEndShards = 16;

/// Thread-safe front-end memo. Owned by a ScopeEngine (keys do not cover
/// optimizer options; the engine folds its options fingerprint into the
/// catalog fingerprint, so sharing across engines would stay sound).
using FrontEndCache =
    ShardedLruCache<FrontEndKey, FrontEndPtr, FrontEndKeyHasher>;

}  // namespace qo::cache

#endif  // QO_CACHE_COMPILATION_CACHE_H_
