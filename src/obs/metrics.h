// Process-wide metrics registry: counters, gauges, and fixed-bucket
// exponential (log-linear) histograms with deterministic quantile
// extraction.
//
// Design points, mirroring what the production pipeline needs (the paper
// ships hints only because flighting/validation/rollback are continuously
// observable, Sec. 2.5):
//
//  - Hot paths pay one relaxed atomic: counters are sharded across
//    cache-line-padded per-thread slots, histogram records are a single
//    relaxed fetch_add on a (shard, bucket) slot. No locks anywhere on the
//    record path.
//  - Timing is off-by-default-cheap: when QO_METRICS=0 the span macros and
//    timed call sites check one cached bool and do nothing.
//    Metrics never feed back into computation, so all outputs are
//    byte-identical with metrics on or off (asserted by obs_test and the
//    figure-bench identity checks in CI).
//  - Quantiles are deterministic: buckets are fixed log-linear boundaries
//    (4 sub-buckets per power of two) and Quantile() returns the upper
//    bound of the bucket containing the requested rank — the same counts
//    always produce the same p50/p95/p99, independent of record order.
//  - Snapshots merge associatively: a merged snapshot of per-shard (or
//    per-histogram) snapshots equals the snapshot of the merged data, in
//    any grouping (asserted by obs_test), so sinks can aggregate freely.
//
// The registry hands out stable pointers (metrics live in deques and are
// never deallocated), so call sites cache the pointer once and record
// lock-free afterwards. Every subsystem counts its events here, at the place
// they happen (cache.front_end.*, optimizer.memo.*, exec.*, bandit.*,
// flight.*, guard.*, sis.*, pipeline.*, service.*): counts are
// process-wide, survive their owner's destruction and sum across
// instances, and they are recorded whatever MetricsEnabled() says — the
// switch gates timing only. Only ratios are left to readers, derived from
// the counts. *Collectors* — callbacks run at Snapshot() time — are for
// instance state that is not an event count (the pipeline exports its SIS
// version, active hints, flight budget and bandit log residency this way).
#ifndef QO_OBS_METRICS_H_
#define QO_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qo::obs {

/// True unless QO_METRICS=0 (cached after the first call) or a test
/// override is installed. The single dispatch check every instrumented
/// call site performs.
bool MetricsEnabled();

/// Test hook: 0/1 forces metrics off/on, -1 restores the env-derived value.
void SetMetricsEnabledForTest(int state);

/// Monotonic nanoseconds (steady clock). Purely observational — never feeds
/// back into any computation.
uint64_t MonotonicNowNs();

// ---------------------------------------------------------------------------
// Histogram bucket math (log-linear: 4 sub-buckets per power of two).
// Exposed as constexpr free functions so tests can hand-compute goldens.
// ---------------------------------------------------------------------------
namespace hist {

/// Buckets 0..3 hold the exact values 0..3; from there each power of two
/// [2^e, 2^(e+1)) splits into 4 equal sub-buckets. e ranges 2..63, so the
/// last bucket's upper bound is 2^64 - 1: every uint64 value maps somewhere.
inline constexpr size_t kNumBuckets = 4 + 62 * 4;  // 252

constexpr size_t BucketIndex(uint64_t v) {
  if (v < 4) return static_cast<size_t>(v);
  const int e = 63 - std::countl_zero(v);  // floor(log2 v), >= 2
  const size_t sub = static_cast<size_t>((v >> (e - 2)) & 3);
  return 4 + static_cast<size_t>(e - 2) * 4 + sub;
}

constexpr uint64_t BucketLowerBound(size_t idx) {
  if (idx < 4) return idx;
  const int e = 2 + static_cast<int>((idx - 4) / 4);
  const uint64_t sub = (idx - 4) % 4;
  return (uint64_t{1} << e) + sub * (uint64_t{1} << (e - 2));
}

constexpr uint64_t BucketUpperBound(size_t idx) {
  if (idx < 4) return idx;
  const int e = 2 + static_cast<int>((idx - 4) / 4);
  return BucketLowerBound(idx) + (uint64_t{1} << (e - 2)) - 1;
}

}  // namespace hist

/// Mergeable point-in-time view of one histogram (or one histogram shard).
struct HistogramSnapshot {
  std::array<uint64_t, hist::kNumBuckets> counts{};
  uint64_t total = 0;  ///< sum of counts
  uint64_t sum = 0;    ///< sum of recorded values (saturating in practice)

  /// Element-wise accumulate. Merging is commutative and associative.
  void Merge(const HistogramSnapshot& other);

  /// Deterministic quantile: the upper bound of the bucket containing rank
  /// ceil(q * total) (rank clamped to [1, total]). 0 when empty.
  uint64_t Quantile(double q) const;

  /// Upper bound of the highest non-empty bucket. 0 when empty.
  uint64_t MaxValue() const;
};

// ---------------------------------------------------------------------------
// Metric types. All record paths are lock-free relaxed atomics; all types
// are neither copyable nor movable (the registry hands out stable pointers).
// ---------------------------------------------------------------------------

namespace detail {
/// Round-robin per-thread shard assignment, shared by counters and
/// histograms. A thread keeps its shard for life, so two increments from
/// one thread never contend with each other.
unsigned ThreadShard();
inline constexpr unsigned kShards = 8;
}  // namespace detail

/// Monotonic counter, sharded across cache-line-padded per-thread slots:
/// Add() is one relaxed fetch_add with no false sharing between threads.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) {
    slots_[detail::ThreadShard()].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const;
  /// One shard's value — exposed for the snapshot-merge associativity tests.
  uint64_t ShardValue(unsigned shard) const {
    return slots_[shard % detail::kShards].v.load(std::memory_order_relaxed);
  }
  void ResetForTest();

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> v{0};
  };
  std::array<Slot, detail::kShards> slots_{};
};

/// Last-write-wins scalar.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void ResetForTest() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket log-linear histogram, sharded by recording thread: Record()
/// is two relaxed fetch_adds (bucket + value sum) on this thread's shard.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value) {
    Shard& s = shards_[detail::ThreadShard() % kHistShards];
    s.buckets[hist::BucketIndex(value)].fetch_add(1,
                                                  std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
  }
  /// Merged view across all shards.
  HistogramSnapshot Snapshot() const;
  /// One shard's view — exposed for the merge-associativity tests.
  HistogramSnapshot ShardSnapshot(unsigned shard) const;
  uint64_t Count() const { return Snapshot().total; }
  void ResetForTest();

  static constexpr unsigned kHistShards = 4;

 private:
  struct Shard {
    std::array<std::atomic<uint64_t>, hist::kNumBuckets> buckets{};
    std::atomic<uint64_t> sum{0};
  };
  std::array<Shard, kHistShards> shards_{};
};

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

/// Accumulating sink collectors write named series into. Duplicate names
/// sum, so several instances of one subsystem (e.g. two pipelines)
/// aggregate into one process-wide series — which is why collectors export
/// raw values only, never ratios.
class SeriesSink {
 public:
  explicit SeriesSink(std::map<std::string, double>* out) : out_(out) {}
  void Add(std::string_view name, double value) {
    (*out_)[std::string(name)] += value;
  }

 private:
  std::map<std::string, double>* out_;
};

/// Point-in-time view of the whole registry: counters, gauges and collector
/// series flattened into one sorted series list, plus histogram snapshots.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, double>> series;  ///< sorted by name
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;  ///< sorted

  /// Value of a series by exact name; `fallback` when absent.
  double SeriesValue(std::string_view name, double fallback = 0.0) const;
  bool HasSeries(std::string_view name) const;
  const HistogramSnapshot* FindHistogram(std::string_view name) const;
};

/// The process-wide named metric directory. Lookup/registration takes a
/// mutex; call sites cache the returned pointer (stable for process life)
/// and never touch the lock again.
class Registry {
 public:
  static Registry& Get();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Registers a state exporter invoked at Snapshot() time. The
  /// callback must not call back into the registry (the lock is held) and
  /// must be removed before whatever it captures is destroyed.
  int AddCollector(std::function<void(SeriesSink&)> collector);
  void RemoveCollector(int id);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every counter/gauge/histogram without deallocating anything:
  /// cached pointers at call sites stay valid. Collectors are untouched.
  void ZeroAllForTest();

 private:
  Registry() = default;

  mutable std::mutex mu_;
  // Deques: grow-only, stable addresses.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  // Sorted name -> metric maps (heterogeneous lookup via std::less<>).
  std::map<std::string, Counter*, std::less<>> counter_names_;
  std::map<std::string, Gauge*, std::less<>> gauge_names_;
  std::map<std::string, Histogram*, std::less<>> histogram_names_;
  std::map<int, std::function<void(SeriesSink&)>> collectors_;
  int next_collector_id_ = 0;
};

}  // namespace qo::obs

#endif  // QO_OBS_METRICS_H_
