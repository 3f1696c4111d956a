#include "bandit/features.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/kernels/kernels.h"
#include "optimizer/rules.h"

namespace qo::bandit {

namespace {

/// Comparison sort + coalesce for small pair vectors (single actions, short
/// spans): sort by index, coalesce runs of equal indices by summing their
/// values. Returns the squared L2 norm of the coalesced values. Large raw
/// vectors take the CombineArena path below instead.
double SortAndCoalesce(std::vector<std::pair<uint32_t, double>>* entries) {
  std::sort(entries->begin(), entries->end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  auto& e = *entries;
  size_t out = 0;
  double norm_sq = 0.0;
  for (size_t i = 0; i < e.size();) {
    const uint32_t index = e[i].first;
    double sum = e[i].second;
    for (++i; i < e.size() && e[i].first == index; ++i) sum += e[i].second;
    norm_sq += sum * sum;
    e[out++] = {index, sum};
  }
  e.resize(out);
  return norm_sq;
}

/// Bump arena over the dense hashed feature space: raw (index, value)
/// inserts accumulate straight into a value column guarded by a presence
/// bitmap, and Emit() walks the bitmap in ascending index order — the
/// combined vector materializes already sorted and coalesced, retiring the
/// radix-sort canonicalization pass that used to follow every combine.
///
/// Bit-identity with the retired stable sort: duplicates accumulate in
/// insertion order (`+=` on an already-present slot) exactly as the stable
/// sort's coalesce loop summed a run, and Emit's ascending scan accumulates
/// norm_sq in the same sorted-index order.
///
/// One arena per thread (2 MiB value column + 32 KiB bitmap), reused across
/// combines; Emit clears only the touched bitmap words, so cost scales with
/// the vector, not the space. Stale values beyond cleared bits are
/// harmless — an insert on a clear bit overwrites.
///
/// A second-level summary bitmap (one bit per first-level word, 64 words
/// total — a single cache line) lets Emit find the hot words without
/// scanning the whole 32 KiB bitmap: CollectNonzeroWords runs over the
/// summary, and only words with live bits are visited.
class CombineArena {
 public:
  static constexpr uint32_t kDim = FeatureVector::kDim;
  static constexpr size_t kWords = kDim / 64;
  static constexpr size_t kSummaryWords = kWords / 64;

  CombineArena()
      : value_(kDim, 0.0),
        bits_(kWords, 0),
        summary_(kSummaryWords, 0),
        hot_summary_(kSummaryWords) {}

  void Add(uint32_t index, double value) {
    const uint32_t w = index >> 6;
    uint64_t& word = bits_[w];
    const uint64_t mask = 1ULL << (index & 63u);
    if (word & mask) {
      value_[index] += value;
    } else {
      word |= mask;
      summary_[w >> 6] |= 1ULL << (w & 63u);
      value_[index] = value;
    }
  }

  /// Drains the arena into canonical SoA columns. `size_hint` is the raw
  /// insert count (an upper bound on distinct indices).
  SparseVector Emit(size_t size_hint) {
    std::vector<uint32_t> indices;
    std::vector<double> values;
    indices.reserve(size_hint);
    values.reserve(size_hint);
    double norm_sq = 0.0;
    // One scan over the summary line finds every region with a hot word;
    // the drain loop then touches only live first-level words.
    const size_t hot = kernels::CollectNonzeroWords(
        summary_.data(), 0, kSummaryWords, hot_summary_.data());
    for (size_t k = 0; k < hot; ++k) {
      const size_t s = hot_summary_[k];
      uint64_t sword = summary_[s];
      summary_[s] = 0;
      while (sword != 0) {
        const size_t w = s * 64 + static_cast<size_t>(std::countr_zero(sword));
        sword &= sword - 1;
        uint64_t word = bits_[w];
        bits_[w] = 0;
        while (word != 0) {
          const uint32_t index =
              static_cast<uint32_t>(w * 64) +
              static_cast<uint32_t>(std::countr_zero(word));
          word &= word - 1;
          const double sum = value_[index];
          indices.push_back(index);
          values.push_back(sum);
          norm_sq += sum * sum;
        }
      }
    }
    return SparseVector::FromCanonical(std::move(indices), std::move(values),
                                       norm_sq);
  }

  /// Emit() variant draining into a sorted-coalesced pair vector, for the
  /// FeatureVector canonicalization path (which keeps the pair layout).
  void EmitPairs(std::vector<std::pair<uint32_t, double>>* out) {
    out->clear();
    const size_t hot = kernels::CollectNonzeroWords(
        summary_.data(), 0, kSummaryWords, hot_summary_.data());
    for (size_t k = 0; k < hot; ++k) {
      const size_t s = hot_summary_[k];
      uint64_t sword = summary_[s];
      summary_[s] = 0;
      while (sword != 0) {
        const size_t w = s * 64 + static_cast<size_t>(std::countr_zero(sword));
        sword &= sword - 1;
        uint64_t word = bits_[w];
        bits_[w] = 0;
        while (word != 0) {
          const uint32_t index =
              static_cast<uint32_t>(w * 64) +
              static_cast<uint32_t>(std::countr_zero(word));
          word &= word - 1;
          out->emplace_back(index, value_[index]);
        }
      }
    }
  }

 private:
  std::vector<double> value_;
  std::vector<uint64_t> bits_;
  std::vector<uint64_t> summary_;
  std::vector<uint32_t> hot_summary_;
};

CombineArena& ThreadArena() {
  thread_local CombineArena arena;
  return arena;
}

/// Raw-entry count at which the arena pays for its bitmap scan. Below it,
/// the comparison sort path wins; this is the same cutover the retired
/// radix sort used, which also keeps the small-vector duplicate-coalescing
/// order (unstable std::sort) byte-identical to the previous tree.
constexpr size_t kArenaThreshold = 256;

SparseVector CanonicalizePairs(std::vector<std::pair<uint32_t, double>> raw) {
  if (raw.size() >= kArenaThreshold) {
    CombineArena& arena = ThreadArena();
    for (const auto& [index, value] : raw) arena.Add(index, value);
    return arena.Emit(raw.size());
  }
  const double norm_sq = SortAndCoalesce(&raw);
  std::vector<uint32_t> indices;
  std::vector<double> values;
  indices.reserve(raw.size());
  values.reserve(raw.size());
  for (const auto& [index, value] : raw) {
    indices.push_back(index);
    values.push_back(value);
  }
  return SparseVector::FromCanonical(std::move(indices), std::move(values),
                                     norm_sq);
}

}  // namespace

SparseVector SparseVector::Canonicalize(
    std::vector<std::pair<uint32_t, double>> raw) {
  for (auto& [index, value] : raw) index %= FeatureVector::kDim;
  return CanonicalizePairs(std::move(raw));
}

SparseVector SparseVector::FromCanonical(std::vector<uint32_t> indices,
                                         std::vector<double> values,
                                         double norm_sq) {
  SparseVector v;
  v.indices_ = std::move(indices);
  v.values_ = std::move(values);
  v.norm_sq_ = norm_sq;
  return v;
}

uint64_t HashFeatureName(const std::string& name) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void FeatureVector::AddNamed(const std::string& name, double value) {
  Add(static_cast<uint32_t>(HashFeatureName(name)), value);
}

void FeatureVector::Canonicalize() {
  // Same cutover as the combined path: the arena reproduces the retired
  // stable radix sort bit for bit on large vectors (long-span context
  // features), the comparison sort keeps the legacy small-vector behavior.
  if (entries.size() >= kArenaThreshold) {
    CombineArena& arena = ThreadArena();
    for (const auto& [index, value] : entries) arena.Add(index, value);
    arena.EmitPairs(&entries);
  } else {
    SortAndCoalesce(&entries);
  }
}

namespace {

int LogBucket(double v) {
  if (v <= 1.0) return 0;
  return static_cast<int>(std::log10(v));
}

// Unsigned operands throughout: feature indices are uint32_t, and funneling
// them through int (as an earlier revision did) relied on
// implementation-defined narrowing for the upper half of the index space.
// For all in-range inputs (span bits, kDim-reduced indices) the arithmetic —
// and therefore every hashed feature id — is unchanged.
uint32_t MixPair(uint32_t a, uint32_t b) {
  uint64_t h = (static_cast<uint64_t>(a) + 1) * 0x9e3779b97f4a7c15ULL;
  h ^= (static_cast<uint64_t>(b) + 1) * 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 29;
  return static_cast<uint32_t>(h);
}

uint32_t MixTriple(uint32_t a, uint32_t b, uint32_t c) {
  uint64_t h = MixPair(a, b);
  h = h * 0x94d049bb133111ebULL + (static_cast<uint64_t>(c) + 1);
  h ^= h >> 31;
  return static_cast<uint32_t>(h);
}

uint32_t Bit(int span_bit) { return static_cast<uint32_t>(span_bit); }

}  // namespace

FeatureVector BuildContextFeatures(const JobContext& context) {
  FeatureVector f;
  std::vector<int> span_bits = context.span.Positions();

  // First-order span indicators.
  for (int b : span_bits) {
    f.AddNamed("span_" + std::to_string(b), 1.0);
  }
  // Second and third order co-occurrence indicators — "critical to our
  // success" (paper Sec. 6). Triples are capped to keep vectors small on
  // long-tailed spans.
  for (size_t i = 0; i < span_bits.size(); ++i) {
    for (size_t j = i + 1; j < span_bits.size(); ++j) {
      f.Add(0x40000000u ^ MixPair(Bit(span_bits[i]), Bit(span_bits[j])), 1.0);
    }
  }
  const size_t kTripleCap = 12;
  size_t n3 = std::min(span_bits.size(), kTripleCap);
  for (size_t i = 0; i < n3; ++i) {
    for (size_t j = i + 1; j < n3; ++j) {
      for (size_t k = j + 1; k < n3; ++k) {
        f.Add(0x80000000u ^ MixTriple(Bit(span_bits[i]), Bit(span_bits[j]),
                                      Bit(span_bits[k])),
              1.0);
      }
    }
  }
  // Input-stream properties give marginal improvement (Sec. 3.2).
  f.AddNamed("rowcount_b" + std::to_string(LogBucket(context.row_count)), 1.0);
  f.AddNamed("estcost_b" + std::to_string(LogBucket(context.est_cost)), 1.0);
  f.AddNamed("read_b" + std::to_string(LogBucket(context.bytes_read)), 1.0);
  f.AddNamed("vertices_b" +
                 std::to_string(LogBucket(context.total_vertices)),
             1.0);
  f.AddNamed("bias", 1.0);
  f.Canonicalize();
  return f;
}

FeatureVector BuildActionFeatures(int rule_id, bool is_noop) {
  FeatureVector f;
  if (is_noop) {
    f.AddNamed("action_noop", 1.0);
    return f;
  }
  f.AddNamed("action_rule_" + std::to_string(rule_id), 1.0);
  const auto& registry = opt::RuleRegistry::Get();
  f.AddNamed(std::string("action_cat_") +
                 opt::RuleCategoryToString(registry.category(rule_id)),
             1.0);
  f.Canonicalize();
  return f;
}

SparseVector CombineFeatures(const FeatureVector& shared,
                             const FeatureVector& action) {
  const size_t raw_size =
      shared.size() + action.size() + shared.size() * action.size();
  if (raw_size >= kArenaThreshold) {
    // Hot path (~2000 raw entries per combine): accumulate straight into
    // the per-thread arena — no intermediate pair vector, no sort pass.
    CombineArena& arena = ThreadArena();
    for (const auto& [i, v] : shared.entries) arena.Add(i, v);
    for (const auto& [i, v] : action.entries) arena.Add(i, v);
    // Quadratic shared x action interactions.
    for (const auto& [si, sv] : shared.entries) {
      for (const auto& [ai, av] : action.entries) {
        arena.Add(MixPair(si, ai) % FeatureVector::kDim, sv * av);
      }
    }
    return arena.Emit(raw_size);
  }
  std::vector<std::pair<uint32_t, double>> combined;
  combined.reserve(raw_size);
  for (const auto& [i, v] : shared.entries) combined.emplace_back(i, v);
  for (const auto& [i, v] : action.entries) combined.emplace_back(i, v);
  // Quadratic shared x action interactions.
  for (const auto& [si, sv] : shared.entries) {
    for (const auto& [ai, av] : action.entries) {
      combined.emplace_back(MixPair(si, ai) % FeatureVector::kDim, sv * av);
    }
  }
  return SparseVector::Canonicalize(std::move(combined));
}

std::shared_ptr<const SparseVector> CombineFeaturesShared(
    const FeatureVector& shared, const FeatureVector& action) {
  return std::make_shared<const SparseVector>(CombineFeatures(shared, action));
}

}  // namespace qo::bandit
