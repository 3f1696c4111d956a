// Cardinality derivation in two modes.
//
//  - kEstimated: what the optimizer believes. Uses the catalog's
//    optimizer-visible statistics and textbook independence/uniformity
//    heuristics (equality selectivity 1/NDV, range selectivity 1/3, ...).
//  - kTrue: ground truth used by the execution simulator. Uses the catalog's
//    true statistics plus the `@`-annotations embedded in scripts (predicate
//    selectivities, join fanouts).
//
// The deliberate divergence between the two modes reproduces the paper's
// Sec. 5.2 finding that estimated cost improvements do not reliably predict
// runtime improvements.
//
// Column identity is interned: NDV maps are keyed by `Symbol` ids and the
// derivation methods take ids, so the memo's per-expression stats work is
// integer probes. String overloads intern-and-delegate for callers that
// still hold names (tests, diagnostics).
#ifndef QO_OPTIMIZER_CARDINALITY_H_
#define QO_OPTIMIZER_CARDINALITY_H_

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/symbol_table.h"
#include "scope/ast.h"
#include "scope/catalog.h"
#include "scope/types.h"

namespace qo::opt {

enum class StatsMode {
  kEstimated,
  kTrue,
};

/// Flat map Symbol -> double in structure-of-arrays form: a sorted symbol
/// column and a parallel value column. Relations carry a handful of
/// columns, so binary-searched vectors beat hash tables on both probes and
/// — the hot part — the whole-map copies stats derivation does for every
/// memo group. The split layout additionally lets the NDV cap sweep the
/// dense value column in place and lets Join/UnionAll run sorted
/// two-pointer merges over the key columns instead of per-key
/// binary-search inserts. Every derivation writes each key's value
/// independently (no cross-entry accumulation), so the change of iteration
/// order relative to the hash map this replaced cannot change any output.
class NdvMap {
 public:
  /// Sorted symbol column.
  const std::vector<Symbol>& keys() const { return keys_; }
  /// Value column parallel to `keys()`.
  const std::vector<double>& values() const { return values_; }
  size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }

  /// The value for `key`, or null when absent.
  const double* Find(Symbol key) const {
    size_t pos = LowerBound(key);
    return pos < keys_.size() && keys_[pos] == key ? &values_[pos] : nullptr;
  }

  size_t count(Symbol key) const { return Find(key) != nullptr ? 1 : 0; }

  /// Insert-or-find, keeping the columns sorted (new keys start at 0.0).
  double& operator[](Symbol key) {
    size_t pos = LowerBound(key);
    if (pos < keys_.size() && keys_[pos] == key) return values_[pos];
    keys_.insert(keys_.begin() + static_cast<ptrdiff_t>(pos), key);
    return *values_.insert(values_.begin() + static_cast<ptrdiff_t>(pos),
                           0.0);
  }

  void Reserve(size_t n) {
    keys_.reserve(n);
    values_.reserve(n);
  }

  /// Appends an entry; `key` must be strictly greater than every present
  /// key (the merge-based derivations emit in sorted order).
  void AppendSorted(Symbol key, double value) {
    keys_.push_back(key);
    values_.push_back(value);
  }

  /// Raw value column for in-place updates (the NDV cap). The caller must
  /// not reorder entries.
  double* MutableValues() { return values_.data(); }

 private:
  size_t LowerBound(Symbol key) const {
    return static_cast<size_t>(
        std::lower_bound(keys_.begin(), keys_.end(), key) - keys_.begin());
  }

  std::vector<Symbol> keys_;
  std::vector<double> values_;
};

/// Derived relational properties of an operator output.
struct RelStats {
  double rows = 0.0;
  /// Per-output-column distinct value counts (capped at `rows`), keyed by
  /// the column's interned OutputName.
  NdvMap ndv;

  double NdvOf(Symbol column) const {
    const double* n = ndv.Find(column);
    return n == nullptr ? rows : *n;
  }
  double NdvOf(const std::string& column) const { return NdvOf(Sym(column)); }
};

/// Stateless derivation engine; one instance per (catalog, mode).
class StatsDeriver {
 public:
  StatsDeriver(const scope::Catalog& catalog, StatsMode mode)
      : catalog_(catalog), mode_(mode) {}

  StatsMode mode() const { return mode_; }

  RelStats Scan(Symbol table_path, const scope::Schema& schema) const;
  RelStats Scan(const std::string& table_path,
                const scope::Schema& schema) const {
    return Scan(Sym(table_path), schema);
  }

  RelStats Filter(const RelStats& input,
                  const std::vector<scope::Predicate>& predicates) const;

  RelStats Project(const RelStats& input,
                   const std::vector<scope::SelectItem>& projections) const;

  /// Inner equi-join. `true_fanout` is consulted only in kTrue mode.
  RelStats Join(const RelStats& left, const RelStats& right, Symbol left_key,
                Symbol right_key, double true_fanout) const;
  RelStats Join(const RelStats& left, const RelStats& right,
                const std::string& left_key, const std::string& right_key,
                double true_fanout) const {
    return Join(left, right, Sym(left_key), Sym(right_key), true_fanout);
  }

  RelStats Aggregate(const RelStats& input,
                     const std::vector<Symbol>& group_by,
                     const std::vector<scope::SelectItem>& aggs) const;
  RelStats Aggregate(const RelStats& input,
                     const std::vector<std::string>& group_by,
                     const std::vector<scope::SelectItem>& aggs) const {
    return Aggregate(input, InternAll(group_by), aggs);
  }

  /// Local pre-aggregation over `partitions` partitions: each partition can
  /// emit at most the full group count, so output = min(rows, groups * P).
  RelStats PartialAggregate(const RelStats& input,
                            const std::vector<Symbol>& group_by,
                            int partitions) const;
  RelStats PartialAggregate(const RelStats& input,
                            const std::vector<std::string>& group_by,
                            int partitions) const {
    return PartialAggregate(input, InternAll(group_by), partitions);
  }

  RelStats UnionAll(const RelStats& left, const RelStats& right) const;

  /// Selectivity of one predicate under this mode.
  double PredicateSelectivity(const scope::Predicate& pred,
                              const RelStats& input) const;

 private:
  static std::vector<Symbol> InternAll(const std::vector<std::string>& names) {
    std::vector<Symbol> syms;
    syms.reserve(names.size());
    for (const auto& n : names) syms.push_back(Sym(n));
    return syms;
  }

  const scope::Catalog& catalog_;
  StatsMode mode_;
};

}  // namespace qo::opt

#endif  // QO_OPTIMIZER_CARDINALITY_H_
