#include "scope/catalog.h"

#include <algorithm>

#include "common/hash.h"

namespace qo::scope {

namespace {

/// Content hash of one interned table entry. Mixes interned ids instead of
/// hashing path/column bytes; equal strings share one global id, so content
/// equality is preserved within a process. Avalanched so entries can be
/// combined (and incrementally removed) with plain + / - arithmetic.
uint64_t TableHash(Symbol path, const TableStats& stats,
                   const std::vector<Symbol>& col_syms,
                   const std::vector<ColumnStats>& col_stats) {
  uint64_t t = HashU64(path, 0xcafef00dd15ea5e5ULL);
  t = HashDouble(stats.true_rows, t);
  t = HashDouble(stats.est_rows, t);
  t = HashDouble(stats.avg_row_bytes, t);
  uint64_t cols = col_syms.size();
  // Column order must not matter: combine with +.
  for (size_t i = 0; i < col_syms.size(); ++i) {
    uint64_t c = HashU64(col_syms[i], 0xc01d57a75ULL);
    c = HashDouble(col_stats[i].true_ndv, c);
    c = HashDouble(col_stats[i].est_ndv, c);
    cols += MixHash(c);
  }
  t = HashU64(cols, t);
  return MixHash(t);
}

}  // namespace

void Catalog::RegisterTable(const std::string& path, TableStats stats) {
  InternedTable entry;
  entry.path = Sym(path);
  entry.col_syms.reserve(stats.columns.size());
  for (const auto& [column, cstats] : stats.columns) {
    entry.col_syms.push_back(Sym(column));
  }
  std::sort(entry.col_syms.begin(), entry.col_syms.end());
  entry.col_stats.resize(entry.col_syms.size());
  for (const auto& [column, cstats] : stats.columns) {
    size_t idx = static_cast<size_t>(
        std::lower_bound(entry.col_syms.begin(), entry.col_syms.end(),
                         Sym(column)) -
        entry.col_syms.begin());
    entry.col_stats[idx] = cstats;
  }
  entry.stats = std::move(stats);
  entry.content_hash =
      TableHash(entry.path, entry.stats, entry.col_syms, entry.col_stats);

  // Maintain the fingerprint sum incrementally: the compile path reads
  // StatsFingerprint once per cache lookup, so it must stay O(1) there.
  if (entry.path >= slot_by_sym_.size()) {
    slot_by_sym_.resize(entry.path + 1, -1);
  }
  int32_t slot = slot_by_sym_[entry.path];
  if (slot >= 0) {
    fingerprint_sum_ -= tables_[static_cast<size_t>(slot)].content_hash;
    fingerprint_sum_ += entry.content_hash;
    tables_[static_cast<size_t>(slot)] = std::move(entry);
    return;
  }
  slot_by_sym_[entry.path] = static_cast<int32_t>(tables_.size());
  fingerprint_sum_ += entry.content_hash;
  tables_.push_back(std::move(entry));
}

Result<const TableStats*> Catalog::Lookup(Symbol path) const {
  const InternedTable* t = FindTable(path);
  if (t == nullptr) {
    return Status::NotFound("table not in catalog: " + SymName(path));
  }
  return &t->stats;
}

uint64_t Catalog::StatsFingerprint() const {
  // Registration order must not matter: fingerprint_sum_ is a commutative
  // sum of per-entry hashes, so the result is a pure function of content.
  return MixHash(0x9e3779b97f4a7c15ULL + tables_.size() + fingerprint_sum_);
}

const ColumnStats& Catalog::LookupColumn(Symbol path, Symbol column) const {
  static const ColumnStats kDefaultColumnStats{};
  const InternedTable* t = FindTable(path);
  if (t == nullptr) return kDefaultColumnStats;
  auto it = std::lower_bound(t->col_syms.begin(), t->col_syms.end(), column);
  if (it == t->col_syms.end() || *it != column) return kDefaultColumnStats;
  return t->col_stats[static_cast<size_t>(it - t->col_syms.begin())];
}

}  // namespace qo::scope
