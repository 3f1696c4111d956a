// Process-wide string interning.
//
// Every name in the compile path (table paths, columns, aliases, literals,
// join and group-by keys, output paths, exchange keys) is a `Symbol`: a
// dense uint32 id assigned by the global `SymbolTable`. The parser interns
// each identifier once, as it reads it; from there on plans carry only ids,
// so every name compare/hash is a single integer compare/mix. Text comes
// back only where it leaves the program, through `SymName` (plan dumps,
// compile errors, rendered scripts).
//
// Ids are assigned in first-intern order and are therefore *not* stable
// across processes or thread interleavings — nothing may order results by
// id value, hash ids into output, or persist ids. Outputs render names via
// `SymName`, which keeps every printed plan and figure byte-identical at
// any thread count.
#ifndef QO_COMMON_SYMBOL_TABLE_H_
#define QO_COMMON_SYMBOL_TABLE_H_

#include <cstdint>
#include <deque>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace qo {

using Symbol = uint32_t;

/// Sentinel for "no id": what `SymbolTable::Find` returns for a string that
/// was never interned.
inline constexpr Symbol kNoSymbol = 0xffffffffu;
/// Pre-interned constants (registered by the table's constructor, in order).
inline constexpr Symbol kSymEmpty = 0;  ///< ""
inline constexpr Symbol kSymStar = 1;   ///< "*"

/// Append-only, thread-safe intern table. Interning is off the per-probe
/// hot path (done once per parsed name / registered catalog); lookups by
/// id take a shared lock only because the deque's block map may grow
/// concurrently.
class SymbolTable {
 public:
  SymbolTable();

  /// The process-wide table used by all interning helpers.
  static SymbolTable& Global();

  /// Returns the id for `text`, assigning the next dense id on first use.
  Symbol Intern(std::string_view text);

  /// The id for `text` if it was ever interned, kNoSymbol otherwise. Never
  /// grows the table — the probe for "was this string ever assigned an id"
  /// (e.g. a reward join keyed by an event id the caller typed wrong).
  Symbol Find(std::string_view text) const;

  /// The string for an id previously returned by Intern. Returned reference
  /// stays valid for the table's lifetime (strings are never removed).
  const std::string& Resolve(Symbol id) const;

  /// Number of distinct strings interned so far.
  size_t size() const;

 private:
  mutable std::shared_mutex mu_;
  // deque: growing never moves existing strings, so Resolve can hand out
  // stable references.
  std::deque<std::string> strings_;
  std::unordered_map<std::string_view, Symbol> index_;  // views into strings_
};

/// Interns into the global table.
inline Symbol Sym(std::string_view text) {
  return SymbolTable::Global().Intern(text);
}

/// Resolves from the global table.
inline const std::string& SymName(Symbol id) {
  return SymbolTable::Global().Resolve(id);
}

}  // namespace qo

#endif  // QO_COMMON_SYMBOL_TABLE_H_
