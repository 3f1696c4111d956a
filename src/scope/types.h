// Core value/schema types for the SCOPE-like scripting language.
#ifndef QO_SCOPE_TYPES_H_
#define QO_SCOPE_TYPES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/symbol_table.h"

namespace qo::scope {

/// Column data types supported by the script language.
enum class ColumnType {
  kInt,
  kLong,
  kDouble,
  kString,
  kBool,
};

const char* ColumnTypeToString(ColumnType t);

/// Parses a type name ("int", "long", "double", "string", "bool"); returns
/// false if unknown.
bool ParseColumnType(std::string_view name, ColumnType* out);

/// Typical serialized width in bytes, used by the statistics layer.
int ColumnTypeWidth(ColumnType t);

/// A named, typed column. `name` is the interned column name.
struct Column {
  Symbol name = kSymEmpty;
  ColumnType type = ColumnType::kString;

  bool operator==(const Column& o) const = default;
};

/// Ordered list of columns carried by a rowset.
struct Schema {
  std::vector<Column> columns;

  int FindColumn(Symbol name) const {
    for (size_t i = 0; i < columns.size(); ++i) {
      if (columns[i].name == name) return static_cast<int>(i);
    }
    return -1;
  }
  bool HasColumn(Symbol name) const { return FindColumn(name) >= 0; }
  size_t size() const { return columns.size(); }

  /// Sum of per-column type widths: the average row length implied by types.
  double RowWidthBytes() const {
    double w = 0;
    for (const auto& c : columns) w += ColumnTypeWidth(c.type);
    return w;
  }

  std::string ToString() const;

  bool operator==(const Schema& o) const { return columns == o.columns; }
};

}  // namespace qo::scope

#endif  // QO_SCOPE_TYPES_H_
