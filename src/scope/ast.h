// Abstract syntax tree for the SCOPE-like scripting language.
//
// A script ("job") is a sequence of statements. Rowset-producing statements
// bind a name that later statements can reference, which is how multiple SQL
// statements are stitched into a single operator DAG by the compiler.
// Rowset binding names stay strings (they never reach a plan); every other
// name — paths, columns, aliases, literals — is interned by the parser.
//
// Grammar sketch (see parser.cc for the full recursive-descent grammar):
//
//   script     := statement+
//   statement  := extract | assign | output
//   extract    := id '=' 'EXTRACT' cols 'FROM' string ';'
//   assign     := id '=' select ';'
//   select     := 'SELECT' selectList 'FROM' source (join)* (where)?
//                 (groupBy)? | source 'UNION' 'ALL' source
//   output     := 'OUTPUT' id 'TO' string ';'
#ifndef QO_SCOPE_AST_H_
#define QO_SCOPE_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "scope/types.h"

namespace qo::scope {

/// Aggregate functions available in the select list.
enum class AggFunc {
  kNone,  ///< plain column reference / expression
  kSum,
  kCount,
  kMin,
  kMax,
  kAvg,
};

const char* AggFuncToString(AggFunc f);

/// Comparison operators usable in WHERE predicates and join conditions.
enum class CompareOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
};

const char* CompareOpToString(CompareOp op);

/// A single conjunct `column <op> literal` in a WHERE clause. The literal is
/// kept as its interned source text plus an optional selectivity
/// annotation: the synthetic workload generator knows the ground-truth
/// selectivity of each predicate and embeds it as `@sel` so the execution
/// simulator can compute true cardinalities while the optimizer only sees
/// estimated statistics.
struct Predicate {
  Symbol column = kSymEmpty;
  CompareOp op = CompareOp::kEq;
  Symbol literal = kSymEmpty;
  /// Ground-truth fraction of rows passing; < 0 means unknown (the simulator
  /// falls back to catalog heuristics).
  double true_selectivity = -1.0;

  std::string ToString() const;
};

/// One item of a SELECT list: optional aggregate over a column, with an
/// optional output alias. `column == kSymStar` with kNone denotes "all
/// columns"; `column == kSymStar` with kCount denotes COUNT(*).
struct SelectItem {
  /// The one way to build an item: precomputes `output`.
  SelectItem(AggFunc agg, Symbol column, Symbol alias = kSymEmpty);

  AggFunc agg = AggFunc::kNone;
  Symbol column = kSymEmpty;
  Symbol alias = kSymEmpty;  ///< kSymEmpty = inherit the column name
  /// The output column name: alias, else "AGG_column" for aggregates, else
  /// the column. Name matching is one integer compare.
  Symbol output = kSymEmpty;

  std::string ToString() const;
};

/// Equi-join clause: `JOIN <rowset> ON <left_col> == <right_col> [@ fanout]`.
/// The optional `@ fanout` annotation records the ground-truth join fanout
/// (output rows per left input row) for the execution simulator; the
/// optimizer never reads it. Default 1.0 models a foreign-key join.
struct JoinClause {
  std::string rowset;
  Symbol left_column = kSymEmpty;
  Symbol right_column = kSymEmpty;
  double true_fanout = 1.0;
};

/// Statement kinds.
enum class StatementKind {
  kExtract,
  kSelect,
  kUnion,
  kOutput,
};

/// `rs = EXTRACT a:int, b:string FROM "path";`
struct ExtractStatement {
  std::string target;
  std::vector<Column> columns;
  Symbol input_path = kSymEmpty;
};

/// `rs = SELECT ... FROM src [JOIN r ON a == b]* [WHERE preds] [GROUP BY c,...];`
struct SelectStatement {
  std::string target;
  std::vector<SelectItem> items;
  std::string from;
  std::vector<JoinClause> joins;
  std::vector<Predicate> where;  ///< conjunctive predicates
  std::vector<Symbol> group_by;
};

/// `rs = left UNION ALL right;`
struct UnionStatement {
  std::string target;
  std::string left;
  std::string right;
};

/// `OUTPUT rs TO "path";`
struct OutputStatement {
  std::string source;
  Symbol output_path = kSymEmpty;
};

/// A single parsed statement (tagged union).
struct Statement {
  StatementKind kind = StatementKind::kExtract;
  ExtractStatement extract;
  SelectStatement select;
  UnionStatement union_stmt;
  OutputStatement output;
  int line = 0;  ///< 1-based source line for diagnostics
};

/// A full parsed script.
struct Script {
  std::vector<Statement> statements;

  size_t OutputCount() const {
    size_t n = 0;
    for (const auto& s : statements) {
      if (s.kind == StatementKind::kOutput) ++n;
    }
    return n;
  }
};

}  // namespace qo::scope

#endif  // QO_SCOPE_AST_H_
