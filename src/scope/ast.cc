#include "scope/ast.h"

namespace qo::scope {

const char* AggFuncToString(AggFunc f) {
  switch (f) {
    case AggFunc::kNone:
      return "";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
    case AggFunc::kAvg:
      return "AVG";
  }
  return "";
}

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "==";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

std::string Predicate::ToString() const {
  std::string out = SymName(column);
  out += ' ';
  out += CompareOpToString(op);
  out += ' ';
  out += SymName(literal);
  return out;
}

SelectItem::SelectItem(AggFunc agg, Symbol column, Symbol alias)
    : agg(agg), column(column), alias(alias), output(alias) {
  if (alias != kSymEmpty) return;
  if (agg == AggFunc::kNone) {
    output = column;
    return;
  }
  std::string name = AggFuncToString(agg);
  name += '_';
  name += SymName(column);
  output = Sym(name);
}

std::string SelectItem::ToString() const {
  std::string out;
  if (agg != AggFunc::kNone) {
    out = AggFuncToString(agg);
    out += '(';
    out += SymName(column);
    out += ')';
  } else {
    out = SymName(column);
  }
  if (alias != kSymEmpty) {
    out += " AS ";
    out += SymName(alias);
  }
  return out;
}

}  // namespace qo::scope
