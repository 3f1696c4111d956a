#include "scope/parser.h"

#include <cstdlib>

#include "scope/lexer.h"

namespace qo::scope {

namespace {

/// Token cursor with error helpers.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Script> Parse() {
    Script script;
    while (!Peek().IsEnd()) {
      auto stmt = ParseStatement();
      if (!stmt.ok()) return stmt.status();
      script.statements.push_back(std::move(stmt).value());
    }
    if (script.statements.empty()) {
      return Status::ParseError("empty script");
    }
    return script;
  }

 private:
  struct TokenView {
    const Token* t;
    bool IsEnd() const { return t->kind == TokenKind::kEnd; }
  };

  TokenView Peek(size_t ahead = 0) const {
    size_t idx = pos_ + ahead;
    if (idx >= tokens_.size()) idx = tokens_.size() - 1;
    return TokenView{&tokens_[idx]};
  }
  const Token& Advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }

  bool MatchSymbol(const char* sym) {
    if (Peek().t->IsSymbol(sym)) {
      Advance();
      return true;
    }
    return false;
  }
  bool MatchKeyword(const char* kw) {
    if (Peek().t->IsKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }

  Status ExpectSymbol(const char* sym) {
    if (!MatchSymbol(sym)) {
      return Errorf(std::string("expected '") + sym + "'");
    }
    return Status::OK();
  }
  Status ExpectKeyword(const char* kw) {
    if (!MatchKeyword(kw)) {
      return Errorf(std::string("expected ") + kw);
    }
    return Status::OK();
  }

  Result<std::string> ExpectIdentifier() {
    if (Peek().t->kind != TokenKind::kIdentifier) {
      return Errorf("expected identifier");
    }
    return Advance().text;
  }
  /// An identifier naming a column or alias, interned as it is read.
  Result<Symbol> ExpectName() {
    QO_ASSIGN_OR_RETURN(std::string text, ExpectIdentifier());
    return Sym(text);
  }
  /// A string literal naming a path, interned as it is read.
  Result<Symbol> ExpectPath() {
    if (Peek().t->kind != TokenKind::kString) {
      return Errorf("expected string literal");
    }
    return Sym(Advance().text);
  }

  Status Errorf(const std::string& msg) {
    return Status::ParseError(msg + " at line " +
                              std::to_string(Peek().t->line) + " (got '" +
                              Peek().t->text + "')");
  }

  Result<Statement> ParseStatement() {
    Statement stmt;
    stmt.line = Peek().t->line;
    if (Peek().t->IsKeyword("OUTPUT")) {
      Advance();
      stmt.kind = StatementKind::kOutput;
      QO_ASSIGN_OR_RETURN(stmt.output.source, ExpectIdentifier());
      QO_RETURN_IF_ERROR(ExpectKeyword("TO"));
      QO_ASSIGN_OR_RETURN(stmt.output.output_path, ExpectPath());
      QO_RETURN_IF_ERROR(ExpectSymbol(";"));
      return stmt;
    }
    // Assignment forms: target = EXTRACT ... | SELECT ... | src UNION ALL src
    QO_ASSIGN_OR_RETURN(std::string target, ExpectIdentifier());
    QO_RETURN_IF_ERROR(ExpectSymbol("="));
    if (Peek().t->IsKeyword("EXTRACT")) {
      Advance();
      stmt.kind = StatementKind::kExtract;
      stmt.extract.target = target;
      QO_RETURN_IF_ERROR(ParseExtractColumns(&stmt.extract.columns));
      QO_RETURN_IF_ERROR(ExpectKeyword("FROM"));
      QO_ASSIGN_OR_RETURN(stmt.extract.input_path, ExpectPath());
      QO_RETURN_IF_ERROR(ExpectSymbol(";"));
      return stmt;
    }
    if (Peek().t->IsKeyword("SELECT")) {
      Advance();
      stmt.kind = StatementKind::kSelect;
      stmt.select.target = target;
      QO_RETURN_IF_ERROR(ParseSelectBody(&stmt.select));
      QO_RETURN_IF_ERROR(ExpectSymbol(";"));
      return stmt;
    }
    if (Peek().t->kind == TokenKind::kIdentifier) {
      // rs = left UNION ALL right;
      stmt.kind = StatementKind::kUnion;
      stmt.union_stmt.target = target;
      QO_ASSIGN_OR_RETURN(stmt.union_stmt.left, ExpectIdentifier());
      QO_RETURN_IF_ERROR(ExpectKeyword("UNION"));
      QO_RETURN_IF_ERROR(ExpectKeyword("ALL"));
      QO_ASSIGN_OR_RETURN(stmt.union_stmt.right, ExpectIdentifier());
      QO_RETURN_IF_ERROR(ExpectSymbol(";"));
      return stmt;
    }
    return Errorf("expected EXTRACT, SELECT or rowset name");
  }

  Status ParseExtractColumns(std::vector<Column>* out) {
    while (true) {
      Column col;
      QO_ASSIGN_OR_RETURN(col.name, ExpectName());
      QO_RETURN_IF_ERROR(ExpectSymbol(":"));
      auto type_name = ExpectIdentifier();
      if (!type_name.ok()) return type_name.status();
      if (!ParseColumnType(type_name.value(), &col.type)) {
        return Errorf("unknown type '" + type_name.value() + "'");
      }
      out->push_back(std::move(col));
      if (!MatchSymbol(",")) break;
    }
    if (out->empty()) return Errorf("EXTRACT requires at least one column");
    return Status::OK();
  }

  Status ParseSelectBody(SelectStatement* sel) {
    // Select list.
    while (true) {
      AggFunc agg = AggFunc::kNone;
      Symbol column = kSymStar;
      if (!MatchSymbol("*")) {
        auto word = ExpectIdentifier();
        if (!word.ok()) return word.status();
        std::string text = std::move(word).value();
        AggFunc named;
        if (IsAggName(text, &named) && Peek().t->IsSymbol("(")) {
          Advance();  // (
          agg = named;
          if (!MatchSymbol("*")) {
            QO_ASSIGN_OR_RETURN(column, ExpectName());
          }
          QO_RETURN_IF_ERROR(ExpectSymbol(")"));
        } else {
          column = Sym(text);
        }
      }
      Symbol alias = kSymEmpty;
      if (MatchKeyword("AS")) {
        QO_ASSIGN_OR_RETURN(alias, ExpectName());
      }
      sel->items.emplace_back(agg, column, alias);
      if (!MatchSymbol(",")) break;
    }
    QO_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    QO_ASSIGN_OR_RETURN(sel->from, ExpectIdentifier());
    // Joins.
    while (MatchKeyword("JOIN")) {
      JoinClause jc;
      QO_ASSIGN_OR_RETURN(jc.rowset, ExpectIdentifier());
      QO_RETURN_IF_ERROR(ExpectKeyword("ON"));
      QO_ASSIGN_OR_RETURN(jc.left_column, ExpectName());
      QO_RETURN_IF_ERROR(ExpectSymbol("=="));
      QO_ASSIGN_OR_RETURN(jc.right_column, ExpectName());
      if (MatchSymbol("@")) {
        if (Peek().t->kind != TokenKind::kNumber) {
          return Errorf("expected fanout number after '@'");
        }
        jc.true_fanout = std::strtod(Advance().text.c_str(), nullptr);
        if (jc.true_fanout < 0.0) {
          return Errorf("join fanout must be non-negative");
        }
      }
      sel->joins.push_back(std::move(jc));
    }
    // WHERE conjuncts.
    if (MatchKeyword("WHERE")) {
      while (true) {
        Predicate pred;
        QO_ASSIGN_OR_RETURN(pred.column, ExpectName());
        QO_RETURN_IF_ERROR(ParseCompareOp(&pred.op));
        QO_RETURN_IF_ERROR(ParseLiteral(&pred.literal));
        if (MatchSymbol("@")) {
          if (Peek().t->kind != TokenKind::kNumber) {
            return Errorf("expected selectivity number after '@'");
          }
          pred.true_selectivity = std::strtod(Advance().text.c_str(), nullptr);
          if (pred.true_selectivity < 0.0 || pred.true_selectivity > 1.0) {
            return Errorf("selectivity must be within [0, 1]");
          }
        }
        sel->where.push_back(std::move(pred));
        if (!MatchKeyword("AND")) break;
      }
    }
    // GROUP BY.
    if (MatchKeyword("GROUP")) {
      QO_RETURN_IF_ERROR(ExpectKeyword("BY"));
      while (true) {
        QO_ASSIGN_OR_RETURN(Symbol col, ExpectName());
        sel->group_by.push_back(col);
        if (!MatchSymbol(",")) break;
      }
    }
    return Status::OK();
  }

  Status ParseCompareOp(CompareOp* op) {
    const Token& t = *Peek().t;
    if (t.kind != TokenKind::kSymbol) return Errorf("expected comparison");
    if (t.text == "==") {
      *op = CompareOp::kEq;
    } else if (t.text == "!=") {
      *op = CompareOp::kNe;
    } else if (t.text == "<") {
      *op = CompareOp::kLt;
    } else if (t.text == "<=") {
      *op = CompareOp::kLe;
    } else if (t.text == ">") {
      *op = CompareOp::kGt;
    } else if (t.text == ">=") {
      *op = CompareOp::kGe;
    } else {
      return Errorf("expected comparison operator");
    }
    Advance();
    return Status::OK();
  }

  Status ParseLiteral(Symbol* out) {
    const Token& t = *Peek().t;
    if (t.kind == TokenKind::kNumber || t.kind == TokenKind::kString ||
        t.kind == TokenKind::kIdentifier) {
      *out = Sym(Advance().text);
      return Status::OK();
    }
    return Errorf("expected literal");
  }

  static bool IsAggName(const std::string& word, AggFunc* out) {
    std::string upper;
    for (char c : word) {
      upper.push_back(static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
    }
    if (upper == "SUM") {
      *out = AggFunc::kSum;
    } else if (upper == "COUNT") {
      *out = AggFunc::kCount;
    } else if (upper == "MIN") {
      *out = AggFunc::kMin;
    } else if (upper == "MAX") {
      *out = AggFunc::kMax;
    } else if (upper == "AVG") {
      *out = AggFunc::kAvg;
    } else {
      return false;
    }
    return true;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Script> ParseScript(const std::string& source) {
  auto tokens = Tokenize(source);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value());
  return parser.Parse();
}

}  // namespace qo::scope
