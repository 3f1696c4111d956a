#include "scope/parser.h"

#include <string>
#include <string_view>
#include <utility>

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

  template <typename Enum>
  bool Match(Enum e) {
    if (Peek().t->Is(e)) {
      Advance();
      return true;
    }
    return false;
  }

  Status Expect(Punct p) {
    if (Match(p)) return Status::OK();
    std::string msg = "expected '";
    msg += PunctText(p);
    msg += '\'';
    return Errorf(std::move(msg));
  }
  Status Expect(Keyword kw) {
    if (Match(kw)) return Status::OK();
    std::string msg = "expected ";
    msg += KeywordText(kw);
    return Errorf(std::move(msg));
  }

  /// An identifier's text, viewing the source.
  Result<std::string_view> ExpectWord() {
    if (Peek().t->kind != TokenKind::kIdentifier) {
      return Errorf("expected identifier");
    }
    return Advance().text;
  }
  /// An identifier naming a rowset binding.
  Result<std::string> ExpectIdentifier() {
    QO_ASSIGN_OR_RETURN(std::string_view text, ExpectWord());
    return std::string(text);
  }
  /// An identifier naming a column or alias, interned as it is read.
  Result<Symbol> ExpectName() {
    QO_ASSIGN_OR_RETURN(std::string_view text, ExpectWord());
    return Sym(text);
  }
  /// A string literal naming a path, interned as it is read.
  Result<Symbol> ExpectPath() {
    if (Peek().t->kind != TokenKind::kString) {
      return Errorf("expected string literal");
    }
    return Sym(Advance().text);
  }

  Status Errorf(std::string msg) {
    msg += " at line ";
    msg += std::to_string(Peek().t->line);
    msg += " (got '";
    msg += Peek().t->text;
    msg += "')";
    return Status::ParseError(msg);
  }

  Result<Statement> ParseStatement() {
    Statement stmt;
    stmt.line = Peek().t->line;
    if (Peek().t->Is(Keyword::kOutput)) {
      Advance();
      stmt.kind = StatementKind::kOutput;
      QO_ASSIGN_OR_RETURN(stmt.output.source, ExpectIdentifier());
      QO_RETURN_IF_ERROR(Expect(Keyword::kTo));
      QO_ASSIGN_OR_RETURN(stmt.output.output_path, ExpectPath());
      QO_RETURN_IF_ERROR(Expect(Punct::kSemicolon));
      return stmt;
    }
    // Assignment forms: target = EXTRACT ... | SELECT ... | src UNION ALL src
    QO_ASSIGN_OR_RETURN(std::string target, ExpectIdentifier());
    QO_RETURN_IF_ERROR(Expect(Punct::kAssign));
    if (Peek().t->Is(Keyword::kExtract)) {
      Advance();
      stmt.kind = StatementKind::kExtract;
      stmt.extract.target = target;
      QO_RETURN_IF_ERROR(ParseExtractColumns(&stmt.extract.columns));
      QO_RETURN_IF_ERROR(Expect(Keyword::kFrom));
      QO_ASSIGN_OR_RETURN(stmt.extract.input_path, ExpectPath());
      QO_RETURN_IF_ERROR(Expect(Punct::kSemicolon));
      return stmt;
    }
    if (Peek().t->Is(Keyword::kSelect)) {
      Advance();
      stmt.kind = StatementKind::kSelect;
      stmt.select.target = target;
      QO_RETURN_IF_ERROR(ParseSelectBody(&stmt.select));
      QO_RETURN_IF_ERROR(Expect(Punct::kSemicolon));
      return stmt;
    }
    if (Peek().t->kind == TokenKind::kIdentifier) {
      // rs = left UNION ALL right;
      stmt.kind = StatementKind::kUnion;
      stmt.union_stmt.target = target;
      QO_ASSIGN_OR_RETURN(stmt.union_stmt.left, ExpectIdentifier());
      QO_RETURN_IF_ERROR(Expect(Keyword::kUnion));
      QO_RETURN_IF_ERROR(Expect(Keyword::kAll));
      QO_ASSIGN_OR_RETURN(stmt.union_stmt.right, ExpectIdentifier());
      QO_RETURN_IF_ERROR(Expect(Punct::kSemicolon));
      return stmt;
    }
    return Errorf("expected EXTRACT, SELECT or rowset name");
  }

  Status ParseExtractColumns(std::vector<Column>* out) {
    while (true) {
      Column col;
      QO_ASSIGN_OR_RETURN(col.name, ExpectName());
      QO_RETURN_IF_ERROR(Expect(Punct::kColon));
      QO_ASSIGN_OR_RETURN(std::string_view type_name, ExpectWord());
      if (!ParseColumnType(type_name, &col.type)) {
        std::string msg = "unknown type '";
        msg += type_name;
        msg += '\'';
        return Errorf(std::move(msg));
      }
      out->push_back(std::move(col));
      if (!Match(Punct::kComma)) break;
    }
    if (out->empty()) return Errorf("EXTRACT requires at least one column");
    return Status::OK();
  }

  Status ParseSelectBody(SelectStatement* sel) {
    // Select list.
    while (true) {
      AggFunc agg = AggFunc::kNone;
      Symbol column = kSymStar;
      if (!Match(Punct::kStar)) {
        QO_ASSIGN_OR_RETURN(std::string_view text, ExpectWord());
        AggFunc named;
        if (IsAggName(text, &named) && Peek().t->Is(Punct::kLParen)) {
          Advance();  // (
          agg = named;
          if (!Match(Punct::kStar)) {
            QO_ASSIGN_OR_RETURN(column, ExpectName());
          }
          QO_RETURN_IF_ERROR(Expect(Punct::kRParen));
        } else {
          column = Sym(text);
        }
      }
      Symbol alias = kSymEmpty;
      if (Match(Keyword::kAs)) {
        QO_ASSIGN_OR_RETURN(alias, ExpectName());
      }
      sel->items.emplace_back(agg, column, alias);
      if (!Match(Punct::kComma)) break;
    }
    QO_RETURN_IF_ERROR(Expect(Keyword::kFrom));
    QO_ASSIGN_OR_RETURN(sel->from, ExpectIdentifier());
    // Joins.
    while (Match(Keyword::kJoin)) {
      JoinClause jc;
      QO_ASSIGN_OR_RETURN(jc.rowset, ExpectIdentifier());
      QO_RETURN_IF_ERROR(Expect(Keyword::kOn));
      QO_ASSIGN_OR_RETURN(jc.left_column, ExpectName());
      QO_RETURN_IF_ERROR(Expect(Punct::kEq));
      QO_ASSIGN_OR_RETURN(jc.right_column, ExpectName());
      if (Match(Punct::kAt)) {
        if (Peek().t->kind != TokenKind::kNumber) {
          return Errorf("expected fanout number after '@'");
        }
        jc.true_fanout = Advance().number;
        if (jc.true_fanout < 0.0) {
          return Errorf("join fanout must be non-negative");
        }
      }
      sel->joins.push_back(std::move(jc));
    }
    // WHERE conjuncts.
    if (Match(Keyword::kWhere)) {
      while (true) {
        Predicate pred;
        QO_ASSIGN_OR_RETURN(pred.column, ExpectName());
        QO_RETURN_IF_ERROR(ParseCompareOp(&pred.op));
        QO_RETURN_IF_ERROR(ParseLiteral(&pred.literal));
        if (Match(Punct::kAt)) {
          if (Peek().t->kind != TokenKind::kNumber) {
            return Errorf("expected selectivity number after '@'");
          }
          pred.true_selectivity = Advance().number;
          if (pred.true_selectivity < 0.0 || pred.true_selectivity > 1.0) {
            return Errorf("selectivity must be within [0, 1]");
          }
        }
        sel->where.push_back(std::move(pred));
        if (!Match(Keyword::kAnd)) break;
      }
    }
    // GROUP BY.
    if (Match(Keyword::kGroup)) {
      QO_RETURN_IF_ERROR(Expect(Keyword::kBy));
      while (true) {
        QO_ASSIGN_OR_RETURN(Symbol col, ExpectName());
        sel->group_by.push_back(col);
        if (!Match(Punct::kComma)) break;
      }
    }
    return Status::OK();
  }

  Status ParseCompareOp(CompareOp* op) {
    const Token& t = *Peek().t;
    if (t.kind != TokenKind::kSymbol) return Errorf("expected comparison");
    switch (t.punct) {
      case Punct::kEq:
        *op = CompareOp::kEq;
        break;
      case Punct::kNe:
        *op = CompareOp::kNe;
        break;
      case Punct::kLt:
        *op = CompareOp::kLt;
        break;
      case Punct::kLe:
        *op = CompareOp::kLe;
        break;
      case Punct::kGt:
        *op = CompareOp::kGt;
        break;
      case Punct::kGe:
        *op = CompareOp::kGe;
        break;
      default:
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

  static bool IsAggName(std::string_view word, AggFunc* out) {
    if (EqualsUpper(word, "SUM")) {
      *out = AggFunc::kSum;
    } else if (EqualsUpper(word, "COUNT")) {
      *out = AggFunc::kCount;
    } else if (EqualsUpper(word, "MIN")) {
      *out = AggFunc::kMin;
    } else if (EqualsUpper(word, "MAX")) {
      *out = AggFunc::kMax;
    } else if (EqualsUpper(word, "AVG")) {
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
