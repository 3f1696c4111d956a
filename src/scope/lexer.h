// Tokenizer for the SCOPE-like scripting language.
#ifndef QO_SCOPE_LEXER_H_
#define QO_SCOPE_LEXER_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace qo::scope {

enum class TokenKind {
  kIdentifier,
  kKeyword,
  kNumber,
  kString,   ///< double-quoted literal, value stored without quotes
  kSymbol,   ///< one of = == != < <= > >= , ; ( ) : * @
  kEnd,
};

/// Reserved words, matched case-insensitively.
enum class Keyword : uint8_t {
  kNone,
  kExtract,
  kFrom,
  kSelect,
  kWhere,
  kGroup,
  kBy,
  kJoin,
  kOn,
  kOutput,
  kTo,
  kAs,
  kUnion,
  kAll,
  kAnd,
};

/// Punctuation and comparison symbols.
enum class Punct : uint8_t {
  kNone,
  kAssign,     ///< =
  kEq,         ///< ==
  kNe,         ///< !=
  kLt,         ///< <
  kLe,         ///< <=
  kGt,         ///< >
  kGe,         ///< >=
  kComma,      ///< ,
  kSemicolon,  ///< ;
  kLParen,     ///< (
  kRParen,     ///< )
  kColon,      ///< :
  kStar,       ///< *
  kAt,         ///< @
};

/// True if `word` equals `upper`, an upper-case ASCII word, ignoring the
/// case of its letters. `word` must hold only letters, digits and '_'.
bool EqualsUpper(std::string_view word, std::string_view upper);

/// Upper-case spelling of a keyword ("" for kNone).
std::string_view KeywordText(Keyword kw);

/// Source spelling of a symbol ("" for kNone).
std::string_view PunctText(Punct p);

/// One token. `text` views the tokenized source, except for keywords, whose
/// text is the keyword's upper-case spelling; the source must outlive the
/// tokens.
struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string_view text;
  int line = 1;
  Keyword keyword = Keyword::kNone;  ///< set for kKeyword
  Punct punct = Punct::kNone;        ///< set for kSymbol
  double number = 0.0;               ///< value of a kNumber

  bool Is(Keyword kw) const { return keyword == kw; }
  bool Is(Punct p) const { return punct == p; }
};

/// Tokenizes `source`. Keywords are case-insensitive and normalized to upper
/// case; identifiers keep their original case. `--` starts a line comment.
Result<std::vector<Token>> Tokenize(std::string_view source);

}  // namespace qo::scope

#endif  // QO_SCOPE_LEXER_H_
