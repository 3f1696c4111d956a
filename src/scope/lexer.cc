#include "scope/lexer.h"

#include <charconv>
#include <cmath>
#include <iterator>
#include <string>

namespace qo::scope {

namespace {

/// Spellings indexed by enum value.
constexpr std::string_view kKeywordText[] = {
    "",   "EXTRACT", "FROM", "SELECT", "WHERE", "GROUP", "BY", "JOIN",
    "ON", "OUTPUT",  "TO",   "AS",     "UNION", "ALL",   "AND",
};
constexpr std::string_view kPunctText[] = {
    "",  "=", "==", "!=", "<", "<=", ">", ">=",
    ",", ";", "(",  ")",  ":", "*",  "@",
};
static_assert(std::size(kKeywordText) ==
              static_cast<size_t>(Keyword::kAnd) + 1);
static_assert(std::size(kPunctText) == static_cast<size_t>(Punct::kAt) + 1);

// ASCII classes (the "C" locale's isalpha/isdigit/isspace).
bool IsAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsWordChar(char c) { return IsAlpha(c) || IsDigit(c) || c == '_'; }
bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

Keyword MatchKeyword(std::string_view word) {
  // Every keyword is 2-7 letters; most identifiers are rejected here.
  if (word.size() < 2 || word.size() > 7) return Keyword::kNone;
  for (size_t k = 1; k < std::size(kKeywordText); ++k) {
    if (EqualsUpper(word, kKeywordText[k])) return static_cast<Keyword>(k);
  }
  return Keyword::kNone;
}

Punct MatchPunct(char c, char next) {
  switch (c) {
    case '=':
      return next == '=' ? Punct::kEq : Punct::kAssign;
    case '!':
      return next == '=' ? Punct::kNe : Punct::kNone;
    case '<':
      return next == '=' ? Punct::kLe : Punct::kLt;
    case '>':
      return next == '=' ? Punct::kGe : Punct::kGt;
    case ',':
      return Punct::kComma;
    case ';':
      return Punct::kSemicolon;
    case '(':
      return Punct::kLParen;
    case ')':
      return Punct::kRParen;
    case ':':
      return Punct::kColon;
    case '*':
      return Punct::kStar;
    case '@':
      return Punct::kAt;
    default:
      return Punct::kNone;
  }
}

/// The value strtod gives a number token: correctly rounded, ±inf when it
/// overflows and ±0 when it underflows (from_chars reports both as out of
/// range and leaves the value unset).
double NumberValue(std::string_view text) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec == std::errc::result_out_of_range) {
    const bool negative = text.front() == '-';
    const std::string_view digits = text.substr(negative ? 1 : 0);
    const bool overflow = digits.substr(0, digits.find('.'))
                              .find_first_not_of('0') != std::string_view::npos;
    value = overflow ? HUGE_VAL : 0.0;
    if (negative) value = -value;
  }
  return value;
}

}  // namespace

bool EqualsUpper(std::string_view word, std::string_view upper) {
  if (word.size() != upper.size()) return false;
  for (size_t i = 0; i < word.size(); ++i) {
    // Clearing bit 5 upper-cases a letter and maps no other word
    // character onto one.
    if (static_cast<char>(word[i] & ~0x20) != upper[i]) return false;
  }
  return true;
}

std::string_view KeywordText(Keyword kw) {
  return kKeywordText[static_cast<size_t>(kw)];
}

std::string_view PunctText(Punct p) {
  return kPunctText[static_cast<size_t>(p)];
}

Result<std::vector<Token>> Tokenize(std::string_view source) {
  std::vector<Token> tokens;
  tokens.reserve(source.size() / 4 + 8);
  int line = 1;
  size_t i = 0;
  const size_t n = source.size();
  while (i < n) {
    const char c = source[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (IsSpace(c)) {
      ++i;
      continue;
    }
    // Line comments: -- to end of line.
    if (c == '-' && i + 1 < n && source[i + 1] == '-') {
      while (i < n && source[i] != '\n') ++i;
      continue;
    }
    Token t;
    t.line = line;
    if (IsAlpha(c) || c == '_') {
      const size_t start = i;
      while (i < n && IsWordChar(source[i])) ++i;
      t.text = source.substr(start, i - start);
      t.keyword = MatchKeyword(t.text);
      if (t.keyword != Keyword::kNone) {
        t.kind = TokenKind::kKeyword;
        t.text = KeywordText(t.keyword);
      } else {
        t.kind = TokenKind::kIdentifier;
      }
      tokens.push_back(t);
      continue;
    }
    if (IsDigit(c) || (c == '-' && i + 1 < n && IsDigit(source[i + 1]))) {
      const size_t start = i;
      if (c == '-') ++i;
      bool seen_dot = false;
      while (i < n && (IsDigit(source[i]) || (source[i] == '.' && !seen_dot))) {
        if (source[i] == '.') seen_dot = true;
        ++i;
      }
      t.kind = TokenKind::kNumber;
      t.text = source.substr(start, i - start);
      t.number = NumberValue(t.text);
      tokens.push_back(t);
      continue;
    }
    if (c == '"') {
      const size_t start = ++i;
      while (i < n && source[i] != '"' && source[i] != '\n') ++i;
      if (i >= n || source[i] == '\n') {
        return Status::ParseError("unterminated string literal at line " +
                                  std::to_string(line));
      }
      t.kind = TokenKind::kString;
      t.text = source.substr(start, i - start);
      tokens.push_back(t);
      ++i;  // closing quote
      continue;
    }
    t.punct = MatchPunct(c, i + 1 < n ? source[i + 1] : '\0');
    if (t.punct != Punct::kNone) {
      t.kind = TokenKind::kSymbol;
      t.text = source.substr(i, PunctText(t.punct).size());
      i += t.text.size();
      tokens.push_back(t);
      continue;
    }
    std::string msg = "unexpected character '";
    msg += c;
    msg += "' at line ";
    msg += std::to_string(line);
    return Status::ParseError(msg);
  }
  Token end;
  end.line = line;
  tokens.push_back(end);
  return tokens;
}

}  // namespace qo::scope
