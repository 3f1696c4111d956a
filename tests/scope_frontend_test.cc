// Tests for the SCOPE-like language front end: lexer, parser, compiler, and
// a deterministic fuzzer over mutated generated scripts.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "scope/compiler.h"
#include "scope/lexer.h"
#include "scope/parser.h"
#include "workload/workload.h"

namespace qo::scope {
namespace {

// ---------------------------------------------------------------------------
// Lexer.
// ---------------------------------------------------------------------------

TEST(LexerTest, TokenizesAllCategories) {
  auto tokens = Tokenize("rs = SELECT a, SUM(b) FROM t WHERE x >= 1.5 @ 0.3;");
  ASSERT_TRUE(tokens.ok());
  const auto& ts = *tokens;
  EXPECT_EQ(ts[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(ts[0].text, "rs");
  EXPECT_TRUE(ts[1].Is(Punct::kAssign));
  EXPECT_TRUE(ts[2].Is(Keyword::kSelect));
  EXPECT_EQ(ts.back().kind, TokenKind::kEnd);
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  auto tokens = Tokenize("select From wHeRe");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[0].Is(Keyword::kSelect));
  EXPECT_TRUE((*tokens)[1].Is(Keyword::kFrom));
  EXPECT_TRUE((*tokens)[2].Is(Keyword::kWhere));
}

TEST(LexerTest, CommentsAndLinesTracked) {
  auto tokens = Tokenize("a -- comment with SELECT\nb");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 3u);  // a, b, EOF
  EXPECT_EQ((*tokens)[0].line, 1);
  EXPECT_EQ((*tokens)[1].line, 2);
}

TEST(LexerTest, StringLiteralsStripQuotes) {
  auto tokens = Tokenize("\"hello world\"");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kString);
  EXPECT_EQ((*tokens)[0].text, "hello world");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Tokenize("\"oops").ok());
  EXPECT_FALSE(Tokenize("\"oops\nnext\"").ok());
}

TEST(LexerTest, NumbersIncludingNegativeAndDecimal) {
  auto tokens = Tokenize("1 2.5 -3 -4.25");
  ASSERT_TRUE(tokens.ok());
  for (size_t i = 0; i + 1 < tokens->size(); ++i) {
    EXPECT_EQ((*tokens)[i].kind, TokenKind::kNumber) << i;
  }
}

TEST(LexerTest, NumberValuesMatchStrtod) {
  const std::string huge(400, '9');
  const std::string tiny = "0." + std::string(400, '0') + "1";
  for (const std::string& text :
       {std::string("7"), std::string("2.5"), std::string("-4.25"),
        std::string("1."), std::string("0.1"), huge, "-" + huge, tiny,
        "-" + tiny}) {
    auto tokens = Tokenize(text);
    ASSERT_TRUE(tokens.ok()) << text;
    ASSERT_EQ((*tokens)[0].kind, TokenKind::kNumber) << text;
    const double want = std::strtod(text.c_str(), nullptr);
    EXPECT_EQ((*tokens)[0].number, want) << text;
    EXPECT_EQ(std::signbit((*tokens)[0].number), std::signbit(want)) << text;
  }
}

TEST(LexerTest, MultiCharOperators) {
  auto tokens = Tokenize("== != <= >= < >");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[0].Is(Punct::kEq));
  EXPECT_TRUE((*tokens)[1].Is(Punct::kNe));
  EXPECT_TRUE((*tokens)[2].Is(Punct::kLe));
  EXPECT_TRUE((*tokens)[3].Is(Punct::kGe));
}

TEST(LexerTest, RejectsUnknownCharacter) {
  EXPECT_FALSE(Tokenize("a $ b").ok());
}

// ---------------------------------------------------------------------------
// Parser.
// ---------------------------------------------------------------------------

TEST(ParserTest, ParsesExtract) {
  auto script = ParseScript(
      "rs = EXTRACT a:int, b:string, c:double FROM \"path\";");
  ASSERT_TRUE(script.ok());
  ASSERT_EQ(script->statements.size(), 1u);
  const auto& ex = script->statements[0].extract;
  EXPECT_EQ(script->statements[0].kind, StatementKind::kExtract);
  EXPECT_EQ(ex.target, "rs");
  ASSERT_EQ(ex.columns.size(), 3u);
  EXPECT_EQ(SymName(ex.columns[1].name), "b");
  EXPECT_EQ(ex.columns[1].type, ColumnType::kString);
  EXPECT_EQ(SymName(ex.input_path), "path");
}

TEST(ParserTest, ParsesSelectWithEverything) {
  auto script = ParseScript(R"(
    out = SELECT a, SUM(b) AS total, COUNT(*) AS n FROM src
          JOIN other ON a == pk @ 1.5
          WHERE a > 5 @ 0.25 AND c == "x"
          GROUP BY a;
  )");
  ASSERT_TRUE(script.ok()) << script.status();
  const auto& sel = script->statements[0].select;
  ASSERT_EQ(sel.items.size(), 3u);
  EXPECT_EQ(sel.items[1].agg, AggFunc::kSum);
  EXPECT_EQ(SymName(sel.items[1].alias), "total");
  EXPECT_EQ(sel.items[2].column, kSymStar);
  EXPECT_EQ(sel.items[2].agg, AggFunc::kCount);
  ASSERT_EQ(sel.joins.size(), 1u);
  EXPECT_DOUBLE_EQ(sel.joins[0].true_fanout, 1.5);
  ASSERT_EQ(sel.where.size(), 2u);
  EXPECT_DOUBLE_EQ(sel.where[0].true_selectivity, 0.25);
  EXPECT_LT(sel.where[1].true_selectivity, 0.0);  // unannotated
  EXPECT_EQ(sel.group_by, std::vector<Symbol>{Sym("a")});
}

TEST(ParserTest, ParsesUnionAllAndOutput) {
  auto script = ParseScript(R"(
    u = left UNION ALL right;
    OUTPUT u TO "sink";
  )");
  ASSERT_TRUE(script.ok());
  EXPECT_EQ(script->statements[0].kind, StatementKind::kUnion);
  EXPECT_EQ(script->statements[0].union_stmt.left, "left");
  EXPECT_EQ(script->statements[1].kind, StatementKind::kOutput);
  EXPECT_EQ(script->OutputCount(), 1u);
}

struct BadScriptCase {
  const char* name;
  const char* source;
};

class ParserErrorTest : public ::testing::TestWithParam<BadScriptCase> {};

TEST_P(ParserErrorTest, RejectsMalformedScripts) {
  auto script = ParseScript(GetParam().source);
  EXPECT_FALSE(script.ok()) << GetParam().name;
  EXPECT_EQ(script.status().code(), StatusCode::kParseError);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParserErrorTest,
    ::testing::Values(
        BadScriptCase{"empty", ""},
        BadScriptCase{"missing_semicolon", "rs = EXTRACT a:int FROM \"p\""},
        BadScriptCase{"bad_type", "rs = EXTRACT a:blob FROM \"p\";"},
        BadScriptCase{"no_columns", "rs = EXTRACT FROM \"p\";"},
        BadScriptCase{"join_single_equals",
                      "x = SELECT * FROM a JOIN b ON k = j;"},
        BadScriptCase{"selectivity_out_of_range",
                      "x = SELECT * FROM a WHERE c == 1 @ 1.5;"},
        BadScriptCase{"negative_fanout",
                      "x = SELECT * FROM a JOIN b ON k == j @ -2;"},
        BadScriptCase{"union_missing_all", "u = a UNION b;"},
        BadScriptCase{"output_missing_to", "OUTPUT rs \"p\";"},
        BadScriptCase{"dangling_assignment", "rs = ;"}),
    [](const ::testing::TestParamInfo<BadScriptCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Compiler.
// ---------------------------------------------------------------------------

Catalog TestCatalog() {
  Catalog catalog;
  TableStats t;
  t.true_rows = 1000;
  t.est_rows = 1000;
  t.columns["a"] = {100, 100};
  t.columns["b"] = {10, 10};
  catalog.RegisterTable("p", t);
  catalog.RegisterTable("q", t);
  return catalog;
}

TEST(CompilerTest, BuildsDagWithSharedSubplan) {
  // `filtered` is consumed by two outputs: the plan must share the node.
  auto plan = CompileSource(R"(
    rs = EXTRACT a:int, b:string FROM "p";
    filtered = SELECT * FROM rs WHERE a > 3;
    agg = SELECT b, COUNT(*) AS n FROM filtered GROUP BY b;
    OUTPUT filtered TO "o1";
    OUTPUT agg TO "o2";
  )",
                            TestCatalog());
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->roots.size(), 2u);
  auto fan = plan->FanOut();
  int shared = 0;
  for (int f : fan) {
    if (f >= 2) ++shared;
  }
  EXPECT_GE(shared, 1) << plan->ToString();
}

TEST(CompilerTest, SchemaDerivation) {
  auto plan = CompileSource(R"(
    rs = EXTRACT a:int, b:string FROM "p";
    other = EXTRACT pk:int, c:double FROM "q";
    j = SELECT * FROM rs JOIN other ON a == pk;
    agg = SELECT b, SUM(c) AS total FROM j GROUP BY b;
    OUTPUT agg TO "o";
  )",
                            TestCatalog());
  ASSERT_TRUE(plan.ok()) << plan.status();
  const LogicalNode& out = plan->node(plan->roots[0]);
  ASSERT_EQ(out.schema.size(), 2u);
  EXPECT_EQ(SymName(out.schema.columns[0].name), "b");
  EXPECT_EQ(SymName(out.schema.columns[1].name), "total");
  EXPECT_EQ(out.schema.columns[1].type, ColumnType::kDouble);
}

TEST(CompilerTest, JoinSchemaConcatenatesBothSides) {
  auto plan = CompileSource(R"(
    rs = EXTRACT a:int, b:string FROM "p";
    other = EXTRACT pk:int, c:double FROM "q";
    j = SELECT * FROM rs JOIN other ON a == pk;
    OUTPUT j TO "o";
  )",
                            TestCatalog());
  ASSERT_TRUE(plan.ok());
  const LogicalNode& out = plan->node(plan->roots[0]);
  EXPECT_EQ(out.schema.size(), 4u);
}

struct CompileErrorCase {
  const char* name;
  const char* source;
};

class CompilerErrorTest : public ::testing::TestWithParam<CompileErrorCase> {};

TEST_P(CompilerErrorTest, RejectsSemanticErrors) {
  auto plan = CompileSource(GetParam().source, TestCatalog());
  ASSERT_FALSE(plan.ok()) << GetParam().name;
  EXPECT_EQ(plan.status().code(), StatusCode::kCompileError)
      << plan.status();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CompilerErrorTest,
    ::testing::Values(
        CompileErrorCase{"unknown_input",
                         "rs = EXTRACT a:int FROM \"nope\"; OUTPUT rs TO \"o\";"},
        CompileErrorCase{"unknown_rowset", "OUTPUT ghost TO \"o\";"},
        CompileErrorCase{
            "unknown_predicate_column",
            "rs = EXTRACT a:int FROM \"p\";"
            "f = SELECT * FROM rs WHERE ghost == 1; OUTPUT f TO \"o\";"},
        CompileErrorCase{
            "unknown_join_key",
            "rs = EXTRACT a:int FROM \"p\"; t = EXTRACT pk:int FROM \"q\";"
            "j = SELECT * FROM rs JOIN t ON ghost == pk; OUTPUT j TO \"o\";"},
        CompileErrorCase{
            "non_grouped_column",
            "rs = EXTRACT a:int, b:int FROM \"p\";"
            "g = SELECT a, b, SUM(a) AS s FROM rs GROUP BY a;"
            "OUTPUT g TO \"o\";"},
        CompileErrorCase{
            "redefined_rowset",
            "rs = EXTRACT a:int FROM \"p\"; rs = EXTRACT a:int FROM \"q\";"
            "OUTPUT rs TO \"o\";"},
        CompileErrorCase{"no_output", "rs = EXTRACT a:int FROM \"p\";"},
        CompileErrorCase{
            "union_arity_mismatch",
            "a1 = EXTRACT a:int FROM \"p\"; b1 = EXTRACT a:int, b:int FROM "
            "\"q\"; u = a1 UNION ALL b1; OUTPUT u TO \"o\";"}),
    [](const ::testing::TestParamInfo<CompileErrorCase>& info) {
      return info.param.name;
    });

TEST(CompilerTest, SelectStarWithoutFilterAliasesSameNode) {
  auto plan = CompileSource(R"(
    rs = EXTRACT a:int FROM "p";
    alias = SELECT * FROM rs;
    OUTPUT alias TO "o";
  )",
                            TestCatalog());
  ASSERT_TRUE(plan.ok());
  // No Project/Filter node should be created for a pure alias.
  for (const auto& node : plan->nodes) {
    EXPECT_NE(node.kind, LogicalOpKind::kProject);
    EXPECT_NE(node.kind, LogicalOpKind::kFilter);
  }
}

// ---------------------------------------------------------------------------
// Deterministic fuzzer: seed-driven mutations of generated scripts. Every
// mutant must compile or fail with a ParseError/CompileError — never crash —
// and a repeat call must give the same result. The parser interns every name
// it reads, so long, empty and non-ASCII names reach the symbol table here.
// ---------------------------------------------------------------------------

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Token-sized spans of `script`: identifier/number runs and single
/// punctuation characters (whitespace excluded), as [begin, end) offsets.
std::vector<std::pair<size_t, size_t>> TokenSpans(const std::string& script) {
  std::vector<std::pair<size_t, size_t>> spans;
  for (size_t i = 0; i < script.size();) {
    if (std::isspace(static_cast<unsigned char>(script[i]))) {
      ++i;
      continue;
    }
    size_t end = i + 1;
    if (IsIdentChar(script[i])) {
      while (end < script.size() && IsIdentChar(script[end])) ++end;
    }
    spans.emplace_back(i, end);
    i = end;
  }
  return spans;
}

/// Replaces every whole-word occurrence of `word` in `script`.
std::string ReplaceWord(const std::string& script, const std::string& word,
                        const std::string& with) {
  std::string out;
  size_t pos = 0;
  while (pos < script.size()) {
    size_t hit = script.find(word, pos);
    if (hit == std::string::npos) break;
    const size_t after = hit + word.size();
    const bool whole = (hit == 0 || !IsIdentChar(script[hit - 1])) &&
                       (after >= script.size() || !IsIdentChar(script[after]));
    out.append(script, pos, hit - pos);
    out += whole ? with : word;
    pos = after;
  }
  out.append(script, pos, std::string::npos);
  return out;
}

std::string Mutate(const std::string& script, Rng* rng) {
  static const std::vector<std::string> kNames = {
      "",                                   // empty
      std::string(4096, 'n'),               // long
      "\xc3\xa9t\xc3\xa9",                  // non-ASCII (UTF-8)
      "\xff\xfe\x80",                       // invalid UTF-8
      "col\xe5\x90\x8d",                    // ASCII prefix, CJK tail
  };
  std::string out = script;
  const std::vector<std::pair<size_t, size_t>> spans = TokenSpans(script);
  switch (rng->UniformInt(uint64_t{5})) {
    case 0: {  // byte flips
      const int flips = 1 + static_cast<int>(rng->UniformInt(uint64_t{3}));
      for (int f = 0; f < flips; ++f) {
        out[rng->UniformInt(out.size())] =
            static_cast<char>(rng->UniformInt(uint64_t{256}));
      }
      return out;
    }
    case 1:  // truncation
      out.resize(rng->UniformInt(out.size() + 1));
      return out;
    case 2: {  // token deletion
      const auto [begin, end] = spans[rng->UniformInt(spans.size())];
      out.erase(begin, end - begin);
      return out;
    }
    case 3: {  // token duplication
      const auto [begin, end] = spans[rng->UniformInt(spans.size())];
      out.insert(end, " " + script.substr(begin, end - begin));
      return out;
    }
    default: {  // identifier replacement: one occurrence, or every one
      std::vector<std::pair<size_t, size_t>> idents;
      for (const auto& span : spans) {
        if (std::isalpha(static_cast<unsigned char>(script[span.first]))) {
          idents.push_back(span);
        }
      }
      const auto [begin, end] = idents[rng->UniformInt(idents.size())];
      const std::string& name = kNames[rng->UniformInt(kNames.size())];
      if (rng->Bernoulli(0.5)) {
        return ReplaceWord(script, script.substr(begin, end - begin), name);
      }
      out.replace(begin, end - begin, name);
      return out;
    }
  }
}

/// One mutant of the fuzz corpus and the job it was derived from.
struct Mutant {
  const workload::JobInstance* job;
  std::string source;
};

/// The fuzz corpus: `kMutantsPerJob` seed-driven mutants of each job, in
/// generation order.
std::vector<Mutant> MutantCorpus(
    const std::vector<workload::JobInstance>& jobs) {
  constexpr int kMutantsPerJob = 250;
  Rng rng(0x5eed0f022ULL);
  std::vector<Mutant> corpus;
  for (const workload::JobInstance& job : jobs) {
    for (int m = 0; m < kMutantsPerJob; ++m) {
      corpus.push_back({&job, Mutate(job.script, &rng)});
    }
  }
  return corpus;
}

std::vector<workload::JobInstance> FuzzJobs() {
  workload::WorkloadDriver driver(
      {.num_templates = 24, .jobs_per_day = 12, .seed = 0xf022});
  return driver.DayJobs(0);
}

TEST(ParserFuzzTest, MutantsCompileOrFailCleanlyAndRepeat) {
  const std::vector<workload::JobInstance> jobs = FuzzJobs();
  for (const workload::JobInstance& job : jobs) {
    ASSERT_TRUE(CompileSource(job.script, job.catalog).ok()) << job.script;
  }
  int ok = 0, parse_errors = 0, compile_errors = 0;
  for (const Mutant& mutant : MutantCorpus(jobs)) {
    auto first = CompileSource(mutant.source, mutant.job->catalog);
    auto again = CompileSource(mutant.source, mutant.job->catalog);
    if (first.ok()) {
      ++ok;
      ASSERT_TRUE(again.ok()) << again.status() << "\n" << mutant.source;
      EXPECT_EQ(first->ToString(), again->ToString()) << mutant.source;
      continue;
    }
    const Status& status = first.status();
    if (status.code() == StatusCode::kParseError) {
      ++parse_errors;
    } else {
      EXPECT_TRUE(status.IsCompileError()) << status << "\n" << mutant.source;
      ++compile_errors;
    }
    EXPECT_EQ(status.ToString(), again.status().ToString()) << mutant.source;
  }
  // The mutants must reach every outcome, or the fuzzer tests less than it
  // claims.
  EXPECT_GT(ok, 0);
  EXPECT_GT(parse_errors, 0);
  EXPECT_GT(compile_errors, 0);
}

// ---------------------------------------------------------------------------
// Lexer golden: a pinned digest of every token (kind, text, line) and every
// Tokenize error text over the compile-golden fig10 scripts (as generated,
// lower-cased and in alternating case) and the fuzz corpus above. It pins the token stream across changes to how tokens are
// represented and matched.
// ---------------------------------------------------------------------------

/// Token stream of `source` as text, or its error Status text.
std::string TokenDump(const std::string& source) {
  auto tokens = Tokenize(source);
  if (!tokens.ok()) return tokens.status().ToString();
  std::string out;
  for (const Token& t : *tokens) {
    out += std::to_string(static_cast<int>(t.kind));
    out += '|';
    out.append(t.text.data(), t.text.size());
    out += '|';
    out += std::to_string(t.line);
    out += '\n';
  }
  return out;
}

/// `script` with every letter lower-cased, or with letters alternating
/// upper/lower case: keywords must still match, whatever their case.
std::string Recase(const std::string& script, bool alternate) {
  std::string out = script;
  bool upper = false;
  for (char& c : out) {
    if (!std::isalpha(static_cast<unsigned char>(c))) continue;
    upper = alternate && !upper;
    c = static_cast<char>(upper ? std::toupper(static_cast<unsigned char>(c))
                                : std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

// Recorded on the build whose tokens carried std::string text and whose
// keywords were matched through an upper-cased string set. An intentional
// change to the token stream updates this value and says why in CHANGES.md.
constexpr uint64_t kLexerGoldenDigest = 0x729aee4ec8ac171cULL;

TEST(LexerGoldenTest, TokenStreamsMatchPinnedDigest) {
  // The first 48 jobs of day 0 of the fig10 workload (seed 2022): the
  // scripts the optimizer's compile golden pins.
  workload::WorkloadDriver fig10(
      {.num_templates = 90, .jobs_per_day = 150, .seed = 2022});
  std::vector<workload::JobInstance> golden = fig10.DayJobs(0);
  golden.resize(48);
  const std::vector<workload::JobInstance> fuzz_jobs = FuzzJobs();
  std::string per_script;
  int errors = 0;
  auto add = [&](const std::string& source) {
    const std::string dump = TokenDump(source);
    if (!Tokenize(source).ok()) ++errors;
    per_script += std::to_string(HashString(dump));
    per_script += '\n';
  };
  for (const workload::JobInstance& job : golden) {
    add(job.script);
    add(Recase(job.script, /*alternate=*/false));
    add(Recase(job.script, /*alternate=*/true));
  }
  for (const Mutant& mutant : MutantCorpus(fuzz_jobs)) add(mutant.source);
  // The corpus must reach the lexer's error paths, or the golden pins less
  // than it claims.
  EXPECT_GT(errors, 0);
  const uint64_t digest = HashString(per_script);
  EXPECT_EQ(digest, kLexerGoldenDigest) << std::hex << digest;
}

}  // namespace
}  // namespace qo::scope
