#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "src/parser/lexer.h"
#include "src/parser/parser.h"

namespace sqod {
namespace {

TEST(LexerTest, BasicTokens) {
  auto tokens = Tokenize("p(X, 1) :- q(X), X >= -2.");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenKind> kinds;
  for (const Token& t : tokens.value()) kinds.push_back(t.kind);
  std::vector<TokenKind> expected{
      TokenKind::kIdent,  TokenKind::kLParen, TokenKind::kVariable,
      TokenKind::kComma,  TokenKind::kInteger, TokenKind::kRParen,
      TokenKind::kImplies, TokenKind::kIdent, TokenKind::kLParen,
      TokenKind::kVariable, TokenKind::kRParen, TokenKind::kComma,
      TokenKind::kVariable, TokenKind::kGe, TokenKind::kInteger,
      TokenKind::kDot, TokenKind::kEof};
  EXPECT_EQ(kinds, expected);
}

TEST(LexerTest, CommentsAreSkipped) {
  auto tokens = Tokenize("% a comment\np(X).\n% another");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value().size(), 6u);  // ident ( var ) . eof
}

TEST(LexerTest, NegativeIntegers) {
  auto tokens = Tokenize("-42");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].number, -42);
}

TEST(LexerTest, Strings) {
  auto tokens = Tokenize("p(\"hello world\").");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[2].kind, TokenKind::kString);
  EXPECT_EQ(tokens.value()[2].text, "hello world");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Tokenize("p(\"oops).").ok());
}

TEST(LexerTest, BadCharacterReportsPosition) {
  auto result = Tokenize("p(X) :- q(X);\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 1"), std::string::npos);
}

TEST(LexerTest, IntegerLiteralsSpanExactlyInt64) {
  auto max = Tokenize("9223372036854775807");
  ASSERT_TRUE(max.ok()) << max.status().message();
  EXPECT_EQ(max.value()[0].number, std::numeric_limits<int64_t>::max());
  auto min = Tokenize("-9223372036854775808");
  ASSERT_TRUE(min.ok()) << min.status().message();
  EXPECT_EQ(min.value()[0].number, std::numeric_limits<int64_t>::min());
}

TEST(LexerTest, OutOfRangeIntegerLiteralsFailWithPosition) {
  for (const char* text :
       {"e(99999999999999999999).", "e(9223372036854775808).",
        "e(-9223372036854775809).", "e(-99999999999999999999)."}) {
    auto result = Tokenize(text);
    ASSERT_FALSE(result.ok()) << text;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(result.status().message().find("line 1, column 3"),
              std::string::npos)
        << result.status().message();
  }
  // The parser entry points surface the lexer's error.
  auto unit = ParseUnit("p(X) :- e(X).\ne(99999999999999999999).\n?- p.");
  ASSERT_FALSE(unit.ok());
  EXPECT_EQ(unit.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unit.status().message().find("line 2, column 3"),
            std::string::npos)
      << unit.status().message();
}

TEST(LexerTest, BangVsNotEqual) {
  auto t1 = Tokenize("!q(X)");
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(t1.value()[0].kind, TokenKind::kBang);
  auto t2 = Tokenize("X != Y");
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(t2.value()[1].kind, TokenKind::kNe);
}

TEST(ParserTest, RuleRoundTrip) {
  Rule r = ParseRule("path(X, Y) :- step(X, Z), path(Z, Y), X < Y.").take();
  EXPECT_EQ(r.ToString(), "path(X, Y) :- step(X, Z), path(Z, Y), X < Y.");
}

TEST(ParserTest, NegatedLiteral) {
  Rule r = ParseRule("p(X) :- e(X), !blocked(X).").take();
  ASSERT_EQ(r.body.size(), 2u);
  EXPECT_TRUE(r.body[1].negated);
}

TEST(ParserTest, ConstraintWithComparison) {
  Constraint ic =
      ParseConstraint(":- startPoint(X), endPoint(Y), Y <= X.").take();
  EXPECT_EQ(ic.body.size(), 2u);
  ASSERT_EQ(ic.comparisons.size(), 1u);
  EXPECT_EQ(ic.comparisons[0].op, CmpOp::kLe);
}

TEST(ParserTest, UnitWithFactsRulesConstraintsQuery) {
  auto unit = ParseUnit(R"(
    % the Figure 1 example
    p(X, Y) :- a(X, Y).
    p(X, Y) :- b(X, Y).
    p(X, Y) :- a(X, Z), p(Z, Y).
    p(X, Y) :- b(X, Z), p(Z, Y).
    :- a(X, Y), b(Y, Z).
    a(1, 2).
    b(2, 3).
    ?- p.
  )");
  ASSERT_TRUE(unit.ok());
  EXPECT_EQ(unit.value().program.rules().size(), 4u);
  EXPECT_EQ(unit.value().constraints.size(), 1u);
  EXPECT_EQ(unit.value().facts.size(), 2u);
  EXPECT_EQ(unit.value().program.query(), InternPred("p"));
}

TEST(ParserTest, SymbolAndStringConstants) {
  Rule r = ParseRule("p(X) :- e(X, foo), e(X, \"bar baz\").").take();
  EXPECT_EQ(r.body[0].atom.arg(1), Term::Symbol("foo"));
  EXPECT_EQ(r.body[1].atom.arg(1), Term::Symbol("bar baz"));
}

TEST(ParserTest, ZeroArityAtoms) {
  auto unit = ParseUnit("halt :- reach(T).\n?- halt.");
  ASSERT_TRUE(unit.ok());
  EXPECT_EQ(unit.value().program.rules()[0].head.arity(), 0);
}

TEST(ParserTest, NonGroundFactFails) {
  EXPECT_FALSE(ParseUnit("p(X).").ok());
}

TEST(ParserTest, ValidationRunsOnUnit) {
  // Unsafe rule: head variable Y unbound.
  EXPECT_FALSE(ParseUnit("p(X, Y) :- e(X).").ok());
}

TEST(ParserTest, ConstraintValidatedAgainstProgram) {
  // IC mentions an IDB predicate.
  EXPECT_FALSE(ParseUnit(R"(
    p(X) :- e(X).
    :- p(X).
  )").ok());
}

TEST(ParserTest, ComparisonBetweenConstants) {
  Rule r = ParseRule("p(X) :- e(X), 1 < 2.").take();
  ASSERT_EQ(r.comparisons.size(), 1u);
  EXPECT_EQ(r.comparisons[0].lhs, Term::Int(1));
}

TEST(ParserTest, ErrorsCarryLocation) {
  auto result = ParseProgram("p(X) :- e(X)");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line"), std::string::npos);
}

TEST(ParserTest, AtomText) {
  Atom a = ParseAtomText("goodPath(X, Y)").take();
  EXPECT_EQ(a.pred(), InternPred("goodPath"));
  EXPECT_EQ(a.arity(), 2);
}

// "pred(Prefix0, ..., Prefix<n-1>)" with `vars` variables or constants.
std::string WideAtom(const std::string& pred, int n, bool vars = true) {
  std::string out = pred + "(";
  for (int i = 0; i < n; ++i) {
    if (i > 0) out += ", ";
    out += vars ? "X" + std::to_string(i) : std::to_string(i);
  }
  return out + ")";
}

TEST(ParserTest, AtomsUpToTheMaximumArityParse) {
  auto unit = ParseUnit(WideAtom("p", 64) + " :- " + WideAtom("e", 64) +
                        ".\n" + WideAtom("e", 64, false) + ".\n?- p.");
  ASSERT_TRUE(unit.ok()) << unit.status().message();
  EXPECT_EQ(unit.value().program.rules()[0].head.arity(), 64);
}

TEST(ParserTest, WideAtomsAreRejectedEverywhere) {
  const std::string wide_rule =
      "p(X0) :- " + WideAtom("e", 65) + ".\n?- p.";
  const std::string wide_head =
      WideAtom("p", 65) + " :- " + WideAtom("e", 65) + ".";
  const std::string wide_fact = WideAtom("e", 65, false) + ".";
  const std::string wide_ic = "p(X) :- e(X).\n:- " + WideAtom("e", 65) + ".";

  auto expect_rejected = [](const Status& status, const std::string& atom) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find(atom), std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find("line"), std::string::npos)
        << status.message();
  };
  expect_rejected(ParseUnit(wide_rule).status(), "e/65");
  expect_rejected(ParseProgram(wide_head).status(), "p/65");
  expect_rejected(ParseRule(wide_head).status(), "p/65");
  expect_rejected(ParseUnit(wide_fact).status(), "e/65");
  expect_rejected(ParseUnit(wide_ic).status(), "e/65");
  expect_rejected(ParseConstraint(":- " + WideAtom("e", 65) + ".").status(),
                  "e/65");
  expect_rejected(ParseAtomText(WideAtom("e", 65, false)).status(), "e/65");
}

}  // namespace
}  // namespace sqod
