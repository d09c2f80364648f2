#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ir/printer.h"
#include "parser/lexer.h"
#include "parser/parser.h"
#include "tests/test_util.h"

namespace aqv {
namespace {

TEST(LexerTest, TokenKinds) {
  ASSERT_OK_AND_ASSIGN(std::vector<Token> tokens,
                       Tokenize("SELECT a_1, 42 3.5 'str' <= <> != ( ) * / ."));
  std::vector<TokenKind> kinds;
  for (const Token& t : tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds, (std::vector<TokenKind>{
                       TokenKind::kIdentifier, TokenKind::kIdentifier,
                       TokenKind::kComma, TokenKind::kInteger,
                       TokenKind::kFloat, TokenKind::kString, TokenKind::kLe,
                       TokenKind::kNe, TokenKind::kNe, TokenKind::kLParen,
                       TokenKind::kRParen, TokenKind::kStar, TokenKind::kSlash,
                       TokenKind::kDot, TokenKind::kEnd}));
  EXPECT_EQ(tokens[3].int_value, 42);
  EXPECT_DOUBLE_EQ(tokens[4].float_value, 3.5);
  EXPECT_EQ(tokens[5].text, "str");
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  ASSERT_OK_AND_ASSIGN(std::vector<Token> tokens, Tokenize("select SeLeCt"));
  EXPECT_TRUE(tokens[0].IsKeyword("SELECT"));
  EXPECT_TRUE(tokens[1].IsKeyword("select"));
}

TEST(LexerTest, RejectsBadInput) {
  EXPECT_FALSE(Tokenize("SELECT 'unterminated").ok());
  EXPECT_FALSE(Tokenize("a ! b").ok());
  EXPECT_FALSE(Tokenize("a @ b").ok());
}

TEST(LexerTest, OutOfRangeLiteralsAreCleanErrors) {
  for (const char* sql : {"99999999999999999999", "9223372036854775808",
                          "1e999", "-1e999", "x = 99999999999999999999"}) {
    SCOPED_TRACE(sql);
    Result<std::vector<Token>> tokens = Tokenize(sql);
    ASSERT_FALSE(tokens.ok());
    EXPECT_EQ(tokens.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(tokens.status().ToString().find("out of range at offset"),
              std::string::npos)
        << tokens.status().ToString();
  }
  Result<std::vector<Token>> offset = Tokenize("A_1 = 1e999");
  ASSERT_FALSE(offset.ok());
  EXPECT_NE(offset.status().ToString().find("offset 6"), std::string::npos)
      << offset.status().ToString();
  EXPECT_FALSE(Tokenize("1.2.3").ok());
}

TEST(LexerTest, SignFoldsIntoALiteralOnlyWhereNoOperandPrecedes) {
  ASSERT_OK_AND_ASSIGN(std::vector<Token> min,
                       Tokenize("= -9223372036854775808"));
  ASSERT_EQ(min[1].kind, TokenKind::kInteger);
  EXPECT_EQ(min[1].int_value, std::numeric_limits<int64_t>::min());
  ASSERT_OK_AND_ASSIGN(std::vector<Token> binary, Tokenize("A_1-1"));
  ASSERT_EQ(binary.size(), 4u);
  EXPECT_EQ(binary[1].kind, TokenKind::kMinus);
  EXPECT_EQ(binary[2].int_value, 1);
  ASSERT_OK_AND_ASSIGN(std::vector<Token> spaced, Tokenize("(- 5)"));
  EXPECT_EQ(spaced[1].kind, TokenKind::kMinus);
  ASSERT_OK_AND_ASSIGN(Query q, ParseQuery("SELECT A1 FROM R1(A1, B1) WHERE "
                                           "B1 = -9223372036854775808"));
  EXPECT_NE(ToSql(q).find("-9223372036854775808"), std::string::npos)
      << ToSql(q);
  // Negating INT64 min through a separate sign token has no INT64 result.
  Result<Query> negated = ParseQuery(
      "SELECT A1 FROM R1(A1, B1) WHERE B1 = - -9223372036854775808");
  ASSERT_FALSE(negated.ok());
  EXPECT_EQ(negated.status().code(), StatusCode::kInvalidArgument);
}

// Seeded, bounded fuzz over digit, sign and exponent strings, alone and as
// a WHERE constant: each one lexes and parses, or fails with a clean
// error. Nothing may throw or abort.
TEST(LexerTest, NumericLiteralFuzzIsOkOrCleanError) {
  uint64_t seed = TestSeed(31000);
  SCOPED_TRACE(SeedTrace(seed));
  std::mt19937_64 rng(seed);
  const std::string alphabet = "0123456789999+-.eE";
  for (int i = 0; i < 4000; ++i) {
    std::string literal;
    size_t length = 1 + rng() % 28;
    for (size_t k = 0; k < length; ++k) {
      literal += alphabet[rng() % alphabet.size()];
    }
    SCOPED_TRACE(literal);
    Result<std::vector<Token>> tokens = Tokenize(literal);
    if (!tokens.ok()) {
      EXPECT_EQ(tokens.status().code(), StatusCode::kInvalidArgument);
    }
    // A string led by 'e' lexes as a column name, which the binder does
    // not find.
    Result<Query> q =
        ParseQuery("SELECT A1 FROM R1(A1, B1) WHERE B1 = " + literal);
    if (!q.ok()) {
      EXPECT_TRUE(q.status().code() == StatusCode::kInvalidArgument ||
                  q.status().code() == StatusCode::kNotFound)
          << q.status().ToString();
    }
  }
}

TEST(ParserTest, PaperNotationRoundTrips) {
  const char* sql =
      "SELECT A1, SUM(B1) AS SUM_B1 FROM R1(A1, B1), R2(C1, D1) "
      "WHERE A1 = C1 AND B1 = 6 AND D1 = 6 GROUPBY A1";
  ASSERT_OK_AND_ASSIGN(Query q, ParseQuery(sql));
  EXPECT_EQ(ToSql(q), sql);
  ASSERT_OK_AND_ASSIGN(Query q2, ParseQuery(ToSql(q)));
  EXPECT_TRUE(q == q2);
}

TEST(ParserTest, HavingAndDistinct) {
  ASSERT_OK_AND_ASSIGN(
      Query q,
      ParseQuery("SELECT DISTINCT A1 FROM R1(A1, B1) WHERE B1 > 2 "
                 "GROUP BY A1 HAVING COUNT(B1) >= 3"));
  EXPECT_TRUE(q.distinct);
  ASSERT_EQ(q.having.size(), 1u);
  EXPECT_EQ(q.having[0].lhs.agg, AggFn::kCount);
  EXPECT_EQ(q.having[0].op, CmpOp::kGe);
}

TEST(ParserTest, ScaledAggregateAndRatio) {
  ASSERT_OK_AND_ASSIGN(
      Query q, ParseQuery("SELECT A1, SUM(S1 * N1) AS t, SUM(S1) / SUM(N1) AS r "
                          "FROM V(A1, S1, N1) GROUPBY A1"));
  ASSERT_EQ(q.select.size(), 3u);
  EXPECT_EQ(q.select[1].arg.multiplier, "N1");
  EXPECT_EQ(q.select[2].kind, SelectItem::Kind::kRatio);
  EXPECT_EQ(q.select[2].den.column, "N1");
  // Round trip.
  ASSERT_OK_AND_ASSIGN(Query q2, ParseQuery(ToSql(q)));
  EXPECT_TRUE(q == q2);
}

TEST(ParserTest, CatalogBoundFromUsesRenamingConvention) {
  Catalog catalog;
  ASSERT_OK(catalog.AddTable(TableDef("R", {"A", "B"})));
  ASSERT_OK(catalog.AddTable(TableDef("S", {"A", "C"})));
  ASSERT_OK_AND_ASSIGN(
      Query q, ParseQuery("SELECT R.A, S.C FROM R, S WHERE R.A = S.A AND B = 1",
                          &catalog));
  // Section 2 convention: occurrence k's columns become <Col>_<k>.
  EXPECT_EQ(q.from[0].columns, (std::vector<std::string>{"A_1", "B_1"}));
  EXPECT_EQ(q.from[1].columns, (std::vector<std::string>{"A_2", "C_2"}));
  EXPECT_EQ(q.select[0].column, "A_1");
  EXPECT_EQ(q.select[1].column, "C_2");
  // Unqualified B resolves uniquely; unqualified A would be ambiguous.
  EXPECT_EQ(q.where[1].lhs.column, "B_1");
  EXPECT_FALSE(
      ParseQuery("SELECT A FROM R, S WHERE R.A = S.A", &catalog).ok());
}

TEST(ParserTest, SelfJoinWithAliases) {
  Catalog catalog;
  ASSERT_OK(catalog.AddTable(TableDef("R", {"A", "B"})));
  ASSERT_OK_AND_ASSIGN(
      Query q,
      ParseQuery("SELECT x.A, y.B FROM R x, R y WHERE x.B = y.A", &catalog));
  EXPECT_EQ(q.from[0].columns, (std::vector<std::string>{"A_1", "B_1"}));
  EXPECT_EQ(q.from[1].columns, (std::vector<std::string>{"A_2", "B_2"}));
  EXPECT_EQ(q.where[0].lhs.column, "B_1");
  EXPECT_EQ(q.where[0].rhs.column, "A_2");
}

TEST(ParserTest, CreateView) {
  ASSERT_OK_AND_ASSIGN(
      ViewDef v, ParseView("CREATE VIEW V1 AS SELECT C2, D2 FROM "
                           "R1(A2, B2), R2(C2, D2) WHERE A2 = C2 AND B2 = D2"));
  EXPECT_EQ(v.name, "V1");
  EXPECT_EQ(v.query.from.size(), 2u);
  EXPECT_EQ(v.OutputColumns(), (std::vector<std::string>{"C2", "D2"}));
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("FROM R(A)").ok());
  EXPECT_FALSE(ParseQuery("SELECT A FROM R(A) WHERE").ok());
  EXPECT_FALSE(ParseQuery("SELECT A FROM R(A) trailing junk").ok());
  EXPECT_FALSE(ParseQuery("SELECT Z FROM R(A)").ok());       // unknown column
  EXPECT_FALSE(ParseQuery("SELECT A FROM R").ok());          // needs catalog
  EXPECT_FALSE(ParseQuery("SELECT MIN(A) / SUM(A) AS r FROM R(A)").ok());
}

TEST(ParserTest, ValidatesSemanticRules) {
  // Non-aggregate select column missing from GROUP BY.
  EXPECT_FALSE(
      ParseQuery("SELECT A1, SUM(B1) FROM R1(A1, B1)").ok());
  // HAVING on a non-grouped query.
  EXPECT_FALSE(
      ParseQuery("SELECT A1 FROM R1(A1, B1) HAVING A1 = 2").ok());
}

TEST(ParserTest, StringAndFloatConstants) {
  ASSERT_OK_AND_ASSIGN(
      Query q,
      ParseQuery("SELECT A1 FROM R1(A1, B1) WHERE A1 = 'x' AND B1 < 2.75"));
  EXPECT_EQ(q.where[0].rhs.constant, Value::String("x"));
  EXPECT_EQ(q.where[1].rhs.constant, Value::Double(2.75));
}

TEST(ParserTest, TelephonyExampleParses) {
  // Example 1.1's Q in catalog-bound form.
  Catalog catalog;
  TableDef plans("Calling_Plans", {"Plan_Id", "Plan_Name"});
  TableDef calls("Calls", {"Call_Id", "Cust_Id", "Plan_Id", "Day", "Month",
                           "Year", "Charge"});
  ASSERT_OK(catalog.AddTable(plans));
  ASSERT_OK(catalog.AddTable(calls));
  ASSERT_OK_AND_ASSIGN(
      Query q,
      ParseQuery("SELECT Calling_Plans.Plan_Id, Plan_Name, SUM(Charge) "
                 "FROM Calls, Calling_Plans "
                 "WHERE Calls.Plan_Id = Calling_Plans.Plan_Id AND Year = 1995 "
                 "GROUPBY Calling_Plans.Plan_Id, Plan_Name "
                 "HAVING SUM(Charge) < 1000000",
                 &catalog));
  EXPECT_EQ(q.group_by.size(), 2u);
  EXPECT_EQ(q.having.size(), 1u);
  EXPECT_EQ(q.select[2].arg.column, "Charge_1");
}

TEST(ParserTest, SignedConstantsInWhere) {
  ASSERT_OK_AND_ASSIGN(
      Query q, ParseQuery("SELECT A1 FROM R1(A1, B1) WHERE A1 > -5 AND "
                          "B1 <= +2.5"));
  EXPECT_EQ(q.where[0].rhs.constant, Value::Int64(-5));
  EXPECT_EQ(q.where[1].rhs.constant, Value::Double(2.5));
  // A sign must be followed by a number, not a column or string.
  EXPECT_FALSE(ParseQuery("SELECT A1 FROM R1(A1, B1) WHERE A1 > -B1").ok());
  EXPECT_FALSE(ParseQuery("SELECT A1 FROM R1(A1, B1) WHERE A1 > -'x'").ok());
}

TEST(ParseInsertTest, MultiRowTuplesWithAllLiteralKinds) {
  ASSERT_OK_AND_ASSIGN(
      InsertStatement insert,
      ParseInsert("INSERT INTO T VALUES (1, 2.5, 'x', NULL), (-3, +4.5, "
                  "'y', 7)"));
  EXPECT_EQ(insert.table, "T");
  ASSERT_EQ(insert.rows.size(), 2u);
  EXPECT_EQ(insert.rows[0],
            (Row{Value::Int64(1), Value::Double(2.5), Value::String("x"),
                 Value::Null()}));
  EXPECT_EQ(insert.rows[1],
            (Row{Value::Int64(-3), Value::Double(4.5), Value::String("y"),
                 Value::Int64(7)}));
}

TEST(ParseInsertTest, RejectsDegenerateStatements) {
  // Zero tuples used to be acked as "0 row(s) inserted".
  Result<InsertStatement> empty = ParseInsert("INSERT INTO T VALUES");
  ASSERT_FALSE(empty.ok());
  EXPECT_NE(empty.status().message().find("at least one"), std::string::npos);
  // Trailing garbage after the last tuple used to be silently ignored.
  EXPECT_FALSE(ParseInsert("INSERT INTO T VALUES (1) garbage").ok());
  EXPECT_FALSE(ParseInsert("INSERT INTO T VALUES (1), (2) (3)").ok());
  // Structural errors.
  EXPECT_FALSE(ParseInsert("INSERT INTO T VALUES (1,").ok());
  EXPECT_FALSE(ParseInsert("INSERT INTO T VALUES ()").ok());
  EXPECT_FALSE(ParseInsert("INSERT INTO T VALUES (1), ").ok());
  EXPECT_FALSE(ParseInsert("INSERT INTO T (1)").ok());
  EXPECT_FALSE(ParseInsert("INSERT T VALUES (1)").ok());
  // A bare sign or a sign on a non-number is not a literal.
  EXPECT_FALSE(ParseInsert("INSERT INTO T VALUES (-)").ok());
  EXPECT_FALSE(ParseInsert("INSERT INTO T VALUES (-'x')").ok());
  EXPECT_FALSE(ParseInsert("INSERT INTO T VALUES (A)").ok());
}

}  // namespace
}  // namespace aqv
