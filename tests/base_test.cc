#include <gtest/gtest.h>

#include "base/result.h"
#include "base/status.h"
#include "base/strings.h"
#include "base/value.h"

namespace aqv {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Unusable("view mismatch");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnusable);
  EXPECT_EQ(s.message(), "view mismatch");
  EXPECT_EQ(s.ToString(), "unusable: view mismatch");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kUnusable, StatusCode::kUnsatisfiable,
        StatusCode::kUnsupported, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeToString(code), "unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> Doubled(Result<int> in) {
  AQV_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubled(21), 42);
  EXPECT_EQ(Doubled(Status::Internal("x")).status().code(),
            StatusCode::kInternal);
}

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int64(7).int64(), 7);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).dbl(), 2.5);
  EXPECT_EQ(Value::String("x").str(), "x");
  EXPECT_TRUE(Value::Int64(1).is_numeric());
  EXPECT_TRUE(Value::Double(1).is_numeric());
  EXPECT_FALSE(Value::String("1").is_numeric());
}

TEST(ValueTest, TotalOrderAcrossFamilies) {
  // NULL < numerics < strings.
  EXPECT_LT(Value::Null().Compare(Value::Int64(-5)), 0);
  EXPECT_LT(Value::Int64(100).Compare(Value::String("")), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, NumericComparisonCrossesTypes) {
  EXPECT_LT(Value::Int64(1).Compare(Value::Double(1.5)), 0);
  EXPECT_GT(Value::Double(2.5).Compare(Value::Int64(2)), 0);
  // Numerically equal INT64 and DOUBLE compare equal, matching SQL.
  EXPECT_EQ(Value::Int64(3).Compare(Value::Double(3.0)), 0);
  EXPECT_TRUE(Value::Int64(3).SqlEquals(Value::Double(3.0)));
}

// 2^53 and 2^53 + 1 round to one double; as INT64 they must stay apart.
TEST(ValueTest, Int64ComparisonIsExactBeyondTwoToThe53) {
  const Value a = Value::Int64(9007199254740992);
  const Value b = Value::Int64(9007199254740993);
  EXPECT_LT(a.Compare(b), 0);
  EXPECT_FALSE(a.SqlEquals(b));
  EXPECT_TRUE(b.SqlEquals(Value::Int64(9007199254740993)));
  // Against a DOUBLE the comparison stays a double one.
  EXPECT_TRUE(b.SqlEquals(Value::Double(9007199254740992.0)));
}

TEST(ValueTest, SqlEqualsRejectsNullAndCrossFamily) {
  EXPECT_FALSE(Value::Null().SqlEquals(Value::Null()));
  EXPECT_FALSE(Value::Int64(1).SqlEquals(Value::String("1")));
  EXPECT_TRUE(Value::String("a").SqlEquals(Value::String("a")));
}

TEST(ValueTest, HashConsistentWithSqlEquality) {
  EXPECT_EQ(Value::Int64(5).Hash(), Value::Double(5.0).Hash());
  EXPECT_EQ(Value::String("abc").Hash(), Value::String("abc").Hash());
}

TEST(ValueTest, ToStringRendersLiterals) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int64(-3).ToString(), "-3");
  EXPECT_EQ(Value::String("hi").ToString(), "'hi'");
}

TEST(RowTest, CompareRowsLexicographic) {
  Row a = {Value::Int64(1), Value::Int64(2)};
  Row b = {Value::Int64(1), Value::Int64(3)};
  EXPECT_LT(CompareRows(a, b), 0);
  EXPECT_GT(CompareRows(b, a), 0);
  EXPECT_EQ(CompareRows(a, a), 0);
}

TEST(RowTest, HashAndEq) {
  Row a = {Value::Int64(1), Value::String("x")};
  Row b = {Value::Int64(1), Value::String("x")};
  EXPECT_TRUE(RowEq{}(a, b));
  EXPECT_EQ(RowHash{}(a), RowHash{}(b));
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"a"}, ", "), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, " AND "), "a AND b AND c");
}

TEST(StringsTest, CaseHelpers) {
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_EQ(ToUpper("AbC"), "ABC");
  EXPECT_TRUE(EqualsIgnoreCase("GROUPBY", "groupby"));
  EXPECT_FALSE(EqualsIgnoreCase("GROUP", "groupby"));
  EXPECT_TRUE(StartsWith("SELECT x", "SELECT"));
  EXPECT_FALSE(StartsWith("SEL", "SELECT"));
}

}  // namespace
}  // namespace aqv
