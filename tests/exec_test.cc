#include <algorithm>
#include <limits>

#include <gtest/gtest.h>

#include "exec/column_batch.h"
#include "exec/expression.h"
#include "exec/operators.h"
#include "exec/planner.h"
#include "exec/table.h"
#include "exec/vectorized.h"
#include "ir/builder.h"
#include "tests/test_util.h"

namespace aqv {
namespace {

Row R(std::initializer_list<int64_t> vals) {
  Row row;
  for (int64_t v : vals) row.push_back(Value::Int64(v));
  return row;
}

TEST(TableTest, AddRowChecksArity) {
  Table t({"A", "B"});
  EXPECT_OK(t.AddRow(R({1, 2})));
  EXPECT_FALSE(t.AddRow(R({1})).ok());
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.ColumnIndex("B"), 1);
  EXPECT_EQ(t.ColumnIndex("Z"), -1);
}

TEST(TableTest, MultisetEqualHonorsMultiplicity) {
  Table a({"A"}), b({"A"}), c({"A"});
  a.AddRowOrDie(R({1}));
  a.AddRowOrDie(R({1}));
  a.AddRowOrDie(R({2}));
  b.AddRowOrDie(R({2}));
  b.AddRowOrDie(R({1}));
  b.AddRowOrDie(R({1}));
  c.AddRowOrDie(R({1}));
  c.AddRowOrDie(R({2}));
  c.AddRowOrDie(R({2}));
  EXPECT_TRUE(MultisetEqual(a, b));
  EXPECT_FALSE(MultisetEqual(a, c));
  EXPECT_EQ(DescribeMultisetDifference(a, b), "");
  EXPECT_NE(DescribeMultisetDifference(a, c), "");
}

TEST(TableTest, MultisetEqualChecksArity) {
  Table a({"A"}), b({"A", "B"});
  EXPECT_FALSE(MultisetEqual(a, b));
}

TEST(DatabaseTest, PutGet) {
  Database db;
  db.Put("T", Table({"A"}));
  EXPECT_TRUE(db.Has("T"));
  ASSERT_OK_AND_ASSIGN(const Table* t, db.Get("T"));
  EXPECT_EQ(t->num_columns(), 1);
  EXPECT_EQ(db.Get("U").status().code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, PutAllPublishesEveryEntryAtOneEpoch) {
  Database db;
  db.Put("T", Table({"A"}));
  db.Put("V", Table({"S"}));
  const uint64_t before = db.epoch();

  Table t({"A"});
  t.AddRowOrDie(R({1}));
  Table v({"S"});
  v.AddRowOrDie(R({1}));
  db.PutAll({{"T", std::make_shared<const Table>(std::move(t))},
             {"V", std::make_shared<const Table>(std::move(v))}});

  // One epoch bump for the whole batch, shared by every entry: a snapshot
  // can never see T advanced without V.
  EXPECT_EQ(db.epoch(), before + 1);
  EXPECT_EQ(db.VersionOf("T"), before + 1);
  EXPECT_EQ(db.VersionOf("V"), before + 1);
  ASSERT_OK_AND_ASSIGN(const Table* stored, db.Get("T"));
  EXPECT_EQ(stored->num_rows(), 1u);

  // Empty batch: no epoch bump.
  db.PutAll({});
  EXPECT_EQ(db.epoch(), before + 1);
}

TEST(ExpressionTest, EvalCmpIsExactForInt64Pairs) {
  const Value a = Value::Int64(9007199254740992);
  const Value b = Value::Int64(9007199254740993);
  EXPECT_FALSE(EvalCmp(a, CmpOp::kEq, b));
  EXPECT_TRUE(EvalCmp(a, CmpOp::kNe, b));
  EXPECT_TRUE(EvalCmp(a, CmpOp::kLt, b));
  EXPECT_TRUE(EvalCmp(b, CmpOp::kGt, a));
  EXPECT_FALSE(EvalCmp(Value::Int64(std::numeric_limits<int64_t>::max()),
                       CmpOp::kEq,
                       Value::Int64(std::numeric_limits<int64_t>::max() - 1)));
  // A DOUBLE operand compares as doubles: 2^53 + 1 rounds to 2^53.
  EXPECT_TRUE(EvalCmp(b, CmpOp::kEq, Value::Double(9007199254740992.0)));
}

TEST(ExpressionTest, EvalCmpSemantics) {
  EXPECT_TRUE(EvalCmp(Value::Int64(1), CmpOp::kLt, Value::Double(1.5)));
  EXPECT_TRUE(EvalCmp(Value::Int64(2), CmpOp::kEq, Value::Double(2.0)));
  EXPECT_TRUE(EvalCmp(Value::String("a"), CmpOp::kLt, Value::String("b")));
  // NULL never compares true.
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                   CmpOp::kGe}) {
    EXPECT_FALSE(EvalCmp(Value::Null(), op, Value::Int64(1)));
  }
  // Cross-family: only <> is true.
  EXPECT_TRUE(EvalCmp(Value::Int64(1), CmpOp::kNe, Value::String("1")));
  EXPECT_FALSE(EvalCmp(Value::Int64(1), CmpOp::kEq, Value::String("1")));
  EXPECT_FALSE(EvalCmp(Value::Int64(1), CmpOp::kLt, Value::String("1")));
}

TEST(ExpressionTest, EvalScalarPredicate) {
  ColumnIndexMap layout = {{"A", 0}, {"B", 1}};
  Row row = R({3, 5});
  EXPECT_TRUE(EvalScalarPredicate(
      Predicate{Operand::Column("A"), CmpOp::kLt, Operand::Column("B")}, row,
      layout));
  EXPECT_FALSE(EvalScalarPredicate(
      Predicate{Operand::Column("A"), CmpOp::kEq,
                Operand::Constant(Value::Int64(4))},
      row, layout));
  // Unresolvable column acts as NULL.
  EXPECT_FALSE(EvalScalarPredicate(
      Predicate{Operand::Column("Z"), CmpOp::kEq, Operand::Column("A")}, row,
      layout));
}

TEST(AggregatorTest, AllFunctions) {
  struct Case {
    AggFn fn;
    Value expected;
  };
  std::vector<Value> inputs = {Value::Int64(3), Value::Null(), Value::Int64(1),
                               Value::Int64(4)};
  std::vector<Case> cases = {{AggFn::kMin, Value::Int64(1)},
                             {AggFn::kMax, Value::Int64(4)},
                             {AggFn::kSum, Value::Int64(8)},
                             {AggFn::kCount, Value::Int64(3)},  // NULL skipped
                             {AggFn::kAvg, Value::Double(8.0 / 3)}};
  for (const Case& c : cases) {
    Aggregator agg(c.fn);
    for (const Value& v : inputs) agg.Add(v);
    EXPECT_EQ(agg.Finish(), c.expected) << AggFnToString(c.fn);
  }
}

TEST(AggregatorTest, EmptyInputs) {
  EXPECT_TRUE(Aggregator(AggFn::kMin).Finish().is_null());
  EXPECT_TRUE(Aggregator(AggFn::kSum).Finish().is_null());
  EXPECT_TRUE(Aggregator(AggFn::kAvg).Finish().is_null());
  EXPECT_EQ(Aggregator(AggFn::kCount).Finish(), Value::Int64(0));
}

TEST(AggregatorTest, MixedNumericSumBecomesDouble) {
  Aggregator agg(AggFn::kSum);
  agg.Add(Value::Int64(1));
  agg.Add(Value::Double(2.5));
  EXPECT_EQ(agg.Finish(), Value::Double(3.5));
}

TEST(AggregatorTest, Int64SumIsExactAndNeverWraps) {
  const int64_t big = int64_t{1} << 62;
  Aggregator agg(AggFn::kSum);
  agg.Add(Value::Int64(big));
  agg.Add(Value::Int64(big));
  EXPECT_TRUE(agg.Overflowed());
  EXPECT_TRUE(agg.Finish().is_null());  // never -9223372036854775808
  // The sum is exact, not saturated: coming back into range is fine.
  agg.Add(Value::Int64(-big));
  EXPECT_FALSE(agg.Overflowed());
  EXPECT_EQ(agg.Finish(), Value::Int64(big));
  // A DOUBLE input makes it a double sum, which has no INT64 range.
  Aggregator mixed(AggFn::kSum);
  mixed.Add(Value::Int64(big));
  mixed.Add(Value::Int64(big));
  mixed.Add(Value::Double(0.5));
  EXPECT_FALSE(mixed.Overflowed());
  EXPECT_EQ(mixed.Finish(),
            Value::Double(2.0 * static_cast<double>(big) + 0.5));
}

// Repro C: two rows (1, 2^62) must fail SUM with kOutOfRange on the row
// engine and on the vectorized engine alike.
TEST(OperatorsTest, SumOverflowFailsTheStatementOnBothEngines) {
  const int64_t big = int64_t{1} << 62;
  std::vector<Row> rows = {R({1, big}), R({1, big})};
  std::vector<AggSpec> aggs = {AggSpec{AggFn::kSum, 1, -1}};
  for (std::vector<int> groups : {std::vector<int>{0}, std::vector<int>{}}) {
    ExecContext row_ctx;
    GroupAggregate(rows, groups, aggs, &row_ctx);
    EXPECT_EQ(row_ctx.status().code(), StatusCode::kOutOfRange);

    ColumnarTable ct = ColumnarTable::FromRows(rows, 2);
    VectorizedAggregation agg;
    ASSERT_TRUE(VectorizedAggregation::Compile(ct, groups, aggs, &agg));
    ExecContext vec_ctx;
    agg.Run(ct, nullptr, &vec_ctx);
    EXPECT_EQ(vec_ctx.status().code(), StatusCode::kOutOfRange);
  }
  // In range again after a negative row: both engines give the exact sum.
  rows.push_back(R({1, -big}));
  ExecContext ctx;
  std::vector<Row> out = GroupAggregate(rows, {0}, aggs, &ctx);
  ASSERT_TRUE(ctx.ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][1], Value::Int64(big));
  ColumnarTable ct = ColumnarTable::FromRows(rows, 2);
  VectorizedAggregation agg;
  ASSERT_TRUE(VectorizedAggregation::Compile(ct, {0}, aggs, &agg));
  std::vector<Row> vec = agg.Run(ct, nullptr, &ctx);
  ASSERT_TRUE(ctx.ok());
  EXPECT_EQ(vec, out);
}

TEST(OperatorsTest, NumericProduct) {
  EXPECT_EQ(*NumericProduct(Value::Int64(3), Value::Int64(4)),
            Value::Int64(12));
  EXPECT_EQ(*NumericProduct(Value::Int64(2), Value::Double(0.5)),
            Value::Double(1.0));
  EXPECT_TRUE(NumericProduct(Value::Null(), Value::Int64(1))->is_null());
  EXPECT_TRUE(NumericProduct(Value::String("x"), Value::Int64(1))->is_null());
  // INT64 * INT64 is checked: out of range is an error, not a wrapped value.
  const int64_t big = int64_t{1} << 62;
  EXPECT_EQ(NumericProduct(Value::Int64(big), Value::Int64(2)).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(*NumericProduct(Value::Int64(-big), Value::Int64(2)),
            Value::Int64(std::numeric_limits<int64_t>::min()));
  // A DOUBLE operand makes it a double product, which has no INT64 range.
  EXPECT_EQ(*NumericProduct(Value::Int64(big), Value::Double(4.0)),
            Value::Double(4.0 * static_cast<double>(big)));
}

TEST(OperatorsTest, FilterRows) {
  std::vector<Row> rows = {R({1, 2}), R({2, 2}), R({3, 1})};
  ColumnIndexMap layout = {{"A", 0}, {"B", 1}};
  std::vector<Row> out = FilterRows(
      rows, {Predicate{Operand::Column("A"), CmpOp::kLe, Operand::Column("B")}},
      layout);
  EXPECT_EQ(out.size(), 2u);
}

TEST(OperatorsTest, HashJoinMatchesNestedLoop) {
  std::vector<Row> left = {R({1, 10}), R({2, 20}), R({2, 21}), R({3, 30})};
  std::vector<Row> right = {R({2, 7}), R({2, 8}), R({4, 9})};
  std::vector<Row> joined = HashJoin(left, right, {{0, 0}});
  // 2 left rows with key 2 x 2 right rows = 4 results.
  EXPECT_EQ(joined.size(), 4u);
  for (const Row& row : joined) {
    EXPECT_EQ(row.size(), 4u);
    EXPECT_TRUE(row[0].SqlEquals(row[2]));
  }
}

TEST(OperatorsTest, HashJoinSkipsNullKeys) {
  std::vector<Row> left = {{Value::Null(), Value::Int64(1)}};
  std::vector<Row> right = {{Value::Null(), Value::Int64(2)}};
  EXPECT_TRUE(HashJoin(left, right, {{0, 0}}).empty());
}

TEST(OperatorsTest, HashJoinCrossTypeNumericKeys) {
  std::vector<Row> left = {{Value::Int64(2)}};
  std::vector<Row> right = {{Value::Double(2.0)}};
  EXPECT_EQ(HashJoin(left, right, {{0, 0}}).size(), 1u);
}

TEST(OperatorsTest, CartesianProduct) {
  std::vector<Row> left = {R({1}), R({2})};
  std::vector<Row> right = {R({3}), R({4}), R({5})};
  std::vector<Row> out = CartesianProduct(left, right);
  EXPECT_EQ(out.size(), 6u);
  EXPECT_EQ(out[0], R({1, 3}));
  EXPECT_EQ(out[5], R({2, 5}));
}

TEST(OperatorsTest, GroupAggregate) {
  std::vector<Row> rows = {R({1, 10}), R({1, 20}), R({2, 5})};
  std::vector<Row> out =
      GroupAggregate(rows, {0}, {AggSpec{AggFn::kSum, 1, -1},
                                 AggSpec{AggFn::kCount, 1, -1}});
  ASSERT_EQ(out.size(), 2u);
  std::sort(out.begin(), out.end(),
            [](const Row& a, const Row& b) { return CompareRows(a, b) < 0; });
  EXPECT_EQ(out[0], R({1, 30, 2}));
  EXPECT_EQ(out[1], R({2, 5, 1}));
}

TEST(OperatorsTest, GroupAggregateScaled) {
  // SUM(B * N): (10*2) + (20*3) = 80.
  std::vector<Row> rows = {R({1, 10, 2}), R({1, 20, 3})};
  std::vector<Row> out =
      GroupAggregate(rows, {0}, {AggSpec{AggFn::kSum, 1, 2}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], R({1, 80}));
}

TEST(OperatorsTest, GlobalGroupOnEmptyInput) {
  std::vector<Row> out = GroupAggregate({}, {}, {AggSpec{AggFn::kCount, 0, -1},
                                                 AggSpec{AggFn::kSum, 0, -1}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0], Value::Int64(0));
  EXPECT_TRUE(out[0][1].is_null());
}

TEST(OperatorsTest, GroupedEmptyInputYieldsNoGroups) {
  EXPECT_TRUE(GroupAggregate({}, {0}, {AggSpec{AggFn::kCount, 0, -1}}).empty());
}

TEST(OperatorsTest, DistinctAndProject) {
  std::vector<Row> rows = {R({1, 2}), R({1, 2}), R({1, 3})};
  EXPECT_EQ(DistinctRows(rows).size(), 2u);
  std::vector<Row> projected = ProjectRows(rows, {1});
  EXPECT_EQ(projected[2], R({3}));
}

TEST(PlannerTest, ClassifyPredicates) {
  Query q = QueryBuilder()
                .From("R", {"A", "B"})
                .From("S", {"C", "D"})
                .Select("A")
                .WhereCols("A", CmpOp::kEq, "C")   // equi-join
                .WhereConst("B", CmpOp::kLt, Value::Int64(5))  // single table
                .WhereCols("B", CmpOp::kLt, "D")   // multi-table non-equi
                .BuildOrDie();
  PredicateClassification cls = ClassifyPredicates(q);
  EXPECT_EQ(cls.equi_joins.size(), 1u);
  EXPECT_EQ(cls.single_table[0].size(), 1u);
  EXPECT_TRUE(cls.single_table[1].empty());
  EXPECT_EQ(cls.multi_table.size(), 1u);
}

TEST(PlannerTest, GreedyJoinOrderPrefersConnectedSmall) {
  // Sizes: T0=100, T1=5, T2=50; edge T0-T2 only.
  std::vector<PredicateClassification::JoinEdge> edges = {
      {0, 2, "x", "y"}};
  std::vector<int> order = GreedyJoinOrder({100, 5, 50}, edges);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);  // smallest first
  // Then nothing is connected to T1; smallest (T2) next, then T0 via edge.
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 0);
}

}  // namespace
}  // namespace aqv
