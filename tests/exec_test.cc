#include <algorithm>
#include <bit>
#include <limits>
#include <optional>
#include <random>

#include <gtest/gtest.h>

#include "exec/agg_state.h"
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
  EXPECT_TRUE(Aggregator(AggFn::kMin).Finish()->is_null());
  EXPECT_TRUE(Aggregator(AggFn::kSum).Finish()->is_null());
  EXPECT_TRUE(Aggregator(AggFn::kAvg).Finish()->is_null());
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
  EXPECT_FALSE(agg.Finish().has_value());  // never -9223372036854775808
  // The sum is exact, not saturated: coming back into range is fine.
  agg.Add(Value::Int64(-big));
  ASSERT_TRUE(agg.Finish().has_value());
  EXPECT_EQ(agg.Finish(), Value::Int64(big));
  // A DOUBLE input makes it a double sum, which has no INT64 range.
  Aggregator mixed(AggFn::kSum);
  mixed.Add(Value::Int64(big));
  mixed.Add(Value::Int64(big));
  mixed.Add(Value::Double(0.5));
  ASSERT_TRUE(mixed.Finish().has_value());
  EXPECT_EQ(mixed.Finish(),
            Value::Double(2.0 * static_cast<double>(big) + 0.5));
}

// The value `agg` finishes to is `want`: same type, and for a DOUBLE the
// same bits (so -0.0 and 0.0 differ).
void ExpectFinishes(const std::optional<Value>& got, const Value& want) {
  ASSERT_TRUE(got.has_value()) << "INT64 sum out of range, want " << want;
  EXPECT_EQ(got->type(), want.type()) << *got << " vs " << want;
  EXPECT_EQ(*got, want);
  if (want.type() == ValueType::kDouble && got->type() == ValueType::kDouble) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got->dbl()),
              std::bit_cast<uint64_t>(want.dbl()))
        << got->dbl() << " vs " << want.dbl();
  }
}

// Folds `values` through the Value adapter.
std::optional<Value> Aggregate(AggFn fn, const std::vector<Value>& values) {
  Aggregator agg(fn);
  for (const Value& v : values) agg.Add(v);
  return agg.Finish();
}

TEST(AggStateTest, EdgeValuesThroughEveryFunction) {
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  const int64_t p53 = int64_t{1} << 53;
  auto I = [](int64_t v) { return Value::Int64(v); };
  auto D = [](double v) { return Value::Double(v); };
  auto S = [](const char* v) { return Value::String(v); };

  // INT64 min and max: exact extremes, exact in-range sums, and a sum that
  // leaves the range in either direction has no value.
  ExpectFinishes(Aggregate(AggFn::kMin, {I(hi), I(lo)}), I(lo));
  ExpectFinishes(Aggregate(AggFn::kMax, {I(lo), I(hi)}), I(hi));
  ExpectFinishes(Aggregate(AggFn::kSum, {I(hi), I(lo)}), I(-1));
  ExpectFinishes(Aggregate(AggFn::kSum, {I(hi)}), I(hi));
  ExpectFinishes(Aggregate(AggFn::kSum, {I(lo)}), I(lo));
  EXPECT_FALSE(Aggregate(AggFn::kSum, {I(hi), I(1)}).has_value());
  EXPECT_FALSE(Aggregate(AggFn::kSum, {I(lo), I(-1)}).has_value());
  EXPECT_FALSE(Aggregate(AggFn::kSum, {I(lo), I(lo)}).has_value());
  ExpectFinishes(Aggregate(AggFn::kCount, {I(lo), I(hi)}), I(2));
  // AVG divides the double sum, which has no INT64 range.
  ExpectFinishes(Aggregate(AggFn::kAvg, {I(hi), I(hi)}),
                 D(static_cast<double>(hi)));

  // +-2^53 +- 1: INT64 extremes and sums are exact; a DOUBLE operand makes
  // the comparison a double one, where 2^53 + 1 ties 2^53 and the first
  // value wins.
  ExpectFinishes(Aggregate(AggFn::kMax, {I(p53), I(p53 + 1)}), I(p53 + 1));
  ExpectFinishes(Aggregate(AggFn::kMin, {I(-p53), I(-p53 - 1)}), I(-p53 - 1));
  ExpectFinishes(Aggregate(AggFn::kMax, {D(0x1p53), I(p53 + 1)}), D(0x1p53));
  ExpectFinishes(Aggregate(AggFn::kMin, {I(-p53 - 1), D(-0x1p53)}),
                 I(-p53 - 1));
  ExpectFinishes(Aggregate(AggFn::kSum, {I(p53), I(1), I(p53 - 1)}),
                 I(2 * p53));
  ExpectFinishes(Aggregate(AggFn::kSum, {I(p53 + 1), I(-p53 - 1)}), I(0));
  // The double sum rounds in input order.
  ExpectFinishes(Aggregate(AggFn::kSum, {D(0x1p53), I(1), I(1)}), D(0x1p53));
  ExpectFinishes(Aggregate(AggFn::kSum, {I(1), I(1), D(0x1p53)}),
                 D(0x1p53 + 2));

  // -0.0: a sum starts at +0.0, so it absorbs the sign; an extreme keeps
  // the first of two zeros.
  ExpectFinishes(Aggregate(AggFn::kSum, {D(-0.0)}), D(0.0));
  ExpectFinishes(Aggregate(AggFn::kMin, {D(-0.0), D(0.0)}), D(-0.0));
  ExpectFinishes(Aggregate(AggFn::kMax, {D(0.0), D(-0.0)}), D(0.0));
  ExpectFinishes(Aggregate(AggFn::kMax, {D(-0.0), I(0)}), D(-0.0));
  ExpectFinishes(Aggregate(AggFn::kAvg, {D(-0.0), D(-0.0)}), D(0.0));

  // NULL is skipped; a function that saw only NULLs finishes like one that
  // saw nothing.
  for (AggFn fn : {AggFn::kMin, AggFn::kMax, AggFn::kSum, AggFn::kAvg}) {
    ExpectFinishes(Aggregate(fn, {Value::Null(), Value::Null()}),
                   Value::Null());
  }
  ExpectFinishes(Aggregate(AggFn::kCount, {Value::Null(), I(7)}), I(1));
  ExpectFinishes(Aggregate(AggFn::kSum, {Value::Null(), I(lo)}), I(lo));

  // Strings through the adapter: ordered as strings, counted, and the
  // first family of a MIN/MAX wins over the other.
  ExpectFinishes(Aggregate(AggFn::kMin, {S("b"), S("a"), S("c")}), S("a"));
  ExpectFinishes(Aggregate(AggFn::kMax, {S("b"), S("c"), S("a")}), S("c"));
  ExpectFinishes(Aggregate(AggFn::kCount, {S("b"), Value::Null(), S("a")}),
                 I(2));
  ExpectFinishes(Aggregate(AggFn::kMin, {S("b"), I(lo)}), S("b"));
  ExpectFinishes(Aggregate(AggFn::kMax, {D(1.5), S("z")}), D(1.5));

  // The state itself: dictionary-coded extremes resolve through the
  // caller's dictionary.
  const std::vector<std::string> dict = {"m", "a", "z"};
  AggState min_code, max_code;
  for (int32_t code : {0, 1, 2}) {
    min_code.AddExtreme(true, code, dict);
    max_code.AddExtreme(false, code, dict);
  }
  ExpectFinishes(min_code.Finish(AggFn::kMin, &dict), S("a"));
  ExpectFinishes(max_code.Finish(AggFn::kMax, &dict), S("z"));
}

TEST(AggStateTest, RetractAfterAddReturnsToZero) {
  const uint64_t seed = TestSeed(22);
  SCOPED_TRACE(SeedTrace(seed));
  std::mt19937_64 rng(seed);
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  for (int round = 0; round < 50; ++round) {
    std::vector<int64_t> values = {lo, hi, int64_t{1} << 53};
    const size_t n = rng() % 64;
    for (size_t i = 0; i < n; ++i) {
      values.push_back(static_cast<int64_t>(rng()));
    }
    std::shuffle(values.begin(), values.end(), rng);
    AggState sum, count;
    for (int64_t v : values) {
      sum.Add(v);
      count.AddCount();
    }
    // Retract in another order: the INT64 sum is exact, so any order works.
    std::shuffle(values.begin(), values.end(), rng);
    for (int64_t v : values) {
      sum.Retract(v);
      count.RetractCount();
    }
    EXPECT_EQ(sum.sum_i, 0);
    EXPECT_EQ(sum.count, 0);
    ExpectFinishes(sum.Finish(AggFn::kSum), Value::Int64(0));
    ExpectFinishes(count.Finish(AggFn::kCount), Value::Int64(0));

    // The same through the adapter, with a NULL that neither side counts.
    Aggregator agg_sum(AggFn::kSum), agg_count(AggFn::kCount);
    for (int64_t v : values) {
      agg_sum.Add(Value::Int64(v));
      agg_count.Add(Value::Int64(v));
    }
    agg_count.Add(Value::Null());
    for (int64_t v : values) {
      agg_sum.Retract(Value::Int64(v));
      agg_count.Retract(Value::Int64(v));
    }
    agg_count.Retract(Value::Null());
    ExpectFinishes(agg_sum.Finish(), Value::Int64(0));
    ExpectFinishes(agg_count.Finish(), Value::Int64(0));
  }
}

TEST(AggStateTest, MergeOfASplitEqualsOnePass) {
  const uint64_t seed = TestSeed(2022);
  SCOPED_TRACE(SeedTrace(seed));
  std::mt19937_64 rng(seed);
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  // Values drawn to hit ties, the INT64 bounds and sums that leave the
  // range part-way (or at the end).
  auto draw = [&]() -> int64_t {
    switch (rng() % 4) {
      case 0:
        return static_cast<int64_t>(rng() % 7) - 3;
      case 1:
        return rng() % 2 == 0 ? lo : hi;
      case 2:
        return static_cast<int64_t>(rng()) >> (rng() % 64);
      default:
        return static_cast<int64_t>(rng());
    }
  };
  for (int round = 0; round < 500; ++round) {
    std::vector<int64_t> values(rng() % 12);
    for (int64_t& v : values) v = draw();
    const size_t split = values.empty() ? 0 : rng() % (values.size() + 1);
    for (AggFn fn :
         {AggFn::kSum, AggFn::kCount, AggFn::kMin, AggFn::kMax}) {
      SCOPED_TRACE(AggFnToString(fn));
      const bool is_min = fn == AggFn::kMin;
      auto add = [&](AggState* st, int64_t v) {
        if (fn == AggFn::kSum) {
          st->Add(v);
        } else if (fn == AggFn::kCount) {
          st->AddCount();
        } else {
          st->AddExtreme(is_min, v);
        }
      };
      AggState whole, head, tail;
      for (size_t i = 0; i < values.size(); ++i) {
        add(&whole, values[i]);
        add(i < split ? &head : &tail, values[i]);
      }
      head.Merge(fn, tail);
      const std::optional<Value> want = whole.Finish(fn);
      const std::optional<Value> got = head.Finish(fn);
      ASSERT_EQ(got.has_value(), want.has_value());
      if (want.has_value()) ExpectFinishes(got, *want);

      // The maintainer's use: the head's finished value seeded into an
      // adapter, merged with the tail. A head sum out of range has no
      // stored value to seed.
      const std::optional<Value> stored = Aggregate(fn, [&] {
        std::vector<Value> head_values;
        for (size_t i = 0; i < split; ++i) {
          head_values.push_back(Value::Int64(values[i]));
        }
        return head_values;
      }());
      if (!stored.has_value()) continue;
      Aggregator seeded = Aggregator::Seeded(fn, *stored);
      Aggregator rest(fn);
      for (size_t i = split; i < values.size(); ++i) {
        rest.Add(Value::Int64(values[i]));
      }
      seeded.Merge(rest);
      const std::optional<Value> folded = seeded.Finish();
      ASSERT_EQ(folded.has_value(), want.has_value());
      if (want.has_value()) ExpectFinishes(folded, *want);
    }
  }
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
