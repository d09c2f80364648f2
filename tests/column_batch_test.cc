// Batch-layer property and edge-case tests (PR 8). The columnar image must
// round-trip rows exactly at every null-bitmap word and batch boundary, the
// string dictionary must survive growth well past its initial bucket count,
// and the compiled vectorized operators must agree with their row-engine
// counterparts on inputs engineered to straddle batch boundaries (group
// splits, extremum ties). The last tests are the mid-operator governance
// regression: a deadline or row budget must cancel INSIDE a 1M-row
// vectorized scan, at batch granularity, not after the operator finishes.

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/exec_context.h"
#include "exec/column_batch.h"
#include "exec/evaluator.h"
#include "exec/expression.h"
#include "exec/operators.h"
#include "exec/table.h"
#include "exec/vectorized.h"
#include "ir/query.h"
#include "tests/test_util.h"

namespace aqv {
namespace {

Table ToTable(const std::vector<Row>& rows, int arity) {
  std::vector<std::string> cols;
  for (int i = 0; i < arity; ++i) cols.push_back("c" + std::to_string(i));
  Table t(std::move(cols));
  for (const Row& r : rows) t.AddRowOrDie(r);
  return t;
}

/// Exact multiset comparison of two operator outputs, through the same
/// total order MultisetEqual uses (it distinguishes INT64 from DOUBLE on
/// numeric ties, so a vectorized aggregate that changes a value's type
/// fails here even when the numbers agree).
void ExpectSameRows(const std::vector<Row>& got, const std::vector<Row>& want,
                    int arity) {
  Table g = ToTable(got, arity);
  Table w = ToTable(want, arity);
  EXPECT_TRUE(MultisetEqual(g, w)) << DescribeMultisetDifference(g, w)
                                   << "\nvectorized:\n" << g.ToString()
                                   << "row engine:\n" << w.ToString();
}

// Sizes that exercise every boundary of the 64-bit null words and of the
// 1024-row processing batch: exact multiples and their neighbours.
const size_t kBoundarySizes[] = {0,    1,    63,   64,   65,   1023,
                                 1024, 1025, 2047, 2048, 2049};

// ---------------------------------------------------------------------------
// Exact INT64 bounds recorded while pivoting, and the dense group-id
// decision they drive.

TEST(ColumnBatchTest, PivotRecordsExactInt64Bounds) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t two53 = int64_t{1} << 53;
  // Columns: INT64 with NULLs and values that share a double; INT64 at the
  // type's extremes; all NULL; DOUBLE; strings.
  std::vector<Row> rows = {
      {Value::Null(), Value::Int64(kMax), Value::Null(), Value::Double(1.5),
       Value::String("b")},
      {Value::Int64(two53 + 1), Value::Int64(kMin), Value::Null(),
       Value::Double(-2.0), Value::String("a")},
      {Value::Int64(two53), Value::Int64(0), Value::Null(), Value::Double(7.0),
       Value::Null()},
      {Value::Null(), Value::Int64(-1), Value::Null(), Value::Null(),
       Value::String("b")},
  };
  ColumnarTable t = ColumnarTable::FromRows(rows, 5);
  EXPECT_EQ(t.col(0).i64_min, two53);  // NULL slots (payload 0) don't count
  EXPECT_EQ(t.col(0).i64_max, two53 + 1);
  EXPECT_EQ(t.col(1).i64_min, kMin);
  EXPECT_EQ(t.col(1).i64_max, kMax);
  EXPECT_GT(t.col(2).i64_min, t.col(2).i64_max);  // no values: empty range
  // Bounds are an INT64 fact; other storage classes leave them empty.
  EXPECT_EQ(t.col(3).type, ColumnType::kDouble);
  EXPECT_GT(t.col(3).i64_min, t.col(3).i64_max);
  EXPECT_GT(t.col(4).i64_min, t.col(4).i64_max);
  ColumnarTable empty = ColumnarTable::FromRows({}, 5);
  EXPECT_GT(empty.col(0).i64_min, empty.col(0).i64_max);

  // Dense slots: (range + 1 NULL slot) per grouping column.
  auto dense = [&](std::vector<int> groups) {
    VectorizedAggregation agg;
    EXPECT_TRUE(VectorizedAggregation::Compile(t, groups, {}, &agg));
    return agg.DenseSlotCount(t);
  };
  EXPECT_EQ(dense({0}), 3u);        // NULL, 2^53, 2^53 + 1
  EXPECT_EQ(dense({2}), 1u);        // NULL only
  EXPECT_EQ(dense({4}), 3u);        // NULL, two dictionary codes
  EXPECT_EQ(dense({0, 4, 2}), 9u);  // the product
  EXPECT_EQ(dense({1}), 0u);        // a span of 2^64 - 1: hash path
  EXPECT_EQ(dense({3}), 0u);        // DOUBLE keys: hash path
  EXPECT_EQ(dense({}), 0u);         // a global aggregate has no key
}

TEST(ColumnBatchTest, DenseBudgetEdgeAndResults) {
  // One column spanning kDenseGroupSlots - 1 values fits with its NULL
  // slot; one more value does not. The slots may also number at most four
  // per folded row. Both paths agree with the row engine.
  const int64_t budget =
      static_cast<int64_t>(VectorizedAggregation::kDenseGroupSlots);
  const struct {
    int64_t n;
    int64_t span;
    bool dense;
  } cases[] = {
      {budget / 4, budget - 1, true},  // 2^16 slots, 4 per row
      {budget / 4, budget, false},     // over the fixed budget
      {3000, 11999, true},             // 12000 slots, 4 per row
      {3000, 12000, false},            // one slot over 4 per row
  };
  for (const auto& [n, span, dense] : cases) {
    SCOPED_TRACE(testing::Message() << n << " rows, span " << span);
    std::vector<Row> rows;
    for (int64_t i = 0; i < n; ++i) {
      // Rows 1 and 2 pin the bounds; every 17th row (row 0 too) is NULL.
      const int64_t key =
          i == 1 ? -7 : (i == 2 ? -7 + span - 1 : -7 + (i * 37) % span);
      rows.push_back({i % 17 == 0 ? Value::Null() : Value::Int64(key),
                      Value::Int64(i)});
    }
    ColumnarTable t = ColumnarTable::FromRows(rows, 2);
    EXPECT_EQ(t.col(0).i64_min, -7);
    EXPECT_EQ(t.col(0).i64_max, -7 + span - 1);
    std::vector<AggSpec> aggs = {{AggFn::kCount, 1, -1},
                                 {AggFn::kSum, 1, -1},
                                 {AggFn::kMax, 1, -1}};
    VectorizedAggregation agg;
    ASSERT_TRUE(VectorizedAggregation::Compile(t, {0}, aggs, &agg));
    EXPECT_EQ(agg.DenseSlotCount(t), dense ? static_cast<size_t>(span + 1)
                                           : 0u);
    ExpectSameRows(agg.Run(t, nullptr, nullptr),
                   GroupAggregate(rows, {0}, aggs), 4);
  }
}

// ---------------------------------------------------------------------------
// Round-trip at bitmap/batch boundaries.

TEST(ColumnBatchTest, RoundTripsRowsAtEveryBoundarySize) {
  for (size_t n : kBoundarySizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<Row> rows;
    rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Row r;
      r.push_back(i % 7 == 0 ? Value::Null()
                             : Value::Int64(static_cast<int64_t>(i)));
      r.push_back(i % 11 == 3 ? Value::Null() : Value::Double(0.5 * i));
      r.push_back(i % 5 == 2 ? Value::Null()
                             : Value::String("s" + std::to_string(i % 97)));
      rows.push_back(std::move(r));
    }
    ColumnarTable ct = ColumnarTable::FromRows(rows, 3);
    ASSERT_EQ(ct.num_rows(), n);
    ASSERT_EQ(ct.num_columns(), 3);
    for (size_t i = 0; i < n; ++i) {
      for (int c = 0; c < 3; ++c) {
        EXPECT_EQ(ct.col(c).IsNull(i), rows[i][c].is_null())
            << "row " << i << " col " << c;
        EXPECT_EQ(ct.ValueAt(c, i), rows[i][c]) << "row " << i << " col " << c;
      }
      Row rebuilt;
      ct.AppendRowTo(i, &rebuilt);
      EXPECT_EQ(CompareRows(rebuilt, rows[i]), 0) << "row " << i;
    }
  }
}

// NULLs planted exactly at the word/batch boundary rows: the filter must
// treat them as failing the predicate (SQL comparison semantics), with no
// off-by-one in the bitmap probe at row 1023 vs 1024 vs 1025.
TEST(ColumnBatchTest, FilterMatchesRowEngineWithNullsAtBoundaries) {
  ColumnIndexMap layout{{"A", 0}, {"B", 1}};
  std::vector<Predicate> preds{
      {Operand::Column("A"), CmpOp::kGe, Operand::Constant(Value::Int64(0))}};
  for (size_t n : kBoundarySizes) {
    if (n == 0) continue;
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<Row> rows;
    for (size_t i = 0; i < n; ++i) {
      // NULL at every boundary row and its neighbours.
      bool null_here = false;
      for (size_t b : {size_t{63}, size_t{64}, size_t{1023}, size_t{1024},
                       size_t{2047}, size_t{2048}}) {
        if (i + 1 == b || i == b || i == b + 1) null_here = true;
      }
      rows.push_back(Row{null_here ? Value::Null()
                                   : Value::Int64(static_cast<int64_t>(i)),
                         Value::Int64(static_cast<int64_t>(i))});
    }
    ColumnarTable ct = ColumnarTable::FromRows(rows, 2);
    CompiledFilter filter;
    ASSERT_TRUE(CompiledFilter::Compile(preds, layout, ct, &filter));
    std::vector<Row> got;
    GatherRows(ct, filter.Run(ct, nullptr), &got);
    std::vector<Row> want = FilterRows(rows, preds, layout);
    ExpectSameRows(got, want, 2);
  }
}

// ---------------------------------------------------------------------------
// String dictionary growth.

TEST(ColumnBatchTest, DictionarySurvivesGrowthPastRehash) {
  // ~10k distinct strings force the code-assignment hash map through many
  // rehashes; repeats must keep their first-assigned code.
  constexpr int kDistinct = 10000;
  std::vector<Row> rows;
  for (int i = 0; i < 3 * kDistinct; ++i) {
    rows.push_back(Row{Value::String("k" + std::to_string(i % kDistinct)),
                       Value::Int64(i)});
  }
  ColumnarTable ct = ColumnarTable::FromRows(rows, 2);
  ASSERT_EQ(ct.col(0).type, ColumnType::kString);
  EXPECT_EQ(ct.col(0).dict.size(), static_cast<size_t>(kDistinct));
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(ct.ValueAt(0, i), rows[i][0]) << "row " << i;
  }
  // Equal strings share one code (first-occurrence assignment).
  EXPECT_EQ(ct.col(0).codes[0], ct.col(0).codes[kDistinct]);

  // A constant comparison over the large dictionary reduces to a per-code
  // mask; it must agree with the row engine.
  ColumnIndexMap layout{{"S", 0}, {"N", 1}};
  std::vector<Predicate> preds{{Operand::Column("S"), CmpOp::kEq,
                                Operand::Constant(Value::String("k5000"))}};
  CompiledFilter filter;
  ASSERT_TRUE(CompiledFilter::Compile(preds, layout, ct, &filter));
  std::vector<Row> got;
  GatherRows(ct, filter.Run(ct, nullptr), &got);
  std::vector<Row> want = FilterRows(rows, preds, layout);
  ASSERT_EQ(want.size(), 3u);
  ExpectSameRows(got, want, 2);
}

// ---------------------------------------------------------------------------
// Aggregation across batch boundaries.

TEST(ColumnBatchTest, GroupsSplitAcrossBatchBoundariesMatchRowEngine) {
  // Interleaved group keys: every group's rows straddle several batch
  // boundaries. NULL-heavy aggregate inputs exercise the skip paths.
  std::vector<Row> rows;
  for (int i = 0; i < 5000; ++i) {
    rows.push_back(Row{Value::Int64(i % 7),
                       i % 13 == 0 ? Value::Null() : Value::Int64(i),
                       i % 3 == 0 ? Value::Null() : Value::Double(0.25 * i)});
  }
  std::vector<int> group_cols{0};
  std::vector<AggSpec> aggs{{AggFn::kSum, 1},   {AggFn::kCount, 1},
                            {AggFn::kMin, 1},   {AggFn::kMax, 1},
                            {AggFn::kAvg, 2},   {AggFn::kSum, 2},
                            {AggFn::kMin, 2}};
  ColumnarTable ct = ColumnarTable::FromRows(rows, 3);
  VectorizedAggregation agg;
  ASSERT_TRUE(VectorizedAggregation::Compile(ct, group_cols, aggs, &agg));
  std::vector<Row> got = agg.Run(ct, nullptr, nullptr);
  std::vector<Row> want = GroupAggregate(rows, group_cols, aggs);
  ASSERT_EQ(want.size(), 7u);
  // MultisetEqual's total order is exact on doubles, so this asserts
  // bit-identical SUM/AVG, not approximate agreement.
  ExpectSameRows(got, want, 1 + static_cast<int>(aggs.size()));

  // The same aggregation under a selection (every third row) must match the
  // row engine over the same filtered input.
  ColumnIndexMap layout{{"G", 0}, {"X", 1}, {"Y", 2}};
  std::vector<Predicate> preds{
      {Operand::Column("X"), CmpOp::kGt, Operand::Constant(Value::Int64(100))}};
  CompiledFilter filter;
  ASSERT_TRUE(CompiledFilter::Compile(preds, layout, ct, &filter));
  SelVector sel = filter.Run(ct, nullptr);
  std::vector<Row> got_sel = agg.Run(ct, &sel, nullptr);
  std::vector<Row> want_sel =
      GroupAggregate(FilterRows(rows, preds, layout), group_cols, aggs);
  ExpectSameRows(got_sel, want_sel, 1 + static_cast<int>(aggs.size()));
}

TEST(ColumnBatchTest, ExtremumTiesStraddlingBatchesKeepFirstEncountered) {
  // (a) DOUBLE zero signs: -0.0 and +0.0 tie under SQL comparison, so the
  // running extremum keeps whichever it saw first. Plant +0.0 in batch 0 and
  // -0.0 in batch 2: both engines must report the row-order winner (+0.0).
  {
    std::vector<Row> rows;
    for (int i = 0; i < 3000; ++i) {
      double v = (i == 10) ? 0.0 : (i == 2500) ? -0.0 : 1.0 + i;
      rows.push_back(Row{Value::Int64(0), Value::Double(v)});
    }
    std::vector<AggSpec> aggs{{AggFn::kMin, 1}};
    ColumnarTable ct = ColumnarTable::FromRows(rows, 2);
    VectorizedAggregation agg;
    ASSERT_TRUE(VectorizedAggregation::Compile(ct, {0}, aggs, &agg));
    std::vector<Row> got = agg.Run(ct, nullptr, nullptr);
    std::vector<Row> want = GroupAggregate(rows, {0}, aggs);
    ASSERT_EQ(got.size(), 1u);
    ASSERT_EQ(want.size(), 1u);
    ASSERT_EQ(got[0][1].type(), ValueType::kDouble);
    EXPECT_EQ(std::signbit(got[0][1].dbl()), std::signbit(want[0][1].dbl()));
    EXPECT_FALSE(std::signbit(got[0][1].dbl())) << "+0.0 came first";
  }
  // (b) INT64 values that collide as doubles: the row engine compares
  // extrema through double conversion, so 2^62 and 2^62+1 tie and the first
  // one wins. The vectorized engine must reproduce that, not "fix" it.
  {
    constexpr int64_t kBig = int64_t{1} << 62;
    std::vector<Row> rows;
    for (int i = 0; i < 3000; ++i) {
      int64_t v = (i == 100) ? kBig + 1 : (i == 2500) ? kBig : kBig + 2;
      rows.push_back(Row{Value::Int64(0), Value::Int64(v)});
    }
    std::vector<AggSpec> aggs{{AggFn::kMin, 1}, {AggFn::kMax, 1}};
    ColumnarTable ct = ColumnarTable::FromRows(rows, 2);
    VectorizedAggregation agg;
    ASSERT_TRUE(VectorizedAggregation::Compile(ct, {0}, aggs, &agg));
    std::vector<Row> got = agg.Run(ct, nullptr, nullptr);
    std::vector<Row> want = GroupAggregate(rows, {0}, aggs);
    ExpectSameRows(got, want, 3);
  }
}

// ---------------------------------------------------------------------------
// Degenerate shapes.

TEST(ColumnBatchTest, EmptySingleRowAndAllNullInputs) {
  std::vector<AggSpec> aggs{
      {AggFn::kSum, 1}, {AggFn::kCount, 1}, {AggFn::kAvg, 1}, {AggFn::kMin, 1}};

  // Empty input, global group: one output row (COUNT 0, the rest NULL).
  {
    std::vector<Row> rows;
    ColumnarTable ct = ColumnarTable::FromRows(rows, 2);
    VectorizedAggregation agg;
    ASSERT_TRUE(VectorizedAggregation::Compile(ct, {}, aggs, &agg));
    std::vector<Row> got = agg.Run(ct, nullptr, nullptr);
    std::vector<Row> want = GroupAggregate(rows, {}, aggs);
    ASSERT_EQ(want.size(), 1u);
    ExpectSameRows(got, want, static_cast<int>(aggs.size()));
  }
  // Empty input, grouped: no output rows.
  {
    std::vector<Row> rows;
    ColumnarTable ct = ColumnarTable::FromRows(rows, 2);
    VectorizedAggregation agg;
    ASSERT_TRUE(VectorizedAggregation::Compile(ct, {0}, aggs, &agg));
    EXPECT_TRUE(agg.Run(ct, nullptr, nullptr).empty());
  }
  // Single-row table.
  {
    std::vector<Row> rows{Row{Value::Int64(1), Value::Double(2.5)}};
    ColumnarTable ct = ColumnarTable::FromRows(rows, 2);
    VectorizedAggregation agg;
    ASSERT_TRUE(VectorizedAggregation::Compile(ct, {0}, aggs, &agg));
    ExpectSameRows(agg.Run(ct, nullptr, nullptr),
                   GroupAggregate(rows, {0}, aggs),
                   1 + static_cast<int>(aggs.size()));
  }
  // All-NULL aggregate input and an all-NULL grouping column (one NULL-keyed
  // group). An all-null column stays typed, so the compiled path engages.
  {
    std::vector<Row> rows;
    for (int i = 0; i < 2000; ++i) {
      rows.push_back(Row{Value::Null(), Value::Null()});
    }
    ColumnarTable ct = ColumnarTable::FromRows(rows, 2);
    ASSERT_TRUE(ct.ColumnVectorizable(0));
    VectorizedAggregation agg;
    ASSERT_TRUE(VectorizedAggregation::Compile(ct, {0}, aggs, &agg));
    std::vector<Row> got = agg.Run(ct, nullptr, nullptr);
    std::vector<Row> want = GroupAggregate(rows, {0}, aggs);
    ASSERT_EQ(want.size(), 1u);
    ExpectSameRows(got, want, 1 + static_cast<int>(aggs.size()));
  }
}

TEST(ColumnBatchTest, MixedTypeColumnDegradesAndFallsBack) {
  // INT64 then STRING in one column: the column degrades to kMixed, keeps
  // exact values, and every compiled operator refuses it.
  std::vector<Row> rows{Row{Value::Int64(1), Value::Int64(10)},
                        Row{Value::String("x"), Value::Int64(20)},
                        Row{Value::Double(1.5), Value::Int64(30)}};
  ColumnarTable ct = ColumnarTable::FromRows(rows, 2);
  ASSERT_EQ(ct.col(0).type, ColumnType::kMixed);
  EXPECT_FALSE(ct.ColumnVectorizable(0));
  EXPECT_TRUE(ct.ColumnVectorizable(1));
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(ct.ValueAt(0, i), rows[i][0]);
  }

  ColumnIndexMap layout{{"A", 0}, {"B", 1}};
  CompiledFilter filter;
  EXPECT_FALSE(CompiledFilter::Compile(
      {{Operand::Column("A"), CmpOp::kEq, Operand::Constant(Value::Int64(1))}},
      layout, ct, &filter));
  VectorizedAggregation agg;
  EXPECT_FALSE(
      VectorizedAggregation::Compile(ct, {0}, {{AggFn::kCount, 1}}, &agg));
  EXPECT_FALSE(
      VectorizedAggregation::Compile(ct, {1}, {{AggFn::kMin, 0}}, &agg));

  // The drop-in row-path wrapper reports the fallback and still answers
  // exactly like GroupAggregate.
  std::vector<Row> big;
  for (int i = 0; i < 3000; ++i) {
    big.push_back(rows[static_cast<size_t>(i) % rows.size()]);
  }
  bool used_vectorized = true;
  std::vector<Row> got = VectorizedGroupAggregateRows(
      big, {0}, {{AggFn::kCount, 1}}, nullptr, &used_vectorized);
  EXPECT_FALSE(used_vectorized);
  ExpectSameRows(got, GroupAggregate(big, {0}, {{AggFn::kCount, 1}}), 2);
}

TEST(ColumnBatchTest, MoreThanMaxGroupColsFallsBack) {
  std::vector<Row> rows;
  for (int i = 0; i < 3000; ++i) {
    Row r;
    for (int c = 0; c < 6; ++c) r.push_back(Value::Int64((i + c) % 3));
    rows.push_back(std::move(r));
  }
  ColumnarTable ct = ColumnarTable::FromRows(rows, 6);
  std::vector<int> five{0, 1, 2, 3, 4};
  VectorizedAggregation agg;
  // kMaxGroupCols grouping columns compile; one more refuses.
  std::vector<int> four(five.begin(),
                        five.begin() + VectorizedAggregation::kMaxGroupCols);
  ASSERT_TRUE(
      VectorizedAggregation::Compile(ct, four, {{AggFn::kCount, 5}}, &agg));
  ExpectSameRows(agg.Run(ct, nullptr, nullptr),
                 GroupAggregate(rows, four, {{AggFn::kCount, 5}}),
                 static_cast<int>(four.size()) + 1);
  EXPECT_FALSE(
      VectorizedAggregation::Compile(ct, five, {{AggFn::kCount, 5}}, &agg));

  bool used_vectorized = true;
  std::vector<Row> got = VectorizedGroupAggregateRows(
      rows, five, {{AggFn::kCount, 5}}, nullptr, &used_vectorized);
  EXPECT_FALSE(used_vectorized);
  ExpectSameRows(got, GroupAggregate(rows, five, {{AggFn::kCount, 5}}), 6);
}

// ---------------------------------------------------------------------------
// Mid-operator governance (the PR 8 gap fix): limits fire at batch
// granularity INSIDE a vectorized operator, never after it.

TEST(ColumnBatchTest, ExpiredDeadlineCancelsScanAfterOneBatch) {
  constexpr size_t kRows = 1000000;
  std::vector<Row> rows;
  rows.reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    rows.push_back(Row{Value::Int64(static_cast<int64_t>(i % 100)),
                       Value::Int64(static_cast<int64_t>(i))});
  }
  ColumnarTable ct = ColumnarTable::FromRows(rows, 2);
  ColumnIndexMap layout{{"A", 0}, {"B", 1}};
  std::vector<Predicate> preds{
      {Operand::Column("B"), CmpOp::kGe, Operand::Constant(Value::Int64(0))}};
  CompiledFilter filter;
  ASSERT_TRUE(CompiledFilter::Compile(preds, layout, ct, &filter));

  // The scan charges per batch and re-checks the deadline on the same
  // stride, so an already-expired deadline stops it after exactly one batch
  // of the million rows.
  {
    ExecContext ctx;
    ctx.set_deadline_after_micros(0);
    SelVector sel = filter.Run(ct, &ctx);
    EXPECT_FALSE(ctx.ok());
    EXPECT_EQ(ctx.status().code(), StatusCode::kDeadlineExceeded)
        << ctx.status().ToString();
    EXPECT_EQ(ctx.rows_charged(), kBatchRows);
    EXPECT_LE(sel.size(), kBatchRows);
  }
  // Same for the aggregation loop.
  {
    ExecContext ctx;
    ctx.set_deadline_after_micros(0);
    VectorizedAggregation agg;
    ASSERT_TRUE(
        VectorizedAggregation::Compile(ct, {0}, {{AggFn::kSum, 1}}, &agg));
    agg.Run(ct, nullptr, &ctx);
    EXPECT_EQ(ctx.status().code(), StatusCode::kDeadlineExceeded)
        << ctx.status().ToString();
    EXPECT_EQ(ctx.rows_charged(), kBatchRows);
  }
}

TEST(ColumnBatchTest, GovernanceCancelsInsideMillionRowScanEndToEnd) {
  constexpr size_t kRows = 1000000;
  Table t({"A", "B"});
  {
    std::vector<Row> rows;
    rows.reserve(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      rows.push_back(Row{Value::Int64(static_cast<int64_t>(i % 100)),
                         Value::Int64(static_cast<int64_t>(i))});
    }
    ASSERT_OK(t.AddRows(std::move(rows)));
  }
  Database db;
  db.Put("T", std::move(t));

  Query q;
  q.from = {TableRef{"T", {"A", "B"}}};
  q.select = {SelectItem::MakeColumn("A", "A"),
              SelectItem::MakeAggregate(AggFn::kSum, "B", "SB")};
  q.group_by = {"A"};

  // Sanity: unlimited, the vectorized path engages and matches the row
  // engine.
  {
    Evaluator vec_eval(&db);
    ASSERT_OK_AND_ASSIGN(Table vec_out, vec_eval.Execute(q));
    EXPECT_GE(vec_eval.stats().vectorized_ops, 2u);
    EvalOptions row_options;
    row_options.vectorized = false;
    Evaluator row_eval(&db, nullptr, row_options);
    ASSERT_OK_AND_ASSIGN(Table row_out, row_eval.Execute(q));
    EXPECT_EQ(row_eval.stats().vectorized_ops, 0u);
    EXPECT_TRUE(MultisetEqual(vec_out, row_out))
        << DescribeMultisetDifference(vec_out, row_out);
  }

  // Row budget far below the table size: the vectorized scan must stop a
  // batch past the budget — not scan the full million rows and fail after.
  {
    ExecContext ctx;
    ctx.set_row_budget(10000);
    Evaluator eval(&db);
    eval.set_context(&ctx);
    Result<Table> r = eval.Execute(q);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
        << r.status().ToString();
    EXPECT_LE(ctx.rows_charged(), 10000 + kBatchRows);
  }

  // Expired deadline: DeadlineExceeded with (far) less than one full scan
  // charged.
  {
    ExecContext ctx;
    ctx.set_deadline_after_micros(0);
    Evaluator eval(&db);
    eval.set_context(&ctx);
    Result<Table> r = eval.Execute(q);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
        << r.status().ToString();
    EXPECT_LE(ctx.rows_charged(), 2 * kBatchRows);
  }
}

}  // namespace
}  // namespace aqv
