#include <tuple>
#include <utility>

#include <gtest/gtest.h>

#include "exec/evaluator.h"
#include "ir/builder.h"
#include "ir/printer.h"
#include "rewrite/cost.h"
#include "rewrite/optimizer.h"
#include "rewrite/rewriter.h"
#include "tests/test_util.h"
#include "workload/telephony.h"

namespace aqv {
namespace {

TEST(CostTest, SmallerInputIsCheaper) {
  Database db;
  Table big({"A", "B"});
  for (int i = 0; i < 1000; ++i) {
    big.AddRowOrDie({Value::Int64(i), Value::Int64(i)});
  }
  db.Put("Big", std::move(big));
  Table small({"A", "B"});
  for (int i = 0; i < 10; ++i) {
    small.AddRowOrDie({Value::Int64(i), Value::Int64(i)});
  }
  db.Put("Small", std::move(small));

  CostModel model;
  Query on_big = QueryBuilder().From("Big", {"A1", "B1"}).Select("A1").BuildOrDie();
  Query on_small =
      QueryBuilder().From("Small", {"A1", "B1"}).Select("A1").BuildOrDie();
  EXPECT_GT(model.Estimate(on_big, db), model.Estimate(on_small, db));
}

TEST(CostTest, UnknownInputIsExpensive) {
  Database db;
  CostModel model;
  Query q = QueryBuilder().From("Mystery", {"A1"}).Select("A1").BuildOrDie();
  EXPECT_GE(model.Estimate(q, db), 1e12);
}

TEST(CostTest, JoinCostsMoreThanScan) {
  Database db;
  Table t({"A"});
  for (int i = 0; i < 100; ++i) t.AddRowOrDie({Value::Int64(i)});
  db.Put("T", std::move(t));
  CostModel model;
  Query scan = QueryBuilder().From("T", {"A1"}).Select("A1").BuildOrDie();
  Query cross = QueryBuilder()
                    .From("T", {"A1"})
                    .From("T", {"A2"})
                    .Select("A1")
                    .BuildOrDie();
  EXPECT_GT(model.Estimate(cross, db), model.Estimate(scan, db));
}

TEST(CostTest, ChoosesSummaryViewForTelephonyQuery) {
  TelephonyParams params;
  params.num_calls = 20000;
  TelephonyWorkload w = MakeTelephonyWorkload(params);

  // Materialize V1 so the cost model can see its (small) cardinality.
  Evaluator eval(&w.db, &w.views);
  ASSERT_OK_AND_ASSIGN(Table v1, eval.MaterializeView("V1"));
  ASSERT_LT(v1.num_rows(), 2000u);
  w.db.Put("V1", std::move(v1));

  Rewriter rewriter(&w.views);
  ASSERT_OK_AND_ASSIGN(Query rewritten, rewriter.RewriteUsingView(w.query, "V1"));

  PlanCandidates candidates{w.query, {rewritten}};
  PlanChoice choice = ChoosePlan(candidates, w.db);
  EXPECT_EQ(choice.index, 0);
  EXPECT_TRUE(ChosenQuery(candidates, choice) == rewritten);
  EXPECT_LT(choice.cost_chosen, choice.cost_original);

  CostModel model;
  EXPECT_LT(model.Estimate(rewritten, w.db),
            model.Estimate(w.query, w.db) / 10);
}

/// R(A, B) with 100 rows, S(C, D) with 50 and T(E, F) with 20: the inputs
/// of the exact-value cases below.
Database PinnedDb() {
  Database db;
  for (const auto& [name, columns, rows] :
       {std::tuple<const char*, std::vector<std::string>, int>{
            "R", {"A", "B"}, 100},
        {"S", {"C", "D"}, 50},
        {"T", {"E", "F"}, 20}}) {
    Table t(columns);
    for (int i = 0; i < rows; ++i) {
      t.AddRowOrDie({Value::Int64(i), Value::Int64(i % 50)});
    }
    db.Put(name, std::move(t));
  }
  return db;
}

// Exact costs: the optimizer's rewrite choices depend on them bit for bit,
// so any drift here changes which plan a query runs.
TEST(CostTest, PinnedTwoTableJoinCost) {
  Database db = PinnedDb();
  for (const auto& [op, value] : {std::pair{CmpOp::kEq, 7}, {CmpOp::kGe, 0}}) {
    Query q = QueryBuilder()
                  .From("R", {"A1", "B1"})
                  .From("S", {"C2", "D2"})
                  .Select("A1")
                  .SelectAgg(AggFn::kSum, "D2")
                  .WhereCols("B1", CmpOp::kEq, "C2")
                  .WhereConst("A1", op, Value::Int64(value))
                  .GroupBy("A1")
                  .BuildOrDie();
    EXPECT_EQ(CostModel{}.Estimate(q, db), 180.0) << ToSql(q);
  }
}

TEST(CostTest, PinnedThreeTableCostWithNonEquiPredicate) {
  Database db = PinnedDb();
  Query q = QueryBuilder()
                .From("R", {"A1", "B1"})
                .From("S", {"C2", "D2"})
                .From("T", {"E3", "F3"})
                .Select("A1")
                .SelectAgg(AggFn::kSum, "F3")
                .WhereCols("B1", CmpOp::kEq, "C2")
                .WhereCols("D2", CmpOp::kEq, "E3")
                .WhereCols("A1", CmpOp::kLt, "F3")
                .WhereConst("F3", CmpOp::kGt, Value::Int64(3))
                .GroupBy("A1")
                .BuildOrDie();
  EXPECT_EQ(CostModel{}.Estimate(q, db), 179.0) << ToSql(q);
}

TEST(CostTest, PinnedUnknownInputCost) {
  Database db = PinnedDb();
  Query q = QueryBuilder()
                .From("R", {"A1", "B1"})
                .From("V", {"X2"})
                .Select("A1")
                .WhereCols("B1", CmpOp::kEq, "X2")
                .WhereConst("A1", CmpOp::kLt, Value::Int64(10))
                .BuildOrDie();
  EXPECT_EQ(CostModel{}.Estimate(q, db), 1600000000100.0) << ToSql(q);
}

}  // namespace
}  // namespace aqv
