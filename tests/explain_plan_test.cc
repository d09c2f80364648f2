#include <gtest/gtest.h>

#include "exec/evaluator.h"
#include "exec/explain_plan.h"
#include "ir/builder.h"
#include "tests/test_util.h"

namespace aqv {
namespace {

Database SmallDb() {
  Database db;
  Table r({"a", "b"});
  for (int i = 0; i < 10; ++i) {
    r.AddRowOrDie({Value::Int64(i), Value::Int64(i)});
  }
  db.Put("R", std::move(r));
  Table s({"c", "d"});
  for (int i = 0; i < 100; ++i) {
    s.AddRowOrDie({Value::Int64(i), Value::Int64(i)});
  }
  db.Put("S", std::move(s));
  return db;
}

TEST(ExplainPlanTest, ShowsScanFilterJoinAggregate) {
  Database db = SmallDb();
  Query q = QueryBuilder()
                .From("R", {"A1", "B1"})
                .From("S", {"C1", "D1"})
                .Select("A1")
                .SelectAgg(AggFn::kSum, "D1", "s")
                .WhereCols("B1", CmpOp::kEq, "C1")
                .WhereConst("D1", CmpOp::kLt, Value::Int64(50))
                .GroupBy("A1")
                .HavingAgg(AggFn::kSum, "D1", CmpOp::kGt, Value::Int64(5))
                .BuildOrDie();
  ASSERT_OK_AND_ASSIGN(std::string plan, ExplainPlan(q, db));
  // The smaller input (R) leads; S is hash-joined with a pushed filter.
  EXPECT_NE(plan.find("Scan R [10 rows]"), std::string::npos) << plan;
  EXPECT_NE(plan.find("HashJoin(B1 = C1) with S [100 rows] filter(D1 < 50)"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("HashAggregate(groups: A1; aggregates: SUM(D1))"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("Having(SUM(D1) > 5)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Project("), std::string::npos) << plan;
}

TEST(ExplainPlanTest, CartesianWhenDisconnected) {
  Database db = SmallDb();
  Query q = QueryBuilder()
                .From("R", {"A1", "B1"})
                .From("S", {"C1", "D1"})
                .Select("A1")
                .Select("C1")
                .BuildOrDie();
  ASSERT_OK_AND_ASSIGN(std::string plan, ExplainPlan(q, db));
  EXPECT_NE(plan.find("CartesianProduct"), std::string::npos) << plan;
}

TEST(ExplainPlanTest, MultiTableNonEquiShowsAsFilter) {
  Database db = SmallDb();
  Query q = QueryBuilder()
                .From("R", {"A1", "B1"})
                .From("S", {"C1", "D1"})
                .Select("A1")
                .WhereCols("B1", CmpOp::kLt, "C1")
                .BuildOrDie();
  ASSERT_OK_AND_ASSIGN(std::string plan, ExplainPlan(q, db));
  EXPECT_NE(plan.find("Filter(B1 < C1)"), std::string::npos) << plan;
}

TEST(ExplainPlanTest, VirtualViewAnnotated) {
  Database db = SmallDb();
  ViewRegistry views;
  ASSERT_OK(views.Register(ViewDef{
      "V", QueryBuilder().From("R", {"x", "y"}).Select("x").BuildOrDie()}));
  Query q = QueryBuilder().From("V", {"A1"}).Select("A1").BuildOrDie();
  ASSERT_OK_AND_ASSIGN(std::string plan, ExplainPlan(q, db, &views));
  EXPECT_NE(plan.find("V [virtual]"), std::string::npos) << plan;
}

TEST(ExplainPlanTest, GlobalAggregateAndDistinct) {
  Database db = SmallDb();
  Query q = QueryBuilder()
                .From("R", {"A1", "B1"})
                .SelectAgg(AggFn::kCount, "A1", "n")
                .BuildOrDie();
  ASSERT_OK_AND_ASSIGN(std::string plan, ExplainPlan(q, db));
  EXPECT_NE(plan.find("groups: <global>"), std::string::npos) << plan;

  Query d = QueryBuilder()
                .From("R", {"A1", "B1"})
                .Distinct()
                .Select("A1")
                .BuildOrDie();
  ASSERT_OK_AND_ASSIGN(std::string plan2, ExplainPlan(d, db));
  EXPECT_NE(plan2.find("ProjectDistinct("), std::string::npos) << plan2;
}

// EXPLAIN ANALYZE shows how many of a Scan's chunks were read: a filter
// whose zone maps rule out a chunk skips it.
TEST(ExplainPlanTest, AnalyzedScanCountsChunksReadAndSkipped) {
  Table big({"k", "v"});
  std::vector<Row> rows;
  for (size_t i = 0; i < kChunkRows + 100; ++i) {
    rows.push_back({Value::Int64(static_cast<int64_t>(i)), Value::Int64(1)});
  }
  ASSERT_OK(big.AddRows(std::move(rows)));
  ASSERT_EQ(big.chunks().size(), 2u);
  Database db;
  db.Put("B", std::move(big));
  const int64_t last = static_cast<int64_t>(kChunkRows);
  struct Case {
    Query query;
    const char* chunks;
  };
  const Case cases[] = {
      {QueryBuilder()
           .From("B", {"K1", "V1"})
           .Select("K1")
           .WhereConst("K1", CmpOp::kGe, Value::Int64(last))
           .BuildOrDie(),
       "chunks=1/2"},
      {QueryBuilder()
           .From("B", {"K1", "V1"})
           .SelectAgg(AggFn::kSum, "V1", "s")
           .WhereConst("K1", CmpOp::kLt, Value::Int64(0))
           .BuildOrDie(),
       "chunks=0/2"},
      {QueryBuilder()
           .From("B", {"K1", "V1"})
           .SelectAgg(AggFn::kSum, "V1", "s")
           .WhereConst("V1", CmpOp::kEq, Value::Int64(1))
           .BuildOrDie(),
       "chunks=2/2"},
      {QueryBuilder()
           .From("B", {"K1", "V1"})
           .Select("K1")
           .BuildOrDie(),
       "chunks=2/2"},
  };
  for (const Case& c : cases) {
    Evaluator eval(&db);
    ASSERT_OK(eval.Execute(c.query).status());
    ASSERT_NE(eval.executed_plan(), nullptr);
    std::string plan = RenderPlan(*eval.executed_plan(), true);
    EXPECT_NE(plan.find("Scan B [" + std::to_string(kChunkRows + 100) +
                        " rows]"),
              std::string::npos)
        << plan;
    EXPECT_NE(plan.find(c.chunks), std::string::npos) << plan;
    // The unanalyzed plan has no actuals to show.
    EXPECT_EQ(RenderPlan(*eval.executed_plan(), false).find("chunks="),
              std::string::npos);
  }
}

TEST(ExplainPlanTest, UnknownTableFails) {
  Database db = SmallDb();
  Query q = QueryBuilder().From("Nope", {"A1"}).Select("A1").BuildOrDie();
  EXPECT_EQ(ExplainPlan(q, db).status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace aqv
