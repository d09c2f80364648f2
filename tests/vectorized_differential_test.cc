// Row-vs-batch differential oracle (PR 8): the same query executed by the
// vectorized columnar engine and by the row-at-a-time engine must produce
// the same bag of rows — exactly, not approximately, since the vectorized
// aggregates accumulate in input-row order by construction.
//
// Sweeps:
//   (a) random aggregate query/view pairs, both the original query and the
//       optimizer's chosen (possibly view-substituting) plan;
//   (b) the same sweep over NULL-heavy databases (random NULL injection at
//       ~30% per value), over empty tables, and over single-row tables;
//   (c) the Example 1.1 telephony workload, direct and rewritten, plus the
//       service path with ServiceOptions::vectorized on vs off;
//   (d) tables spanning several chunks whose columnar images disagree: a
//       column INT64 in one chunk and DOUBLE in another, an all-NULL
//       chunk, a different string dictionary per chunk.
//
// Engagement is asserted — the oracle is vacuous if the columnar path
// silently falls back everywhere — and every failure prints the seed
// (replay with AQV_TEST_SEED=<n>) and the exact SQL.

#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "exec/column_batch.h"
#include "exec/evaluator.h"
#include "ir/printer.h"
#include "parser/parser.h"
#include "rewrite/optimizer.h"
#include "rewrite/rewriter.h"
#include "service/query_service.h"
#include "tests/test_util.h"
#include "workload/random_query.h"
#include "workload/telephony.h"

namespace aqv {
namespace {

constexpr int kPairsPerSweep = 15;
constexpr int kDatabasesPerPair = 2;

EvalOptions RowOptions() {
  EvalOptions options;
  options.vectorized = false;
  return options;
}

RandomPairConfig ConfigForParam(int param) {
  RandomPairConfig config;
  config.query_aggregation = (param % 2) == 0;
  config.view_aggregation = (param % 3) == 0;
  config.equality_only = (param % 4) != 3;
  return config;
}

/// Replaces ~null_pct% of the values in every base table with NULL,
/// deterministically from `seed`. Exercises the null bitmaps, the NULL
/// predicate semantics, and groups keyed by NULL.
void InjectNulls(Database* db, uint64_t seed, int null_pct) {
  std::mt19937_64 rng(seed ^ 0x5eedull);
  for (const std::string& name : db->TableNames()) {
    TablePtr old = db->GetShared(name);
    Table copy(old->columns());
    for (Row row : old->rows()) {
      for (Value& v : row) {
        if (static_cast<int>(rng() % 100) < null_pct) v = Value::Null();
      }
      copy.AddRowOrDie(std::move(row));
    }
    db->Put(name, std::move(copy));
  }
}

void MaterializeInto(Database* db, const ViewRegistry& views,
                     const std::string& name) {
  Evaluator eval(db, &views);
  Result<Table> contents = eval.MaterializeView(name);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  db->Put(name, *std::move(contents));
}

/// The oracle step: `query` through a vectorized evaluator and a row-engine
/// evaluator over the same database must agree exactly. Returns the number
/// of vectorized operators the batch engine reported.
size_t ExpectEnginesAgree(const Query& query, const Database& db,
                          const ViewRegistry* views) {
  Evaluator vec_eval(&db, views);
  Evaluator row_eval(&db, views, RowOptions());
  Result<Table> vec = vec_eval.Execute(query);
  Result<Table> row = row_eval.Execute(query);
  // Both engines must agree on status too (e.g. a view that fails to
  // materialize fails identically either way).
  EXPECT_EQ(vec.ok(), row.ok())
      << "engines disagree on status:\n  vec: " << vec.status().ToString()
      << "\n  row: " << row.status().ToString();
  if (!vec.ok() || !row.ok()) return 0;
  EXPECT_EQ(row_eval.stats().vectorized_ops, 0u);
  EXPECT_TRUE(MultisetEqual(*vec, *row))
      << "vectorized engine diverged from row engine:\n  "
      << DescribeMultisetDifference(*vec, *row) << "\nvectorized:\n"
      << vec->ToString() << "row engine:\n" << row->ToString();
  return vec_eval.stats().vectorized_ops;
}

class VectorizedDifferentialTest : public ::testing::TestWithParam<int> {};

// (a) Random query/view pairs: the original query and the optimizer's
// chosen plan, each executed by both engines.
TEST_P(VectorizedDifferentialTest, RandomWorkloadMatchesRowEngine) {
  uint64_t seed = TestSeed(18000 + GetParam());
  SCOPED_TRACE(SeedTrace(seed));
  RandomWorkloadGen gen(seed);
  RandomPairConfig config = ConfigForParam(GetParam());
  size_t vectorized_ops = 0;
  for (int q = 0; q < kPairsPerSweep; ++q) {
    QueryViewPair pair = gen.NextPair(config);
    ViewRegistry views;
    ASSERT_OK(views.Register(pair.view));
    SCOPED_TRACE("repro:\n  Q: " + ToSql(pair.query) +
                 "\n  V: CREATE MATERIALIZED VIEW " + pair.view.name + " AS " +
                 ToSql(pair.view.query));
    for (int d = 0; d < kDatabasesPerPair; ++d) {
      // Large enough that joined intermediates cross the columnar
      // conversion threshold on a fair fraction of the pairs.
      Database db = gen.NextDatabase(60, 3);
      MaterializeInto(&db, views, pair.view.name);
      vectorized_ops += ExpectEnginesAgree(pair.query, db, &views);

      Optimizer optimizer(&db, &views, &gen.catalog());
      Result<OptimizeResult> plan = optimizer.Optimize(pair.query);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      SCOPED_TRACE("chosen plan: " + ToSql(plan->chosen));
      vectorized_ops += ExpectEnginesAgree(plan->chosen, db, &views);
    }
  }
  // The oracle must actually compare engines, not fallback against itself.
  EXPECT_GT(vectorized_ops, 0u);
}

// (b) NULL-heavy databases: ~30% of all base values replaced with NULL.
TEST_P(VectorizedDifferentialTest, NullHeavyDataMatchesRowEngine) {
  uint64_t seed = TestSeed(19000 + GetParam());
  SCOPED_TRACE(SeedTrace(seed));
  RandomWorkloadGen gen(seed);
  RandomPairConfig config = ConfigForParam(GetParam());
  for (int q = 0; q < kPairsPerSweep; ++q) {
    QueryViewPair pair = gen.NextPair(config);
    ViewRegistry views;
    ASSERT_OK(views.Register(pair.view));
    SCOPED_TRACE("repro:\n  Q: " + ToSql(pair.query) +
                 "\n  V: CREATE MATERIALIZED VIEW " + pair.view.name + " AS " +
                 ToSql(pair.view.query));
    Database db = gen.NextDatabase(40, 3);
    InjectNulls(&db, seed + static_cast<uint64_t>(q), 30);
    MaterializeInto(&db, views, pair.view.name);
    ExpectEnginesAgree(pair.query, db, &views);
  }
}

// (b) Degenerate cardinalities: empty base tables (empty groups, global
// aggregates over nothing) and single-row tables.
TEST_P(VectorizedDifferentialTest, EmptyAndSingleRowTablesMatchRowEngine) {
  uint64_t seed = TestSeed(20000 + GetParam());
  SCOPED_TRACE(SeedTrace(seed));
  RandomWorkloadGen gen(seed);
  RandomPairConfig config = ConfigForParam(GetParam());
  for (int rows_per_table : {0, 1}) {
    SCOPED_TRACE("rows_per_table=" + std::to_string(rows_per_table));
    for (int q = 0; q < kPairsPerSweep; ++q) {
      QueryViewPair pair = gen.NextPair(config);
      ViewRegistry views;
      ASSERT_OK(views.Register(pair.view));
      SCOPED_TRACE("repro:\n  Q: " + ToSql(pair.query));
      Database db = gen.NextDatabase(rows_per_table, 3);
      MaterializeInto(&db, views, pair.view.name);
      ExpectEnginesAgree(pair.query, db, &views);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, VectorizedDifferentialTest,
                         ::testing::Range(0, 6));

// Deterministic engagement: a single-table aggregation runs fully columnar
// (scan + aggregate, two vectorized operators), at any input size.
TEST(VectorizedDifferentialTest, SingleTableAggregationRunsColumnar) {
  Table t({"A", "B"});
  for (int i = 0; i < 100; ++i) {
    t.AddRowOrDie(Row{Value::Int64(i % 5), Value::Int64(i)});
  }
  Database db;
  db.Put("T", std::move(t));
  Query q;
  q.from = {TableRef{"T", {"A", "B"}}};
  q.select = {SelectItem::MakeColumn("A", "A"),
              SelectItem::MakeAggregate(AggFn::kSum, "B", "SB"),
              SelectItem::MakeAggregate(AggFn::kAvg, "B", "AB")};
  q.group_by = {"A"};
  q.where = {
      {Operand::Column("B"), CmpOp::kGe, Operand::Constant(Value::Int64(10))}};

  Evaluator vec_eval(&db);
  ASSERT_OK_AND_ASSIGN(Table vec, vec_eval.Execute(q));
  EXPECT_EQ(vec_eval.stats().vectorized_ops, 2u);
  Evaluator row_eval(&db, nullptr, RowOptions());
  ASSERT_OK_AND_ASSIGN(Table row, row_eval.Execute(q));
  EXPECT_TRUE(MultisetEqual(vec, row)) << DescribeMultisetDifference(vec, row);
}

// (c) The paper's Example 1.1 workload: the query over raw Calls, the
// Rewriter's view-substituting form over the materialized summary, and the
// service path with the vectorized option on vs off.
TEST(VectorizedDifferentialTest, TelephonyWorkloadMatchesRowEngine) {
  TelephonyParams params;
  params.num_calls = 20000;
  params.num_customers = 200;
  params.earnings_threshold = 1e5;
  params.seed = TestSeed(42);
  SCOPED_TRACE(SeedTrace(params.seed));
  TelephonyWorkload w = MakeTelephonyWorkload(params);
  {
    Evaluator eval(&w.db, &w.views);
    ASSERT_OK_AND_ASSIGN(Table v1, eval.MaterializeView("V1"));
    w.db.Put("V1", std::move(v1));
  }

  size_t vectorized_ops = ExpectEnginesAgree(w.query, w.db, &w.views);
  EXPECT_GT(vectorized_ops, 0u);

  Rewriter rewriter(&w.views);
  ASSERT_OK_AND_ASSIGN(Query rewritten, rewriter.RewriteUsingView(w.query, "V1"));
  SCOPED_TRACE("rewritten: " + ToSql(rewritten));
  // The rewritten form is a single-table aggregation over V1 — the shape
  // the fully-columnar fast path owns.
  EXPECT_GT(ExpectEnginesAgree(rewritten, w.db, &w.views), 0u);

  // Service path: identical answers with the option on and off.
  ServiceOptions vec_options;
  ASSERT_TRUE(vec_options.vectorized);
  QueryService vec_service(vec_options);
  ASSERT_OK(vec_service.Bootstrap(w.catalog, w.db.Snapshot(), w.views));
  ServiceOptions row_options;
  row_options.vectorized = false;
  QueryService row_service(row_options);
  ASSERT_OK(row_service.Bootstrap(w.catalog, w.db.Snapshot(), w.views));
  std::string sql = ToSql(w.query);
  SCOPED_TRACE("service SQL: " + sql);
  ASSERT_OK_AND_ASSIGN(Table vec_table, vec_service.Select(sql));
  ASSERT_OK_AND_ASSIGN(Table row_table, row_service.Select(sql));
  EXPECT_TRUE(MultisetEqual(vec_table, row_table))
      << DescribeMultisetDifference(vec_table, row_table);
}

// (d) Chunk boundaries. Each chunk of a table has its own columnar image,
// so one column can be INT64 in one chunk and DOUBLE in the next, NULL
// throughout a chunk, or dictionary-encoded with different codes per
// chunk. Aggregates fold the chunks into one set of groups and must still
// agree exactly with the row engine, which sees one row sequence.
//
// C(K, G, N, S, Z), four chunks (three full, one partial):
//   K  unique INT64;
//   G  group key: INT64 in chunks 0 and 2, DOUBLE in chunks 1 and 3
//      (integral, so the same groups, except a few non-integral rows of
//      chunk 3);
//   N  INT64 in chunks 0 and 2, DOUBLE in chunk 1, all NULL in chunk 3,
//      some NULLs elsewhere;
//   S  strings; chunk 0 draws from {a*, common}, chunk 1 from {b*, common}
//      in a different first-seen order, chunk 2 from {c*}, chunk 3 from
//      {a*, b*};
//   Z  INT64 except chunk 2, where it is entirely NULL.
Table ChunkBoundaryTable(uint64_t seed) {
  std::mt19937_64 rng(seed);
  const size_t rows = 3 * kChunkRows + 777;
  std::vector<Row> data;
  data.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    const size_t chunk = i / kChunkRows;
    const int64_t g = static_cast<int64_t>(rng() % 9);
    Value gv = chunk == 0 || chunk == 2
                   ? Value::Int64(g)
                   : Value::Double(static_cast<double>(g));
    if (chunk == 3 && rng() % 50 == 0) gv = Value::Double(g + 0.5);
    Value nv;
    if (chunk == 3 || rng() % 11 == 0) {
      nv = Value::Null();
    } else if (chunk == 1) {
      nv = Value::Double(static_cast<double>(rng() % 1000) / 8.0);
    } else {
      nv = Value::Int64(static_cast<int64_t>(rng() % 1000) - 300);
    }
    // "common", or a prefix letter and a number.
    auto tag = [](char prefix, uint64_t n) {
      return std::string(1, prefix).append(std::to_string(n));
    };
    std::string sv = "common";
    switch (chunk) {
      case 0:
        if (rng() % 4 != 0) sv = tag('a', rng() % 40);
        break;
      case 1:
        if (rng() % 3 == 0) sv = tag('b', rng() % 25);
        break;
      case 2:
        sv = tag('c', rng() % 30);
        break;
      default:
        sv = tag(rng() % 2 == 0 ? 'a' : 'b', rng() % 5);
        break;
    }
    Value zv = chunk == 2 ? Value::Null()
                          : Value::Int64(static_cast<int64_t>(rng() % 7));
    data.push_back(Row{Value::Int64(static_cast<int64_t>(i)), std::move(gv),
                       std::move(nv), Value::String(std::move(sv)),
                       std::move(zv)});
  }
  Table t({"K", "G", "N", "S", "Z"});
  EXPECT_OK(t.AddRows(std::move(data)));
  return t;
}

TEST(VectorizedDifferentialTest, ChunkBoundariesMatchRowEngine) {
  uint64_t seed = TestSeed(23000);
  SCOPED_TRACE(SeedTrace(seed));
  Table c = ChunkBoundaryTable(seed);
  ASSERT_GE(c.chunks().size(), 3u);
  // The premise: the chunks' images really disagree.
  EXPECT_EQ(c.chunks()[0]->columnar().col(2).type, ColumnType::kInt64);
  EXPECT_EQ(c.chunks()[1]->columnar().col(2).type, ColumnType::kDouble);
  EXPECT_EQ(c.chunks()[2]->zone(4).null_count, c.chunks()[2]->num_rows());
  EXPECT_NE(c.chunks()[0]->columnar().col(3).dict,
            c.chunks()[1]->columnar().col(3).dict);
  Catalog catalog;
  ASSERT_OK(catalog.AddTable(TableDef("C", c.columns())));
  Database db;
  db.Put("C", std::move(c));

  // Each query with the vectorized operators it must engage: 2 for a
  // single-table aggregation folded chunk by chunk, 1 for a filtered scan.
  const struct {
    const char* sql;
    size_t ops;
  } queries[] = {
      {"SELECT G_1, SUM(N_1), COUNT(N_1), MIN(N_1), MAX(N_1), AVG(N_1) "
       "FROM C GROUPBY G_1", 2},
      {"SELECT S_1, COUNT(K_1), MIN(S_1), MAX(N_1) FROM C GROUPBY S_1", 2},
      {"SELECT G_1, S_1, SUM(Z_1), MAX(Z_1), MIN(Z_1) FROM C "
       "GROUPBY G_1, S_1", 2},
      {"SELECT SUM(N_1), MIN(S_1), MAX(S_1), COUNT(Z_1), SUM(Z_1), "
       "AVG(Z_1) FROM C", 2},
      {"SELECT S_1, SUM(N_1) FROM C WHERE N_1 > 50 GROUPBY S_1", 2},
      {"SELECT G_1, COUNT(K_1), SUM(Z_1) FROM C WHERE S_1 = 'common' "
       "GROUPBY G_1", 2},
      {"SELECT Z_1, MAX(S_1), SUM(G_1) FROM C WHERE Z_1 >= 3 GROUPBY Z_1", 2},
      {"SELECT K_1, S_1, N_1 FROM C WHERE N_1 < 0", 1},
      {"SELECT K_1, Z_1 FROM C WHERE S_1 >= 'b3' AND K_1 > 20000", 1},
      {"SELECT MIN(N_1), MAX(N_1), SUM(N_1) FROM C WHERE K_1 >= 49000", 2},
  };
  for (const auto& [sql, ops] : queries) {
    SCOPED_TRACE(sql);
    ASSERT_OK_AND_ASSIGN(Query q, ParseQuery(sql, &catalog));
    EXPECT_EQ(ExpectEnginesAgree(q, db, nullptr), ops);
  }

  // A MIN over a column holding strings in one chunk and numbers in
  // another has no typed loop: it must fall back, and still agree.
  Table mixed({"G", "M"});
  for (size_t i = 0; i < kChunkRows + 10; ++i) {
    mixed.AddRowOrDie(Row{Value::Int64(static_cast<int64_t>(i % 3)),
                          i < kChunkRows ? Value::Int64(static_cast<int64_t>(i))
                                         : Value::String("m")});
  }
  ASSERT_OK(catalog.AddTable(TableDef("M", mixed.columns())));
  db.Put("M", std::move(mixed));
  ASSERT_OK_AND_ASSIGN(
      Query q, ParseQuery("SELECT G_1, MIN(M_1), MAX(M_1) FROM M GROUPBY G_1",
                          &catalog));
  ExpectEnginesAgree(q, db, nullptr);
}

}  // namespace
}  // namespace aqv
