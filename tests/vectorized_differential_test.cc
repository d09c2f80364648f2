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
//       chunk, a different string dictionary per chunk; COUNT over string
//       columns; MIN/MAX over chunks mixing string and numeric images;
//   (e) the dense group-id path and zone-map chunk skipping: keys INT64 in
//       one chunk and integral DOUBLE in another, NULL keys, two-column
//       keys whose range product sits at and just over the dense budget,
//       keys near +-2^53 and INT64's extremes, 0% and 100% selectivity,
//       and predicates whose zone maps skip all, some or no chunks (a
//       skipped chunk still charges the row budget, as on the row engine).
//
// Engagement is asserted — the oracle is vacuous if the columnar path
// silently falls back everywhere — and every failure prints the seed
// (replay with AQV_TEST_SEED=<n>) and the exact SQL.

#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/exec_context.h"
#include "catalog/catalog.h"
#include "exec/column_batch.h"
#include "exec/evaluator.h"
#include "exec/vectorized.h"
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
  ASSERT_OK(vec_service.Bootstrap(w.catalog, w.db, w.views));
  ServiceOptions row_options;
  row_options.vectorized = false;
  QueryService row_service(row_options);
  ASSERT_OK(row_service.Bootstrap(w.catalog, w.db, w.views));
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

  // A MIN over a column holding numbers in one chunk and strings in
  // another keeps the first family, on both engines.
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

TEST(VectorizedDifferentialTest, CountOverStringColumnsMatchesRowEngine) {
  // COUNT reads no value: over a dictionary-coded column (no DOUBLE or
  // INT64 payload at all) it counts the non-NULL rows, on the dense and
  // the hash group path, with and without NULLs, across two chunks.
  uint64_t seed = TestSeed(25000);
  SCOPED_TRACE(SeedTrace(seed));
  std::mt19937_64 rng(seed);
  Table t({"G", "W", "S", "N"});
  std::vector<Row> data;
  for (size_t i = 0; i < kChunkRows + 700; ++i) {
    const uint64_t s = rng() % 9;
    data.push_back(Row{Value::Int64(static_cast<int64_t>(rng() % 5)),
                       Value::Double(static_cast<double>(rng() % 5) + 0.5),
                       Value::String("s" + std::to_string(s)),
                       s < 3 ? Value::Null()
                             : Value::String("n" + std::to_string(s))});
  }
  ASSERT_OK(t.AddRows(std::move(data)));
  ASSERT_EQ(t.chunks().size(), 2u);
  EXPECT_FALSE(t.chunks()[0]->columnar().col(2).has_nulls);
  EXPECT_TRUE(t.chunks()[0]->columnar().col(3).has_nulls);
  Catalog catalog;
  ASSERT_OK(catalog.AddTable(TableDef("T", t.columns())));
  Database db;
  db.Put("T", std::move(t));
  for (const char* sql : {
           "SELECT G_1, COUNT(S_1), COUNT(N_1) FROM T GROUPBY G_1",
           "SELECT W_1, COUNT(S_1), COUNT(N_1) FROM T GROUPBY W_1",
           "SELECT S_1, COUNT(N_1) FROM T GROUPBY S_1",
           "SELECT COUNT(S_1), COUNT(N_1) FROM T",
           "SELECT G_1, COUNT(N_1) FROM T WHERE S_1 >= 's4' GROUPBY G_1",
       }) {
    SCOPED_TRACE(sql);
    ASSERT_OK_AND_ASSIGN(Query q, ParseQuery(sql, &catalog));
    EXPECT_EQ(ExpectEnginesAgree(q, db, nullptr), 2u);
  }
}

// MIN and MAX keep the first family (number or string) they see in row
// order, per group, and skip values of the other; NULLs count for neither.
// Each chunk of W types its columns differently (the images the batch
// engine folds one after another):
//   chunk 0: X INT64, NULL for group 0; Y entirely NULL;
//   chunk 1: X strings; Y strings, NULL for group 1;
//   chunk 2: X entirely NULL; Y INT64;
//   chunk 3: X DOUBLE; Y strings.
// So group 0 meets X's strings first and groups 1-3 its numbers, and Y's
// first family is a string for every group but group 1.
Table MixedFamilyTable(uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Row> data;
  for (size_t i = 0; i < 3 * kChunkRows + 500; ++i) {
    const size_t chunk = i / kChunkRows;
    const int64_t g = static_cast<int64_t>(i % 4);
    const int64_t n = static_cast<int64_t>(rng() % 1000) - 500;
    const Value str = Value::String("s" + std::to_string(rng() % 300));
    Value x = Value::Null();
    Value y = Value::Null();
    switch (chunk) {
      case 0:
        if (g != 0) x = Value::Int64(n);
        break;
      case 1:
        x = str;
        if (g != 1) y = str;
        break;
      case 2:
        y = Value::Int64(n);
        break;
      default:
        x = Value::Double(static_cast<double>(n) / 4.0);
        y = str;
        break;
    }
    data.push_back(Row{Value::Int64(static_cast<int64_t>(i)),
                       Value::Int64(g), std::move(x), std::move(y)});
  }
  Table t({"K", "G", "X", "Y"});
  EXPECT_OK(t.AddRows(std::move(data)));
  return t;
}

TEST(VectorizedDifferentialTest, MixedFamilyExtremesMatchRowEngine) {
  uint64_t seed = TestSeed(26000);
  SCOPED_TRACE(SeedTrace(seed));
  Table w = MixedFamilyTable(seed);
  ASSERT_EQ(w.chunks().size(), 4u);
  // The premise: typed images of different families, and NULL-only ones.
  EXPECT_EQ(w.chunks()[0]->columnar().col(2).type, ColumnType::kInt64);
  EXPECT_EQ(w.chunks()[1]->columnar().col(2).type, ColumnType::kString);
  EXPECT_EQ(w.chunks()[2]->zone(2).null_count, w.chunks()[2]->num_rows());
  EXPECT_EQ(w.chunks()[3]->columnar().col(2).type, ColumnType::kDouble);
  EXPECT_EQ(w.chunks()[0]->zone(3).null_count, w.chunks()[0]->num_rows());
  EXPECT_EQ(w.chunks()[2]->columnar().col(3).type, ColumnType::kInt64);
  Catalog catalog;
  ASSERT_OK(catalog.AddTable(TableDef("W", w.columns())));
  Database db;
  db.Put("W", std::move(w));
  for (const char* sql : {
           "SELECT G_1, MIN(X_1), MAX(X_1), MIN(Y_1), MAX(Y_1) FROM W "
           "GROUPBY G_1",
           "SELECT MIN(X_1), MAX(X_1), MIN(Y_1), MAX(Y_1) FROM W",
           "SELECT G_1, MIN(X_1), MAX(Y_1) FROM W WHERE K_1 >= 20000 "
           "GROUPBY G_1",
           "SELECT G_1, MAX(X_1), MIN(Y_1) FROM W WHERE K_1 >= 40000 "
           "GROUPBY G_1",
           "SELECT Y_1, MIN(X_1), MAX(X_1), COUNT(X_1) FROM W GROUPBY Y_1",
       }) {
    SCOPED_TRACE(sql);
    ASSERT_OK_AND_ASSIGN(Query q, ParseQuery(sql, &catalog));
    EXPECT_EQ(ExpectEnginesAgree(q, db, nullptr), 2u);
  }
}

// (e) Columns of DenseKeyTable (3 chunks plus a partial fourth):
//   K  row number: clustered, so range predicates let zone maps skip chunks;
//   A  0..9, INT64 except chunk 1 (integral DOUBLE); ~4% NULL;
//   B  0..253 and C 0..255, every value in every chunk: with a NULL slot
//      per column, B, C has 255 * 257 = 2^16 - 1 slots, one under
//      VectorizedAggregation::kDenseGroupSlots;
//   D  0..256, so B, D has 255 * 258 slots, just over;
//   E  values straddling +-2^53 plus INT64's extremes (hash path);
//   F  2^53 .. 2^53 + 2, G near INT64's maximum, H near its minimum: dense
//      ranges whose bounds sit at the edges of the INT64 space.
Table DenseKeyTable(uint64_t seed) {
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t wide[] = {kTwo53 - 1, kTwo53,     kTwo53 + 1, -kTwo53 - 1,
                          -kTwo53,    -kTwo53 + 1, kMin,      kMax,
                          kMax - 1,   kMin + 1};
  std::mt19937_64 rng(seed);
  const size_t rows = 3 * kChunkRows + 1234;
  std::vector<Row> data;
  data.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    const int64_t a = static_cast<int64_t>(rng() % 10);
    Value av = i / kChunkRows == 1 ? Value::Double(static_cast<double>(a))
                                   : Value::Int64(a);
    if (rng() % 25 == 0) av = Value::Null();
    const int64_t n = static_cast<int64_t>(i);
    data.push_back(Row{Value::Int64(n), std::move(av), Value::Int64(n % 254),
                       Value::Int64((n * 7) % 256), Value::Int64((n * 7) % 257),
                       Value::Int64(wide[rng() % 10]),
                       Value::Int64(kTwo53 + static_cast<int64_t>(rng() % 3)),
                       Value::Int64(kMax - static_cast<int64_t>(rng() % 3)),
                       Value::Int64(kMin + static_cast<int64_t>(rng() % 3))});
  }
  Table t({"K", "A", "B", "C", "D", "E", "F", "G", "H"});
  EXPECT_OK(t.AddRows(std::move(data)));
  return t;
}

/// Chunks the vectorized engine's filtered Scan read for `q` (the deepest
/// node on the plan's left spine).
size_t ChunksScanned(const Query& q, const Database& db) {
  Evaluator eval(&db);
  EXPECT_OK(eval.Execute(q).status());
  const PlanNode* node = eval.executed_plan();
  if (node == nullptr) return 0;
  while (!node->children.empty()) node = node->children[0].get();
  return node->actual.chunks_scanned;
}

TEST(VectorizedDifferentialTest, DenseKeysAndZoneSkipsMatchRowEngine) {
  uint64_t seed = TestSeed(24000);
  SCOPED_TRACE(SeedTrace(seed));
  Table t = DenseKeyTable(seed);
  ASSERT_EQ(t.chunks().size(), 4u);
  // The premise: (B, C) takes the dense path in every full chunk and the
  // hash path in the partial one (too few rows for 2^16 - 1 slots), (B, D)
  // and E the hash path everywhere, and A is DOUBLE in chunk 1 only.
  for (const ChunkPtr& chunk : t.chunks()) {
    const ColumnarTable& image = chunk->columnar();
    VectorizedAggregation bc, bd, e, fgh;
    ASSERT_TRUE(VectorizedAggregation::Compile(image, {2, 3}, {}, &bc));
    ASSERT_TRUE(VectorizedAggregation::Compile(image, {2, 4}, {}, &bd));
    ASSERT_TRUE(VectorizedAggregation::Compile(image, {5}, {}, &e));
    ASSERT_TRUE(VectorizedAggregation::Compile(image, {6, 7, 8}, {}, &fgh));
    EXPECT_EQ(bc.DenseSlotCount(image),
              image.num_rows() == kChunkRows ? 255u * 257u : 0u);
    EXPECT_EQ(bd.DenseSlotCount(image), 0u);
    EXPECT_EQ(e.DenseSlotCount(image), 0u);
    EXPECT_GT(fgh.DenseSlotCount(image), 0u);
  }
  EXPECT_EQ(t.chunks()[1]->columnar().col(1).type, ColumnType::kDouble);
  EXPECT_EQ(t.chunks()[2]->columnar().col(1).type, ColumnType::kInt64);
  Catalog catalog;
  ASSERT_OK(catalog.AddTable(TableDef("T", t.columns())));
  Database db;
  db.Put("T", std::move(t));

  // Each query, the vectorized operators it must engage and, for a filtered
  // single-table query, the chunks its zone maps leave to scan (-1: not
  // checked).
  const struct {
    const char* sql;
    size_t ops;
    int chunks;
  } queries[] = {
      // INT64 and integral-DOUBLE chunks meet in one group; NULL keys.
      {"SELECT A_1, COUNT(K_1), SUM(K_1), MIN(K_1), MAX(K_1) FROM T "
       "GROUPBY A_1", 2, -1},
      {"SELECT A_1, B_1, SUM(C_1) FROM T GROUPBY A_1, B_1", 2, -1},
      // At, and just over, the dense budget.
      {"SELECT B_1, C_1, COUNT(K_1), MAX(A_1) FROM T GROUPBY B_1, C_1", 2, -1},
      {"SELECT B_1, D_1, COUNT(K_1), MIN(A_1) FROM T GROUPBY B_1, D_1", 2, -1},
      // Keys and extrema near +-2^53 and INT64's extremes.
      {"SELECT E_1, COUNT(K_1), MIN(E_1), MAX(E_1) FROM T GROUPBY E_1", 2, -1},
      {"SELECT F_1, G_1, H_1, SUM(A_1), MIN(G_1), MAX(H_1) FROM T "
       "GROUPBY F_1, G_1, H_1", 2, -1},
      {"SELECT MIN(E_1), MAX(E_1), MIN(F_1), MAX(F_1) FROM T", 2, -1},
      {"SELECT K_1, E_1 FROM T WHERE E_1 = 9007199254740993", 1, 4},
      {"SELECT F_1, COUNT(K_1) FROM T WHERE F_1 > 9007199254740992 "
       "GROUPBY F_1", 2, 4},
      {"SELECT K_1, G_1 FROM T WHERE G_1 >= 9223372036854775806 AND "
       "K_1 < 100", 1, 1},
      // 0% selectivity: zone maps skip every chunk, or none.
      {"SELECT A_1, COUNT(K_1) FROM T WHERE K_1 < 0 GROUPBY A_1", 2, 0},
      {"SELECT COUNT(K_1), SUM(A_1), MAX(E_1) FROM T WHERE K_1 > 100000", 2,
       0},
      {"SELECT A_1, COUNT(K_1) FROM T WHERE B_1 > C_1 AND C_1 > B_1 "
       "GROUPBY A_1", 2, 4},
      // 100% selectivity.
      {"SELECT A_1, COUNT(K_1), MAX(E_1) FROM T WHERE K_1 >= 0 GROUPBY A_1", 2,
       4},
      // Some chunks: [16384, 32768) lies in chunk 1 alone, and the strict
      // bounds sit exactly on chunk edges.
      {"SELECT B_1, C_1, COUNT(K_1) FROM T WHERE K_1 >= 16384 AND "
       "K_1 < 32768 GROUPBY B_1, C_1", 2, 1},
      {"SELECT K_1, A_1 FROM T WHERE K_1 > 16383 AND K_1 < 16390", 1, 1},
      {"SELECT A_1, MAX(K_1) FROM T WHERE K_1 > 40000 GROUPBY A_1", 2, 2},
  };
  for (const auto& [sql, ops, chunks] : queries) {
    SCOPED_TRACE(sql);
    ASSERT_OK_AND_ASSIGN(Query q, ParseQuery(sql, &catalog));
    EXPECT_EQ(ExpectEnginesAgree(q, db, nullptr), ops);
    if (chunks >= 0) {
      EXPECT_EQ(ChunksScanned(q, db), static_cast<size_t>(chunks));
    }
  }
}

TEST(VectorizedDifferentialTest, ZoneSkippedChunksChargeTheRowBudget) {
  // A chunk the zone maps rule out is not read, but it is charged like the
  // row engine's scan charges it: both engines charge the same rows and
  // stop at the same row budget.
  Table t = DenseKeyTable(TestSeed(24000));
  const size_t total = t.num_rows();
  Catalog catalog;
  ASSERT_OK(catalog.AddTable(TableDef("T", t.columns())));
  Database db;
  db.Put("T", std::move(t));
  for (const char* sql : {
           "SELECT A_1, COUNT(K_1) FROM T WHERE K_1 > 40000 GROUPBY A_1",
           "SELECT K_1, A_1 FROM T WHERE K_1 > 16383 AND K_1 < 16390",
           "SELECT COUNT(K_1) FROM T WHERE K_1 < 0",
       }) {
    SCOPED_TRACE(sql);
    ASSERT_OK_AND_ASSIGN(Query q, ParseQuery(sql, &catalog));
    ASSERT_LT(ChunksScanned(q, db), 4u);  // the premise: chunks are skipped
    for (size_t budget : {size_t{0}, total - 100}) {
      SCOPED_TRACE(budget);
      ExecContext vec_ctx;
      ExecContext row_ctx;
      vec_ctx.set_row_budget(budget);
      row_ctx.set_row_budget(budget);
      Evaluator vec_eval(&db);
      Evaluator row_eval(&db, nullptr, RowOptions());
      vec_eval.set_context(&vec_ctx);
      row_eval.set_context(&row_ctx);
      Result<Table> vec = vec_eval.Execute(q);
      Result<Table> row = row_eval.Execute(q);
      EXPECT_EQ(vec.status().code(), row.status().code())
          << "vec: " << vec.status().ToString()
          << "\nrow: " << row.status().ToString();
      if (budget == 0) {
        ASSERT_OK(vec.status());
        EXPECT_EQ(vec_ctx.rows_charged(), row_ctx.rows_charged());
      } else {
        EXPECT_EQ(vec.status().code(), StatusCode::kResourceExhausted);
      }
    }
  }
}

}  // namespace
}  // namespace aqv
