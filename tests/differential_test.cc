// Randomized differential harness (PR 3): the same query executed two ways
// must produce the same bag of rows.
//
//   (a) rewritten vs. unrewritten — the optimizer's chosen plan (which may
//       substitute a materialized view) against direct evaluation of the
//       original query, over R random databases x Q random query/view pairs;
//   (b) service cached-plan vs. fresh-optimize — the same SELECT through a
//       plan-caching QueryService (second execution is a cache hit) and
//       through a cache-disabled service, also with random writes between
//       the lookups (cached entries are then re-costed, not evicted);
//   (c) chaos (PR 4) — the same sweep with probabilistic failpoints armed
//       across every wired site: each statement must either return exactly
//       the reference rows or fail with a clean Status, never crash or
//       silently return wrong rows. The fault schedule replays from the
//       same seed as the workload;
//   (d) one plan — the tree EXPLAIN renders for a query is the tree the
//       Evaluator executes, on both engines and on the Cartesian reference
//       plan (whose rows must match the default plan's).
//
// Every assertion failure prints a self-contained repro: the seed (replay
// with AQV_TEST_SEED=<n>) plus the exact SQL of the query and view.

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/failpoint.h"
#include "catalog/catalog.h"
#include "exec/csv.h"
#include "exec/evaluator.h"
#include "exec/explain_plan.h"
#include "ir/printer.h"
#include "parser/parser.h"
#include "rewrite/optimizer.h"
#include "service/query_service.h"
#include "tests/test_util.h"
#include "workload/random_query.h"

namespace aqv {
namespace {

constexpr int kPairsPerSweep = 20;   // Q: query/view pairs per sweep
constexpr int kDatabasesPerPair = 3; // R: random databases per pair

RandomPairConfig ConfigForParam(int param) {
  RandomPairConfig config;
  config.query_aggregation = (param % 2) == 0;
  config.view_aggregation = (param % 3) == 0;
  config.equality_only = (param % 4) != 3;
  return config;
}

/// Materializes `view` into `db` so the optimizer can substitute it.
void MaterializeInto(Database* db, const ViewRegistry& views,
                     const std::string& name) {
  Evaluator eval(db, &views);
  Result<Table> contents = eval.MaterializeView(name);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  db->Put(name, *std::move(contents));
}

/// Planned engines hold at run time, except where a kernel may still
/// refuse: post-join aggregation falls back to the row engine over too few
/// or mixed-type rows.
void ExpectEnginesRanAsPlanned(const PlanNode& node) {
  bool may_refuse = node.kind == PlanNode::Kind::kAggregate &&
                    node.columnar_agg == nullptr;
  EXPECT_TRUE(node.actual.engine == node.engine ||
              (may_refuse && node.actual.engine == Engine::kRow))
      << "a node ran on an engine it was not planned for:\n"
      << RenderPlan(node, true);
  for (const std::unique_ptr<PlanNode>& child : node.children) {
    ExpectEnginesRanAsPlanned(*child);
  }
}

/// Executes `query` under `options` and checks that the executed tree is
/// the one EXPLAIN renders; returns the rows.
Table ExpectExplainedPlanRuns(const Query& query, const Database& db,
                              const ViewRegistry& views,
                              const EvalOptions& options) {
  SCOPED_TRACE(std::string("hash_join=") +
               (options.use_hash_join ? "on" : "off") +
               " vectorized=" + (options.vectorized ? "on" : "off"));
  Result<std::string> explained = ExplainPlan(query, db, &views, options);
  EXPECT_TRUE(explained.ok()) << explained.status().ToString();
  Evaluator eval(&db, &views, options);
  Result<Table> rows = eval.Execute(query);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  if (!explained.ok() || !rows.ok()) return Table(std::vector<std::string>{});
  EXPECT_EQ(*explained, RenderPlan(*eval.executed_plan(), false));
  ExpectEnginesRanAsPlanned(*eval.executed_plan());
  return *std::move(rows);
}

class DifferentialTest : public ::testing::TestWithParam<int> {};

// (a) The optimizer's chosen plan answers exactly like the original query,
// whatever rewriting it picked.
TEST_P(DifferentialTest, RewrittenMatchesUnrewritten) {
  uint64_t seed = TestSeed(12000 + GetParam());
  SCOPED_TRACE(SeedTrace(seed));
  RandomWorkloadGen gen(seed);
  RandomPairConfig config = ConfigForParam(GetParam());
  int rewritten = 0;
  for (int q = 0; q < kPairsPerSweep; ++q) {
    QueryViewPair pair = gen.NextPair(config);
    ViewRegistry views;
    ASSERT_OK(views.Register(pair.view));
    SCOPED_TRACE("repro:\n  Q: " + ToSql(pair.query) +
                 "\n  V: CREATE MATERIALIZED VIEW " + pair.view.name + " AS " +
                 ToSql(pair.view.query));
    for (int d = 0; d < kDatabasesPerPair; ++d) {
      Database db = gen.NextDatabase(12, 3);
      MaterializeInto(&db, views, pair.view.name);
      Optimizer optimizer(&db, &views, &gen.catalog());
      Result<OptimizeResult> plan = optimizer.Optimize(pair.query);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      if (plan->used_materialized_view) ++rewritten;
      SCOPED_TRACE("chosen plan: " + ToSql(plan->chosen));
      Evaluator chosen_eval(&db, &views);
      ASSERT_OK_AND_ASSIGN(Table chosen, chosen_eval.Execute(plan->chosen));
      Evaluator direct_eval(&db, &views);
      ASSERT_OK_AND_ASSIGN(Table direct, direct_eval.Execute(pair.query));
      EXPECT_TRUE(MultisetEqual(chosen, direct))
          << DescribeMultisetDifference(chosen, direct);
    }
  }
  // The sweep must exercise actual rewritings, not just identity plans.
  if (GetParam() == 0) {
    EXPECT_GT(rewritten, 0);
  }
}

// (b) A SELECT through the service answers identically on a plan-cache miss,
// a plan-cache hit, and a cache-disabled fresh optimize.
TEST_P(DifferentialTest, CachedPlanMatchesFreshOptimize) {
  uint64_t seed = TestSeed(13000 + GetParam());
  SCOPED_TRACE(SeedTrace(seed));
  RandomWorkloadGen gen(seed);
  RandomPairConfig config = ConfigForParam(GetParam());

  // One shared registry: pair numbering keeps generated view names unique.
  ViewRegistry views;
  std::vector<QueryViewPair> pairs;
  for (int q = 0; q < kPairsPerSweep; ++q) {
    QueryViewPair pair = gen.NextPair(config);
    ASSERT_OK(views.Register(pair.view));
    pairs.push_back(std::move(pair));
  }

  for (int d = 0; d < kDatabasesPerPair; ++d) {
    Database db = gen.NextDatabase(12, 3);
    for (const QueryViewPair& pair : pairs) {
      MaterializeInto(&db, views, pair.view.name);
    }

    QueryService cached_service;
    ASSERT_OK(cached_service.Bootstrap(gen.catalog(), db, views));
    ServiceOptions fresh_options;
    fresh_options.plan_cache_capacity = 0;
    QueryService fresh_service(fresh_options);
    ASSERT_OK(fresh_service.Bootstrap(gen.catalog(), db, views));

    for (const QueryViewPair& pair : pairs) {
      std::string sql = ToSql(pair.query);
      SCOPED_TRACE("repro:\n  Q: " + sql + "\n  V: CREATE MATERIALIZED VIEW " +
                   pair.view.name + " AS " + ToSql(pair.view.query));
      ASSERT_OK_AND_ASSIGN(Table miss, cached_service.Select(sql));
      ASSERT_OK_AND_ASSIGN(Table hit, cached_service.Select(sql));
      ASSERT_OK_AND_ASSIGN(Table fresh, fresh_service.Select(sql));
      EXPECT_TRUE(MultisetEqual(miss, hit))
          << "cache hit diverged from the miss that populated it:\n  "
          << DescribeMultisetDifference(miss, hit);
      EXPECT_TRUE(MultisetEqual(miss, fresh))
          << "cached service diverged from fresh optimize:\n  "
          << DescribeMultisetDifference(miss, fresh);
    }
    // The comparison must actually exercise the cache-hit path.
    EXPECT_GT(cached_service.Stats().plan_cache_hits, 0u);
    EXPECT_EQ(fresh_service.Stats().plan_cache_hits, 0u);
  }
}

// (b) with writes between lookups: random INSERT/DELETE/UPDATE statements
// interleave with repeated SELECTs on a plan-caching service and on a
// cache-less witness fed the same statements. Cached entries outlive the
// writes and are re-costed (possibly flipping to another candidate), so
// every read must still equal the witness's exactly.
TEST_P(DifferentialTest, CachedPlanSurvivesWrites) {
  uint64_t seed = TestSeed(25000 + GetParam());
  SCOPED_TRACE(SeedTrace(seed));
  RandomWorkloadGen gen(seed);
  RandomPairConfig config = ConfigForParam(GetParam());

  ViewRegistry views;
  std::vector<QueryViewPair> pairs;
  for (int q = 0; q < 8; ++q) {
    QueryViewPair pair = gen.NextPair(config);
    ASSERT_OK(views.Register(pair.view));
    pairs.push_back(std::move(pair));
  }
  Database db = gen.NextDatabase(12, 3);
  for (const QueryViewPair& pair : pairs) {
    MaterializeInto(&db, views, pair.view.name);
  }
  QueryService cached;
  ASSERT_OK(cached.Bootstrap(gen.catalog(), db, views));
  ServiceOptions no_cache;
  no_cache.plan_cache_capacity = 0;
  QueryService witness(no_cache);
  ASSERT_OK(witness.Bootstrap(gen.catalog(), db, views));

  const struct {
    const char* table;
    int arity;
    const char* col0;  // WHERE column
    const char* col1;  // SET target
  } kTables[] = {{"R1", 4, "A", "B"}, {"R2", 2, "E", "F"},
                 {"R3", 2, "G", "H"}};
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 25);
  auto random_write = [&]() {
    const auto& t = kTables[rng() % 3];
    const std::string v = std::to_string(rng() % 3);
    switch (rng() % 3) {
      case 0: {
        std::string sql = "INSERT INTO " + std::string(t.table) + " VALUES ";
        int rows = 1 + static_cast<int>(rng() % 4);
        for (int r = 0; r < rows; ++r) {
          sql += r > 0 ? ", (" : "(";
          for (int c = 0; c < t.arity; ++c) {
            sql += (c > 0 ? ", " : "") + std::to_string(rng() % 3);
          }
          sql += ")";
        }
        return sql;
      }
      case 1:
        return "DELETE FROM " + std::string(t.table) + " WHERE " + t.col0 +
               " = " + v;
      default:
        return "UPDATE " + std::string(t.table) + " SET " + t.col1 + " = " +
               t.col1 + " + 1 WHERE " + t.col0 + " = " + v;
    }
  };

  for (int round = 0; round < 12; ++round) {
    std::string write = random_write();
    SCOPED_TRACE("round " + std::to_string(round) + " after: " + write);
    ASSERT_OK(cached.Execute(write).status());
    ASSERT_OK(witness.Execute(write).status());
    for (const QueryViewPair& pair : pairs) {
      std::string sql = ToSql(pair.query);
      SCOPED_TRACE("repro:\n  Q: " + sql + "\n  V: CREATE MATERIALIZED VIEW " +
                   pair.view.name + " AS " + ToSql(pair.view.query));
      ASSERT_OK_AND_ASSIGN(Table want, witness.Select(sql));
      for (int repeat = 0; repeat < 2; ++repeat) {
        ASSERT_OK_AND_ASSIGN(Table got, cached.Select(sql));
        EXPECT_TRUE(MultisetEqual(got, want))
            << "cached plan diverged from the cache-less witness:\n  "
            << DescribeMultisetDifference(got, want);
      }
    }
  }
  // The sweep must exercise the re-cost path, not only misses and plain
  // hits.
  ServiceStats stats = cached.Stats();
  EXPECT_GT(stats.plan_cache_recosts, 0u);
  EXPECT_GT(stats.statement_cache_hits, 0u);
  EXPECT_EQ(witness.Stats().plan_cache_hits, 0u);
}

// (a) + snapshots: a SELECT on a pinned snapshot equals the same SELECT on
// the live service when nothing writes in between.
TEST_P(DifferentialTest, SnapshotReadMatchesLiveRead) {
  uint64_t seed = TestSeed(14000 + GetParam());
  SCOPED_TRACE(SeedTrace(seed));
  RandomWorkloadGen gen(seed);
  RandomPairConfig config = ConfigForParam(GetParam());
  QueryViewPair pair = gen.NextPair(config);
  ViewRegistry views;
  ASSERT_OK(views.Register(pair.view));
  Database db = gen.NextDatabase(12, 3);
  MaterializeInto(&db, views, pair.view.name);

  QueryService service;
  ASSERT_OK(service.Bootstrap(gen.catalog(), std::move(db), views));
  ServiceSnapshotPtr snap = service.PinSnapshot();
  std::string sql = ToSql(pair.query);
  SCOPED_TRACE("repro:\n  Q: " + sql);
  ASSERT_OK_AND_ASSIGN(Table live, service.Select(sql));
  ASSERT_OK_AND_ASSIGN(Table pinned, service.Select(sql, *snap));
  EXPECT_TRUE(MultisetEqual(live, pinned))
      << DescribeMultisetDifference(live, pinned);
}

// (c) Chaos: with faults injected at every wired site, each statement is
// "right rows or clean error". The fault schedule is seeded alongside the
// workload, so a failure replays exactly with the AQV_TEST_SEED it prints.
TEST_P(DifferentialTest, ChaosInjectionYieldsCorrectRowsOrCleanErrors) {
  uint64_t seed = TestSeed(15000 + GetParam());
  SCOPED_TRACE(SeedTrace(seed));
  RandomWorkloadGen gen(seed);
  RandomPairConfig config = ConfigForParam(GetParam());

  ViewRegistry views;
  std::vector<QueryViewPair> pairs;
  for (int q = 0; q < kPairsPerSweep; ++q) {
    QueryViewPair pair = gen.NextPair(config);
    ASSERT_OK(views.Register(pair.view));
    pairs.push_back(std::move(pair));
  }
  Database db = gen.NextDatabase(12, 3);
  for (const QueryViewPair& pair : pairs) {
    MaterializeInto(&db, views, pair.view.name);
  }

  // Reference answers, computed before any fault is armed.
  std::vector<Table> expected;
  for (const QueryViewPair& pair : pairs) {
    Evaluator eval(&db, &views);
    Result<Table> t = eval.Execute(pair.query);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    expected.push_back(*std::move(t));
  }

  QueryService service;
  ASSERT_OK(service.Bootstrap(gen.catalog(), std::move(db), views));

  // The registry is process-global: disarm even if an ASSERT bails out
  // mid-test, so leaked chaos never poisons the other sweeps.
  struct DisarmOnExit {
    ~DisarmOnExit() { FailpointRegistry::Global().ClearAll(); }
  } disarm;
  FailpointRegistry& reg = FailpointRegistry::Global();
  ASSERT_OK(reg.Set("parse", "error(3)"));
  ASSERT_OK(reg.Set("rewrite.enumerate", "error(15)"));
  ASSERT_OK(reg.Set("optimizer.optimize", "error(10)"));
  ASSERT_OK(reg.Set("plan_cache.lookup", "error(20)"));
  ASSERT_OK(reg.Set("plan_cache.insert", "error(20)"));
  ASSERT_OK(reg.Set("exec.operator", "error(10)"));
  reg.Reseed(seed);

  int succeeded = 0;
  int failed = 0;
  int degraded = 0;
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < pairs.size(); ++i) {
      std::string sql = ToSql(pairs[i].query);
      SCOPED_TRACE("round " + std::to_string(round) + " repro:\n  Q: " + sql);
      Result<StatementResult> r = service.Execute(sql);
      if (!r.ok()) {
        // Injected faults surface as kUnavailable ("injected failpoint ..."
        // or, through the degraded retry, the original injection) — never
        // as a crash or a mangled internal error.
        EXPECT_EQ(r.status().code(), StatusCode::kUnavailable)
            << r.status().ToString();
        ++failed;
        continue;
      }
      ++succeeded;
      degraded += r->degraded;
      ASSERT_TRUE(r->table.has_value());
      EXPECT_TRUE(MultisetEqual(*r->table, expected[i]))
          << "chaos run returned wrong rows:\n  "
          << DescribeMultisetDifference(*r->table, expected[i]);
    }
  }
  // The sweep must exercise both outcomes (the schedule is deterministic
  // per seed; these hold for every TestSeed default).
  EXPECT_GT(succeeded, 0);
  EXPECT_GT(failed + degraded, 0);
}

// (d) Writes without REFRESH (PR 5, DML arms PR 10): random INSERTs —
// single-row statements, multi-row statements, and BEGIN WRITE..COMMIT
// batches — plus seeded DELETEs, UPDATEs, and mixed insert+delete batches
// flow through the maintained write path. After every write, each SELECT through the service
// (which may be rewritten onto a materialized view) must match direct
// evaluation of the original query over a mirror database that applies the
// same rows by hand. No REFRESH is ever issued: freshness comes entirely
// from write-path maintenance. Additionally, every pinned snapshot must
// satisfy the publication invariant: a view's version is never older than
// any base table it was maintained from.
TEST_P(DifferentialTest, WritesStayFreshWithoutRefresh) {
  uint64_t seed = TestSeed(17000 + GetParam());
  SCOPED_TRACE(SeedTrace(seed));
  RandomWorkloadGen gen(seed);
  RandomPairConfig config = ConfigForParam(GetParam());

  ViewRegistry views;
  std::vector<QueryViewPair> pairs;
  for (int q = 0; q < 8; ++q) {
    QueryViewPair pair = gen.NextPair(config);
    ASSERT_OK(views.Register(pair.view));
    pairs.push_back(std::move(pair));
  }
  Database db = gen.NextDatabase(12, 3);
  for (const QueryViewPair& pair : pairs) {
    MaterializeInto(&db, views, pair.view.name);
  }

  QueryService service;
  ASSERT_OK(service.Bootstrap(gen.catalog(), db, views));
  // The witness: committed rows applied by hand, no views consulted.
  Database mirror = db;

  const struct {
    const char* table;
    int arity;
    const char* col0;  // WHERE column for DML rounds
    const char* col1;  // SET target for UPDATE rounds
  } kTables[] = {{"R1", 4, "A", "B"}, {"R2", 2, "E", "F"},
                 {"R3", 2, "G", "H"}};
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 17);
  auto random_tuple = [&](int arity) {
    std::vector<int64_t> tuple;
    for (int c = 0; c < arity; ++c) {
      tuple.push_back(static_cast<int64_t>(rng() % 3));
    }
    return tuple;
  };
  auto tuple_sql = [](const std::vector<int64_t>& tuple) {
    std::string sql = "(";
    for (size_t c = 0; c < tuple.size(); ++c) {
      if (c > 0) sql += ", ";
      sql += std::to_string(tuple[c]);
    }
    return sql + ")";
  };
  auto mirror_insert = [&](const char* table,
                           const std::vector<std::vector<int64_t>>& tuples) {
    Table copy = *mirror.GetShared(table);
    for (const std::vector<int64_t>& tuple : tuples) {
      Row row;
      for (int64_t v : tuple) row.push_back(Value::Int64(v));
      copy.AddRowOrDie(std::move(row));
    }
    mirror.Put(table, std::move(copy));
  };
  // One INSERT statement of `rows` tuples, applied to service AND mirror.
  auto write = [&](const char* table, int arity, int rows) {
    std::vector<std::vector<int64_t>> tuples;
    std::string sql = "INSERT INTO " + std::string(table) + " VALUES ";
    for (int r = 0; r < rows; ++r) {
      tuples.push_back(random_tuple(arity));
      if (r > 0) sql += ", ";
      sql += tuple_sql(tuples.back());
    }
    SCOPED_TRACE("write: " + sql);
    ASSERT_OK(service.Execute(sql).status());
    mirror_insert(table, tuples);
  };

  // Rows matching `col == v` are removed from the mirror by hand; same
  // multiset semantics as the service's DELETE (every occurrence goes).
  auto mirror_delete = [&](const char* table, const char* col, int64_t v) {
    TablePtr old = mirror.GetShared(table);
    int c = old->ColumnIndex(col);
    ASSERT_GE(c, 0);
    Table copy(old->columns());
    for (const Row& row : old->rows()) {
      if (!(row[c] == Value::Int64(v))) copy.AddRowOrDie(row);
    }
    mirror.Put(table, std::move(copy));
  };
  // `SET set_col = set_col + 1 WHERE where_col = v` applied by hand.
  auto mirror_update = [&](const char* table, const char* where_col,
                           int64_t v, const char* set_col) {
    TablePtr old = mirror.GetShared(table);
    int wc = old->ColumnIndex(where_col);
    int sc = old->ColumnIndex(set_col);
    ASSERT_GE(wc, 0);
    ASSERT_GE(sc, 0);
    Table copy(old->columns());
    for (Row row : old->rows()) {
      if (row[wc] == Value::Int64(v)) {
        row[sc] = Value::Int64(row[sc].int64() + 1);
      }
      copy.AddRowOrDie(std::move(row));
    }
    mirror.Put(table, std::move(copy));
  };

  // After each round: rewritten reads must see the write — with no REFRESH
  // in between — and, in any pinned snapshot, no base table is newer than
  // a view whose definition reads it (the publication invariant).
  auto check_fresh = [&](int round) {
    for (size_t i = 0; i < pairs.size(); ++i) {
      std::string sql = ToSql(pairs[i].query);
      SCOPED_TRACE("round " + std::to_string(round) + " repro:\n  Q: " + sql +
                   "\n  V: CREATE MATERIALIZED VIEW " + pairs[i].view.name +
                   " AS " + ToSql(pairs[i].view.query));
      ASSERT_OK_AND_ASSIGN(Table got, service.Select(sql));
      Evaluator direct(&mirror, &views);
      ASSERT_OK_AND_ASSIGN(Table want, direct.Execute(pairs[i].query));
      EXPECT_TRUE(MultisetAlmostEqual(got, want))
          << "service read diverged from hand-maintained mirror:\n  "
          << DescribeMultisetDifference(got, want);
    }
    ServiceSnapshotPtr snap = service.PinSnapshot();
    for (const QueryViewPair& pair : pairs) {
      uint64_t view_version = snap->db.VersionOf(pair.view.name);
      for (const TableRef& ref : pair.view.query.from) {
        EXPECT_LE(snap->db.VersionOf(ref.table), view_version)
            << pair.view.name << " is stale relative to " << ref.table;
      }
    }
  };

  // Rounds 0..5 insert (single-row, multi-row, batch); rounds 6..11 mix in
  // DELETE, UPDATE, and a batch that inserts into one table and deletes
  // from another — all with the mirror maintained by hand.
  for (int round = 0; round < 12; ++round) {
    const auto& target = kTables[rng() % 3];
    int shape = round < 6 ? round % 3 : 3 + round % 3;
    switch (shape) {
      case 0:
        write(target.table, target.arity, 1);
        break;
      case 1:
        write(target.table, target.arity, 3);
        break;
      case 3: {
        // DELETE through the maintained write path. Values live in {0,1,2},
        // so the predicate usually matches several rows.
        int64_t v = static_cast<int64_t>(rng() % 3);
        std::string sql = "DELETE FROM " + std::string(target.table) +
                          " WHERE " + target.col0 + " = " + std::to_string(v);
        SCOPED_TRACE("write: " + sql);
        ASSERT_OK(service.Execute(sql).status());
        mirror_delete(target.table, target.col0, v);
        break;
      }
      case 4: {
        // UPDATE = delete+insert delta through the same path.
        int64_t v = static_cast<int64_t>(rng() % 3);
        std::string sql = "UPDATE " + std::string(target.table) + " SET " +
                          target.col1 + " = " + target.col1 + " + 1 WHERE " +
                          target.col0 + " = " + std::to_string(v);
        SCOPED_TRACE("write: " + sql);
        ASSERT_OK(service.Execute(sql).status());
        mirror_update(target.table, target.col0, v, target.col1);
        break;
      }
      case 5: {
        // Mixed batch: an INSERT and a DELETE (possibly on different
        // tables) commit as ONE delta. The batched DELETE evaluates
        // against committed state, which is exactly what the mirror holds.
        const auto& victim = kTables[rng() % 3];
        std::vector<std::vector<int64_t>> new_rows = {
            random_tuple(target.arity)};
        int64_t v = static_cast<int64_t>(rng() % 3);
        ASSERT_OK(service.Execute("BEGIN WRITE").status());
        ASSERT_OK(service
                      .Execute("INSERT INTO " + std::string(target.table) +
                               " VALUES " + tuple_sql(new_rows[0]))
                      .status());
        ASSERT_OK(service
                      .Execute("DELETE FROM " + std::string(victim.table) +
                               " WHERE " + victim.col0 + " = " +
                               std::to_string(v))
                      .status());
        ASSERT_OK(service.Execute("COMMIT").status());
        // Mirror the delete from pre-batch state first, then the insert:
        // same multiset outcome as the service's inserts-then-deletes order
        // because the staged deletes matched committed rows only.
        mirror_delete(victim.table, victim.col0, v);
        mirror_insert(target.table, new_rows);
        break;
      }
      case 2: {
        // A multi-statement batch, possibly spanning two tables; the mirror
        // applies the rows only once COMMIT succeeds.
        const auto& second = kTables[rng() % 3];
        std::vector<std::vector<int64_t>> first_rows = {
            random_tuple(target.arity), random_tuple(target.arity)};
        std::vector<std::vector<int64_t>> second_rows = {
            random_tuple(second.arity)};
        ASSERT_OK(service.Execute("BEGIN WRITE").status());
        ASSERT_OK(service
                      .Execute("INSERT INTO " + std::string(target.table) +
                               " VALUES " + tuple_sql(first_rows[0]) + ", " +
                               tuple_sql(first_rows[1]))
                      .status());
        ASSERT_OK(service
                      .Execute("INSERT INTO " + std::string(second.table) +
                               " VALUES " + tuple_sql(second_rows[0]))
                      .status());
        ASSERT_OK(service.Execute("COMMIT").status());
        mirror_insert(target.table, first_rows);
        mirror_insert(second.table, second_rows);
        break;
      }
    }
    ASSERT_NO_FATAL_FAILURE(check_fresh(round));
  }

  // LOAD rounds, appended so the rounds above keep their random stream: a
  // LOAD that replaces a base table wholesale rides the same write path,
  // and every view over it must follow with no REFRESH.
  for (int round = 12; round < 16; ++round) {
    const auto& target = kTables[rng() % 3];
    Table loaded(mirror.GetShared(target.table)->columns());
    const int rows = static_cast<int>(rng() % 4);  // 0 empties the table
    for (int r = 0; r < rows; ++r) {
      Row row;
      for (int64_t v : random_tuple(target.arity)) {
        row.push_back(Value::Int64(v));
      }
      loaded.AddRowOrDie(std::move(row));
    }
    std::string csv = ::testing::TempDir() + "/aqv_fresh_load_" +
                      std::to_string(GetParam()) + ".csv";
    ASSERT_OK(WriteCsvFile(loaded, csv));
    std::string sql = "LOAD " + std::string(target.table) + " FROM '" + csv +
                      "'";
    SCOPED_TRACE("write: " + sql + " (" + std::to_string(rows) + " rows)");
    ASSERT_OK(service.Execute(sql).status());
    std::remove(csv.c_str());
    mirror.Put(target.table, loaded);
    ASSERT_NO_FATAL_FAILURE(check_fresh(round));
  }
  // The sweep must exercise write-path maintenance, not no-op writes.
  ServiceStats stats = service.Stats();
  EXPECT_GE(stats.views_maintained + stats.views_recomputed, 1u);
}

// The freshness oracle over a table spanning several chunks, where writes
// rewrite only the chunks they touch: single-row INSERT/DELETE/UPDATE by
// key, an UPDATE inside a middle chunk, a DELETE that empties a whole chunk,
// multi-row inserts and a mixed BEGIN WRITE batch. Every view-answerable
// read through the service must match direct evaluation over a mirror the
// test maintains by hand.
TEST(DifferentialTest, WritesStayFreshOnChunkedTables) {
  uint64_t seed = TestSeed(24000);
  SCOPED_TRACE(SeedTrace(seed));
  std::mt19937_64 rng(seed);
  const int64_t rows = 3 * static_cast<int64_t>(kChunkRows) + 500;
  auto make_row = [&](int64_t k) {
    return Row{Value::Int64(k), Value::Int64(k % 13),
               Value::Int64(static_cast<int64_t>(rng() % 500)),
               Value::String("s" + std::to_string(rng() % 20))};
  };
  auto row_sql = [](const Row& row) {
    return "(" + row[0].ToString() + ", " + row[1].ToString() + ", " +
           row[2].ToString() + ", " + row[3].ToString() + ")";
  };

  QueryService service;
  ASSERT_OK(service.Execute("CREATE TABLE T(K, G, V, S)").status());
  Table initial({"K", "G", "V", "S"});
  std::string sql;
  for (int64_t k = 0; k < rows; ++k) {
    Row row = make_row(k);
    sql += (sql.empty() ? "INSERT INTO T VALUES " : ", ") + row_sql(row);
    initial.AddRowOrDie(std::move(row));
    if ((k + 1) % 2000 == 0 || k + 1 == rows) {
      ASSERT_OK(service.Execute(sql).status());
      sql.clear();
    }
  }
  ASSERT_GE(initial.chunks().size(), 3u);
  Catalog catalog;
  ASSERT_OK(catalog.AddTable(TableDef("T", initial.columns())));
  Database mirror;
  mirror.Put("T", std::move(initial));
  for (const char* view :
       {"CREATE MATERIALIZED VIEW VS AS SELECT G_1, SUM(V_1) AS SV, "
        "COUNT(K_1) AS N FROM T GROUPBY G_1",
        "CREATE MATERIALIZED VIEW VM AS SELECT S_1, MAX(V_1) AS MV, "
        "COUNT(K_1) AS N FROM T GROUPBY S_1",
        "CREATE MATERIALIZED VIEW VF AS SELECT G_1, MIN(S_1) AS MS, "
        "COUNT(V_1) AS N FROM T WHERE V_1 > 100 GROUPBY G_1"}) {
    ASSERT_OK(service.Execute(view).status());
  }
  const char* reads[] = {
      "SELECT G_1, SUM(V_1) FROM T GROUPBY G_1",
      "SELECT S_1, MAX(V_1) FROM T GROUPBY S_1",
      "SELECT G_1, MIN(S_1) FROM T WHERE V_1 > 100 GROUPBY G_1",
      "SELECT SUM(V_1) FROM T",
      "SELECT G_1, COUNT(K_1) FROM T WHERE K_1 >= 16000 AND K_1 < 17000 "
      "GROUPBY G_1",
  };
  auto check_fresh = [&](const std::string& write) {
    SCOPED_TRACE("after: " + write);
    for (const char* read : reads) {
      SCOPED_TRACE(read);
      ASSERT_OK_AND_ASSIGN(Table got, service.Select(read));
      ASSERT_OK_AND_ASSIGN(Query q, ParseQuery(read, &catalog));
      Evaluator direct(&mirror);
      ASSERT_OK_AND_ASSIGN(Table want, direct.Execute(q));
      EXPECT_TRUE(MultisetEqual(got, want))
          << "service read diverged from hand-maintained mirror:\n  "
          << DescribeMultisetDifference(got, want);
    }
  };
  // Hand-applied writes: keep the rows `keep` accepts, transformed by
  // `update`, then append `added`.
  auto mirror_write = [&](auto keep, auto update, std::vector<Row> added) {
    TablePtr old = mirror.GetShared("T");
    Table next(old->columns());
    for (Row row : old->rows()) {
      if (!keep(row)) continue;
      update(&row);
      next.AddRowOrDie(std::move(row));
    }
    for (Row& row : added) next.AddRowOrDie(std::move(row));
    mirror.Put("T", std::move(next));
  };
  auto keep_all = [](const Row&) { return true; };
  auto no_update = [](Row*) {};
  auto key_of = [](const Row& row) { return row[0].int64(); };
  auto chunks_now = [&] {
    return service.PinSnapshot()->db.GetShared("T")->chunks().size();
  };
  auto middle_key = [&] {
    return static_cast<int64_t>(kChunkRows) +
           static_cast<int64_t>(rng() % kChunkRows);
  };
  int64_t next_key = rows;

  for (int round = 0; round < 14; ++round) {
    std::string write;
    switch (round % 7) {
      case 0: {  // single-row INSERT
        Row row = make_row(next_key++);
        write = "INSERT INTO T VALUES " + row_sql(row);
        ASSERT_OK(service.Execute(write).status());
        mirror_write(keep_all, no_update, {row});
        break;
      }
      case 1: {  // key-equality DELETE in a middle chunk
        int64_t k = middle_key();
        write = "DELETE FROM T WHERE K = " + std::to_string(k);
        ASSERT_OK(service.Execute(write).status());
        mirror_write([&](const Row& r) { return key_of(r) != k; }, no_update,
                     {});
        break;
      }
      case 2: {  // key-equality UPDATE in a middle chunk
        int64_t k = middle_key();
        write = "UPDATE T SET V = V + 7 WHERE K = " + std::to_string(k);
        ASSERT_OK(service.Execute(write).status());
        mirror_write(keep_all,
                     [&](Row* r) {
                       if (key_of(*r) == k) {
                         (*r)[2] = Value::Int64((*r)[2].int64() + 7);
                       }
                     },
                     {});
        break;
      }
      case 3: {  // range UPDATE inside a middle chunk
        int64_t lo = middle_key();
        write = "UPDATE T SET V = V * 2 WHERE G = 3 AND K >= " +
                std::to_string(lo) + " AND K < " + std::to_string(lo + 300);
        ASSERT_OK(service.Execute(write).status());
        mirror_write(keep_all,
                     [&](Row* r) {
                       int64_t k = key_of(*r);
                       if ((*r)[1] == Value::Int64(3) && k >= lo &&
                           k < lo + 300) {
                         (*r)[2] = Value::Int64((*r)[2].int64() * 2);
                       }
                     },
                     {});
        break;
      }
      case 4: {  // a DELETE that empties the service's chunk 1 entirely
        size_t before = chunks_now();
        TablePtr t = service.PinSnapshot()->db.GetShared("T");
        const ZoneMap& z = t->chunks()[1]->zone(0);
        int64_t lo = static_cast<int64_t>(z.num_min);
        int64_t hi = static_cast<int64_t>(z.num_max);
        write = "DELETE FROM T WHERE K >= " + std::to_string(lo) +
                " AND K <= " + std::to_string(hi);
        ASSERT_OK(service.Execute(write).status());
        mirror_write(
            [&](const Row& r) { return key_of(r) < lo || key_of(r) > hi; },
            no_update, {});
        EXPECT_LT(chunks_now(), before) << "no chunk was emptied";
        break;
      }
      case 5: {  // multi-row INSERT
        std::vector<Row> added;
        write = "INSERT INTO T VALUES ";
        for (int i = 0; i < 20; ++i) {
          added.push_back(make_row(next_key++));
          write += (i > 0 ? ", " : "") + row_sql(added.back());
        }
        ASSERT_OK(service.Execute(write).status());
        mirror_write(keep_all, no_update, added);
        break;
      }
      default: {  // mixed batch: INSERT + key DELETE, one delta
        Row row = make_row(next_key++);
        int64_t k = middle_key();
        write = "BEGIN WRITE; INSERT " + row_sql(row) + "; DELETE K = " +
                std::to_string(k) + "; COMMIT";
        ASSERT_OK(service.Execute("BEGIN WRITE").status());
        ASSERT_OK(
            service.Execute("INSERT INTO T VALUES " + row_sql(row)).status());
        ASSERT_OK(service.Execute("DELETE FROM T WHERE K = " +
                                  std::to_string(k))
                      .status());
        ASSERT_OK(service.Execute("COMMIT").status());
        mirror_write([&](const Row& r) { return key_of(r) != k; }, no_update,
                     {row});
        break;
      }
    }
    ASSERT_NO_FATAL_FAILURE(check_fresh(write));
  }
  // The reads were answered from the views, which writes kept fresh.
  ServiceStats stats = service.Stats();
  EXPECT_GT(stats.rewrites_applied, 0u);
  EXPECT_GE(stats.views_maintained, 1u);
}

// (d) EXPLAIN shows the plan that runs: node kinds, order, tables, keys,
// predicates, planned engines and estimates, for the original query and
// the optimizer's chosen rewriting, under every evaluation mode.
TEST_P(DifferentialTest, ExplainedPlanIsExecutedPlan) {
  uint64_t seed = TestSeed(19000 + GetParam());
  SCOPED_TRACE(SeedTrace(seed));
  RandomWorkloadGen gen(seed);
  RandomPairConfig config = ConfigForParam(GetParam());
  EvalOptions row_engine;
  row_engine.vectorized = false;
  EvalOptions reference;
  reference.use_hash_join = false;
  for (int q = 0; q < kPairsPerSweep; ++q) {
    QueryViewPair pair = gen.NextPair(config);
    ViewRegistry views;
    ASSERT_OK(views.Register(pair.view));
    SCOPED_TRACE("repro:\n  Q: " + ToSql(pair.query) +
                 "\n  V: CREATE MATERIALIZED VIEW " + pair.view.name + " AS " +
                 ToSql(pair.view.query));
    for (int d = 0; d < kDatabasesPerPair; ++d) {
      // Three-table joins cross the columnar conversion threshold of
      // post-join aggregation; the reference plan's products stay small.
      Database db = gen.NextDatabase(24, 3);
      MaterializeInto(&db, views, pair.view.name);
      Optimizer optimizer(&db, &views, &gen.catalog());
      Result<OptimizeResult> plan = optimizer.Optimize(pair.query);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      for (const Query* query : {&pair.query, &plan->chosen}) {
        SCOPED_TRACE("query: " + ToSql(*query));
        Table vectorized = ExpectExplainedPlanRuns(*query, db, views, {});
        ExpectExplainedPlanRuns(*query, db, views, row_engine);
        Table specified = ExpectExplainedPlanRuns(*query, db, views, reference);
        EXPECT_TRUE(MultisetAlmostEqual(vectorized, specified))
            << DescribeMultisetDifference(vectorized, specified);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DifferentialTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace aqv
