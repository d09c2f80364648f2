// Tests for src/service: statement dispatch, rewrite-plan cache correctness
// (hits serve the same rows as cold plans; INSERT/REFRESH/DDL invalidate),
// and multi-threaded execution matching single-threaded results. The
// concurrency tests are the TSan target for the latch discipline:
//
//   cmake -B build-tsan -S . -DAQV_SANITIZE=thread
//   cmake --build build-tsan -j && ctest --test-dir build-tsan -R Service

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/failpoint.h"
#include "base/trace.h"
#include "exec/csv.h"
#include "exec/table.h"
#include "ir/fingerprint.h"
#include "parser/parser.h"
#include "service/query_service.h"
#include "tests/test_util.h"
#include "workload/telephony.h"

namespace aqv {
namespace {

// The Example 1.1 query in shell syntax against the telephony catalog
// (occurrence 1 = Calls, occurrence 2 = Calling_Plans).
std::string TelephonyQuery(int year, double threshold) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "SELECT Plan_Id_2, Plan_Name_2, SUM(Charge_1) AS Total "
                "FROM Calls, Calling_Plans "
                "WHERE Plan_Id_1 = Plan_Id_2 AND Year_1 = %d "
                "GROUPBY Plan_Id_2, Plan_Name_2 HAVING SUM(Charge_1) < %.1f",
                year, threshold);
  return buf;
}

std::unique_ptr<QueryService> MakeTelephonyService(
    ServiceOptions options = ServiceOptions{}, int num_calls = 2000) {
  TelephonyParams params;
  params.num_calls = num_calls;
  TelephonyWorkload w = MakeTelephonyWorkload(params);
  auto service = std::make_unique<QueryService>(options);
  EXPECT_OK(service->Bootstrap(std::move(w.catalog), std::move(w.db),
                               std::move(w.views)));
  Result<StatementResult> refreshed = service->Execute("REFRESH V1");
  EXPECT_OK(refreshed.status());
  return service;
}

StatementResult ExecuteOrDie(QueryService& service, const std::string& stmt) {
  Result<StatementResult> r = service.Execute(stmt);
  EXPECT_TRUE(r.ok()) << "statement: " << stmt
                      << "\nstatus: " << r.status().ToString();
  return r.ok() ? *std::move(r) : StatementResult{};
}

TEST(ServiceStatementTest, DialectRoundTrip) {
  QueryService service;
  EXPECT_OK(service.Execute("CREATE TABLE R(A, B) KEY(A)").status());
  EXPECT_OK(service.Execute("INSERT INTO R VALUES (1, 10), (2, 20)").status());

  StatementResult rows = ExecuteOrDie(service, "SELECT A_1, B_1 FROM R");
  ASSERT_TRUE(rows.table.has_value());
  EXPECT_EQ(rows.table->num_rows(), 2u);

  EXPECT_NE(ExecuteOrDie(service, "TABLES").message.find("R(A, B)"),
            std::string::npos);
  EXPECT_NE(ExecuteOrDie(service, "STATS").message.find("plan cache"),
            std::string::npos);
  EXPECT_FALSE(service.Execute("FROB R").ok());

  // Comments and blank lines are accepted and do nothing.
  EXPECT_OK(service.Execute("# a comment").status());
  EXPECT_OK(service.Execute("   ").status());
}

// Statement keywords match as whole tokens, and CREATE TABLE accepts only
// its grammar. Each malformed statement is refused and changes nothing.
TEST(ServiceStatementTest, MalformedStatementsAreRefusedAndChangeNothing) {
  QueryService service;
  EXPECT_OK(service.Execute("CREATE TABLE R(A, B)").status());
  EXPECT_OK(service.Execute("INSERT INTO R VALUES (1, 10)").status());
  const std::string csv = ::testing::TempDir() + "/aqv_strict_grammar.csv";
  const std::string saved = ::testing::TempDir() + "/aqv_strict_saved.csv";
  Table replacement({"A", "B"});
  replacement.AddRowOrDie({Value::Int64(7), Value::Int64(70)});
  ASSERT_OK(WriteCsvFile(replacement, csv));
  std::remove(saved.c_str());

  for (const std::string& bad :
       {"SAVEPOINT R TO '" + saved + "'", "LOADED R FROM '" + csv + "'",
        "SAVE R TO '" + saved + "' junk", "LOAD R FROM '" + csv + "' junk",
        std::string("CREATE TABLE S(A B)"),
        std::string("CREATE TABLE S(A B) junk here"),
        std::string("CREATE TABLE S(A, B) junk"),
        std::string("CREATE TABLE S(A, B) KEY(A) junk"),
        std::string("CREATE TABLE S(A, B) KEY(A B)"),
        std::string("CREATE TABLE S(A,)")}) {
    EXPECT_EQ(service.Execute(bad).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  EXPECT_FALSE(std::ifstream(saved).good()) << "SAVEPOINT wrote a file";
  EXPECT_FALSE(service.Execute("SELECT A_1 FROM S").ok());
  EXPECT_EQ(ExecuteOrDie(service, "TABLES").message, "  R(A, B) — 1 rows\n");
  ASSERT_OK_AND_ASSIGN(Table r, service.Select("SELECT A_1, B_1 FROM R"));
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.rows()[0][1], Value::Int64(10));

  // The well-formed statements still work.
  EXPECT_OK(service.Execute("SAVE R TO '" + saved + "'").status());
  EXPECT_OK(service.Execute("CREATE TABLE S(A, B) KEY(A)").status());
  std::remove(csv.c_str());
  std::remove(saved.c_str());
}

// Select(sql, snapshot) enters the same router as Execute: the size cap,
// admission control and the error counter all apply to it.
TEST(ServiceStatementTest, SnapshotSelectIsCappedAdmittedAndCounted) {
  ServiceOptions options;
  options.max_statement_bytes = 64;
  options.max_concurrent_statements = 1;
  options.admission_wait_micros = 1000;
  QueryService service(options);
  ExecuteOrDie(service, "CREATE TABLE R(A, B)");
  ExecuteOrDie(service, "INSERT INTO R VALUES (1, 2), (3, 4)");
  ServiceSnapshotPtr snap = service.PinSnapshot();
  auto errors = [&](const std::string& code) {
    for (const auto& [c, n] : service.Stats().errors_by_code) {
      if (c == code) return n;
    }
    return uint64_t{0};
  };

  const std::string oversized =
      "SELECT A_1 FROM R WHERE B_1 = 2 AND A_1 = 1 AND B_1 = 2 AND A_1 = 1";
  ASSERT_GT(oversized.size(), options.max_statement_bytes);
  Result<Table> capped = service.Select(oversized, *snap);
  ASSERT_FALSE(capped.ok());
  EXPECT_NE(capped.status().ToString().find("byte limit"), std::string::npos)
      << capped.status().ToString();
  EXPECT_EQ(errors("invalid_argument"), 1u);
  Result<Table> refused = service.Select("STATS", *snap);
  EXPECT_FALSE(refused.ok()) << "only the SELECT form reads a snapshot";
  EXPECT_EQ(errors("invalid_argument"), 2u);

  // Park one statement inside execution, then read the snapshot.
  FailpointScope scope("exec.operator", "delay(400000,100,1)");
  std::atomic<bool> entered{false};
  std::thread parked([&] {
    entered.store(true);
    EXPECT_TRUE(service.Execute("SELECT A_1 FROM R").ok());
  });
  while (!entered.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Result<Table> busy = service.Select("SELECT A_1 FROM R", *snap);
  parked.join();
  ASSERT_FALSE(busy.ok());
  EXPECT_EQ(busy.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(errors("unavailable"), 1u);
  Result<Table> rows = service.Select("SELECT A_1 FROM R", *snap);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->num_rows(), 2u);
}

TEST(ServicePlanCacheTest, HitReturnsSameRowsAsColdPlan) {
  std::unique_ptr<QueryService> service = MakeTelephonyService();
  std::string q = TelephonyQuery(1995, 1e9);

  StatementResult cold = ExecuteOrDie(*service, q);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(cold.used_materialized_view);
  ASSERT_TRUE(cold.table.has_value());

  StatementResult warm = ExecuteOrDie(*service, q);
  EXPECT_TRUE(warm.cache_hit);
  ASSERT_TRUE(warm.table.has_value());
  EXPECT_TRUE(MultisetEqual(*cold.table, *warm.table))
      << DescribeMultisetDifference(*cold.table, *warm.table);

  ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.plan_cache_hits, 1u);
  EXPECT_EQ(stats.plan_cache_misses, 1u);
  EXPECT_EQ(stats.queries_served, 2u);
  EXPECT_GE(stats.rewrites_applied, 2u);
}

TEST(ServicePlanCacheTest, CanonicalFingerprintNormalizesConjunctOrder) {
  std::unique_ptr<QueryService> service = MakeTelephonyService();
  StatementResult first = ExecuteOrDie(
      *service,
      "SELECT Plan_Id_2, SUM(Charge_1) AS Total FROM Calls, Calling_Plans "
      "WHERE Plan_Id_1 = Plan_Id_2 AND Year_1 = 1995 GROUPBY Plan_Id_2");
  EXPECT_FALSE(first.cache_hit);
  // Same query: conjuncts reordered, both predicates mirrored.
  StatementResult second = ExecuteOrDie(
      *service,
      "SELECT Plan_Id_2, SUM(Charge_1) AS Total FROM Calls, Calling_Plans "
      "WHERE 1995 = Year_1 AND Plan_Id_2 = Plan_Id_1 GROUPBY Plan_Id_2");
  EXPECT_TRUE(second.cache_hit);
  ASSERT_TRUE(first.table.has_value() && second.table.has_value());
  EXPECT_TRUE(MultisetEqual(*first.table, *second.table));
}

TEST(ServicePlanCacheTest, FingerprintDistinguishesDifferentQueries) {
  ASSERT_OK_AND_ASSIGN(Query a,
                       ParseQuery("SELECT A1 FROM R1(A1, B1) WHERE B1 = 1"));
  ASSERT_OK_AND_ASSIGN(Query b,
                       ParseQuery("SELECT A1 FROM R1(A1, B1) WHERE B1 = 2"));
  ASSERT_OK_AND_ASSIGN(
      Query a_mirrored, ParseQuery("SELECT A1 FROM R1(A1, B1) WHERE 1 = B1"));
  EXPECT_NE(CanonicalCacheKey(a), CanonicalCacheKey(b));
  EXPECT_EQ(CanonicalCacheKey(a), CanonicalCacheKey(a_mirrored));
  EXPECT_EQ(QueryFingerprint(a), QueryFingerprint(a_mirrored));
}

// A data write does not evict a cached plan: the written table's entry is
// re-costed for the new version, and an entry that does not read it is
// served untouched.
TEST(ServicePlanCacheTest, InsertRecostsOnlyAffectedEntries) {
  QueryService service;
  EXPECT_OK(service.Execute("CREATE TABLE R(A, B)").status());
  EXPECT_OK(service.Execute("CREATE TABLE S(C, D)").status());
  EXPECT_OK(service.Execute("INSERT INTO R VALUES (1, 10), (1, 20)").status());
  EXPECT_OK(service.Execute("INSERT INTO S VALUES (7, 70)").status());

  std::string qr = "SELECT A_1, SUM(B_1) AS T FROM R GROUPBY A_1";
  std::string qs = "SELECT C_1, SUM(D_1) AS T FROM S GROUPBY C_1";
  ExecuteOrDie(service, qr);
  ExecuteOrDie(service, qs);
  EXPECT_TRUE(ExecuteOrDie(service, qr).cache_hit);
  EXPECT_TRUE(ExecuteOrDie(service, qs).cache_hit);

  EXPECT_OK(service.Execute("INSERT INTO R VALUES (1, 30)").status());

  // R's entry was re-costed, not re-optimized, and the execution sees the
  // new row ...
  StatementResult after = ExecuteOrDie(service, qr);
  EXPECT_TRUE(after.cache_hit);
  EXPECT_TRUE(after.recosted);
  ASSERT_TRUE(after.table.has_value());
  ASSERT_EQ(after.table->num_rows(), 1u);
  EXPECT_EQ(after.table->rows()[0][1], Value::Int64(60));
  // ... while S's entry survived the unrelated INSERT as it was.
  StatementResult unrelated = ExecuteOrDie(service, qs);
  EXPECT_TRUE(unrelated.cache_hit);
  EXPECT_FALSE(unrelated.recosted);
  EXPECT_EQ(service.Stats().plan_cache_recosts, 1u);
  EXPECT_EQ(service.Stats().plan_cache_invalidated, 0u);
  EXPECT_EQ(service.Stats().plan_cache_misses, 2u);
}

TEST(ServicePlanCacheTest, WritesRecostViewDependents) {
  std::unique_ptr<QueryService> service = MakeTelephonyService();
  std::string q = TelephonyQuery(1995, 1e9);

  StatementResult cold = ExecuteOrDie(*service, q);
  EXPECT_TRUE(cold.used_materialized_view);
  EXPECT_TRUE(ExecuteOrDie(*service, q).cache_hit);

  // An INSERT into the base table changes a dependency (Calls, via both
  // the original and the view's definition), so the entry is re-costed.
  EXPECT_OK(service
                ->Execute("INSERT INTO Calls VALUES "
                          "(990001, 5, 3, 14, 6, 1995, 4.5)")
                .status());
  StatementResult after_insert = ExecuteOrDie(*service, q);
  EXPECT_TRUE(after_insert.cache_hit);
  EXPECT_TRUE(after_insert.recosted);

  // The re-costed entry serves as is, then REFRESH V1: the view's stored
  // contents changed, so the dependent entry is re-costed again and the
  // served rows pick up the new call through the refreshed summary.
  StatementResult primed = ExecuteOrDie(*service, q);
  EXPECT_TRUE(primed.cache_hit);
  EXPECT_FALSE(primed.recosted);
  EXPECT_OK(service->Execute("REFRESH V1").status());
  StatementResult after_refresh = ExecuteOrDie(*service, q);
  EXPECT_TRUE(after_refresh.cache_hit);
  EXPECT_TRUE(after_refresh.recosted);
  EXPECT_TRUE(after_refresh.used_materialized_view);
  EXPECT_EQ(service->Stats().plan_cache_misses, 1u);

  // Ground truth: a cache-less service fed the same statements.
  ServiceOptions no_cache;
  no_cache.plan_cache_capacity = 0;
  std::unique_ptr<QueryService> witness = MakeTelephonyService(no_cache);
  EXPECT_OK(witness
                ->Execute("INSERT INTO Calls VALUES "
                          "(990001, 5, 3, 14, 6, 1995, 4.5)")
                .status());
  EXPECT_OK(witness->Execute("REFRESH V1").status());
  StatementResult expected = ExecuteOrDie(*witness, q);
  ASSERT_TRUE(expected.table.has_value() && after_refresh.table.has_value());
  EXPECT_TRUE(MultisetAlmostEqual(*expected.table, *after_refresh.table))
      << DescribeMultisetDifference(*expected.table, *after_refresh.table);
  EXPECT_EQ(witness->Stats().plan_cache_hits, 0u);
}

TEST(ServicePlanCacheTest, DdlClearsWholeCache) {
  QueryService service;
  EXPECT_OK(service.Execute("CREATE TABLE R(A, B)").status());
  EXPECT_OK(service.Execute("INSERT INTO R VALUES (1, 2), (3, 4)").status());
  std::string q = "SELECT A_1 FROM R WHERE B_1 > 1";
  ExecuteOrDie(service, q);
  EXPECT_TRUE(ExecuteOrDie(service, q).cache_hit);

  EXPECT_OK(service.Execute("CREATE TABLE Unrelated(X)").status());
  EXPECT_FALSE(ExecuteOrDie(service, q).cache_hit);
  EXPECT_EQ(service.Stats().plan_cache_size, 1u);
}

TEST(ServicePlanCacheTest, CreateMaterializedViewFlipsPlanToRewrite) {
  QueryService service;
  EXPECT_OK(service.Execute("CREATE TABLE Sales(Shop, Amount)").status());
  // Integer amounts: SUM re-association is exact, so results must be equal.
  EXPECT_OK(service
                .Execute("INSERT INTO Sales VALUES (1, 10), (1, 11), (2, 20), "
                         "(2, 21), (3, 30)")
                .status());
  std::string q =
      "SELECT Shop_1, SUM(Amount_1) AS T FROM Sales GROUPBY Shop_1";
  StatementResult base = ExecuteOrDie(service, q);
  EXPECT_FALSE(base.used_materialized_view);
  EXPECT_TRUE(ExecuteOrDie(service, q).cache_hit);

  EXPECT_OK(service
                .Execute("CREATE MATERIALIZED VIEW Totals AS SELECT Shop_1, "
                         "SUM(Amount_1) AS T FROM Sales GROUPBY Shop_1")
                .status());
  StatementResult rewritten = ExecuteOrDie(service, q);
  EXPECT_FALSE(rewritten.cache_hit);  // DDL cleared the cache
  EXPECT_TRUE(rewritten.used_materialized_view);
  ASSERT_TRUE(base.table.has_value() && rewritten.table.has_value());
  EXPECT_TRUE(MultisetEqual(*base.table, *rewritten.table))
      << DescribeMultisetDifference(*base.table, *rewritten.table);
}

// Plan-cache entries are validated against the reader's pinned state. A
// snapshot pinned before an INSERT and a CREATE MATERIALIZED VIEW keeps
// reading its own epoch and never runs a plan naming the new view; the head
// picks up both. After each step both equal a cache-less witness exactly.
// The INSERT re-costs the entry, for the head and for the pinned reader
// alike; the DDL re-optimizes it.
TEST(ServicePlanCacheTest, EntriesAreValidatedAgainstThePinnedState) {
  QueryService service;
  ServiceOptions no_cache;
  no_cache.plan_cache_capacity = 0;
  QueryService witness(no_cache);
  for (QueryService* s : {&service, &witness}) {
    EXPECT_OK(s->Execute("CREATE TABLE Sales(Shop, Amount)").status());
    EXPECT_OK(s->Execute("INSERT INTO Sales VALUES (1, 10), (1, 11), (2, 20)")
                  .status());
  }
  const std::string q =
      "SELECT Shop_1, SUM(Amount_1) AS T FROM Sales GROUPBY Shop_1";
  ServiceSnapshotPtr pinned = service.PinSnapshot();
  ServiceSnapshotPtr witness_pinned = witness.PinSnapshot();
  EXPECT_FALSE(ExecuteOrDie(service, q).cache_hit);  // primed at the head

  uint64_t invalidated = service.Stats().plan_cache_invalidated;
  uint64_t recosts = service.Stats().plan_cache_recosts;
  for (const std::string& step :
       {std::string("INSERT INTO Sales VALUES (1, 5), (3, 30)"),
        std::string("CREATE MATERIALIZED VIEW Totals AS SELECT Shop_1, "
                    "SUM(Amount_1) AS T FROM Sales GROUPBY Shop_1")}) {
    SCOPED_TRACE(step);
    const bool ddl = step.rfind("CREATE", 0) == 0;
    EXPECT_OK(service.Execute(step).status());
    EXPECT_OK(witness.Execute(step).status());

    StatementResult head = ExecuteOrDie(service, q);
    StatementResult expected = ExecuteOrDie(witness, q);
    ASSERT_TRUE(head.table.has_value() && expected.table.has_value());
    EXPECT_EQ(head.cache_hit, !ddl);
    EXPECT_EQ(head.recosted, !ddl);
    EXPECT_TRUE(MultisetEqual(*expected.table, *head.table))
        << DescribeMultisetDifference(*expected.table, *head.table);

    // No materialized view exists on the pinned state, so a rewrite there
    // could only name the new one.
    uint64_t rewrites = service.Stats().rewrites_applied;
    ASSERT_OK_AND_ASSIGN(Table old_rows, service.Select(q, *pinned));
    EXPECT_EQ(service.Stats().rewrites_applied, rewrites);
    ASSERT_OK_AND_ASSIGN(Table old_expected, witness.Select(q, *witness_pinned));
    EXPECT_TRUE(MultisetEqual(old_expected, old_rows))
        << DescribeMultisetDifference(old_expected, old_rows);

    if (ddl) {
      EXPECT_GT(service.Stats().plan_cache_invalidated, invalidated);
    } else {
      EXPECT_EQ(service.Stats().plan_cache_invalidated, invalidated);
      EXPECT_EQ(service.Stats().plan_cache_recosts, recosts + 2);
    }
    invalidated = service.Stats().plan_cache_invalidated;
    recosts = service.Stats().plan_cache_recosts;
  }
  EXPECT_TRUE(ExecuteOrDie(service, q).used_materialized_view);
}

TEST(ServicePlanCacheTest, LruEvictsLeastRecentlyUsed) {
  ServiceOptions options;
  options.plan_cache_capacity = 2;
  QueryService service(options);
  EXPECT_OK(service.Execute("CREATE TABLE R(A, B)").status());
  EXPECT_OK(service.Execute("INSERT INTO R VALUES (1, 2)").status());

  std::string q1 = "SELECT A_1 FROM R WHERE B_1 = 1";
  std::string q2 = "SELECT A_1 FROM R WHERE B_1 = 2";
  std::string q3 = "SELECT A_1 FROM R WHERE B_1 = 3";
  ExecuteOrDie(service, q1);
  ExecuteOrDie(service, q2);
  ExecuteOrDie(service, q1);  // q1 now MRU
  ExecuteOrDie(service, q3);  // evicts q2
  EXPECT_EQ(service.Stats().plan_cache_size, 2u);
  EXPECT_TRUE(ExecuteOrDie(service, q1).cache_hit);
  EXPECT_FALSE(ExecuteOrDie(service, q2).cache_hit);
}

// A Sales table two summary views can answer the per-shop total from:
// ByRegion (one row per shop and region) and ByDay (one per shop and day).
// At first every sale is in region 1 across 20 days, so ByRegion is the
// smaller view.
void MakeTwoViewSales(QueryService* service) {
  std::string rows;
  for (int shop = 1; shop <= 3; ++shop) {
    for (int day = 1; day <= 20; ++day) {
      for (int k = 0; k < 2; ++k) {
        if (!rows.empty()) rows += ", ";
        rows += "(" + std::to_string(shop) + ", 1, " + std::to_string(day) +
                ", " + std::to_string(shop * 100 + day + k) + ")";
      }
    }
  }
  EXPECT_OK(service->Execute("CREATE TABLE Sales(Shop, R, D, Amount)").status());
  EXPECT_OK(service->Execute("INSERT INTO Sales VALUES " + rows).status());
  EXPECT_OK(service
                ->Execute("CREATE MATERIALIZED VIEW ByRegion AS SELECT "
                          "Shop_1, R_1, SUM(Amount_1) AS T FROM Sales "
                          "GROUPBY Shop_1, R_1")
                .status());
  EXPECT_OK(service
                ->Execute("CREATE MATERIALIZED VIEW ByDay AS SELECT Shop_1, "
                          "D_1, SUM(Amount_1) AS T FROM Sales "
                          "GROUPBY Shop_1, D_1")
                .status());
}

// 59 new regions per shop, all on day 1: ByRegion grows past ByDay.
std::string ManyRegionsInsert() {
  std::string rows;
  for (int shop = 1; shop <= 3; ++shop) {
    for (int region = 2; region <= 60; ++region) {
      if (!rows.empty()) rows += ", ";
      rows += "(" + std::to_string(shop) + ", " + std::to_string(region) +
              ", 1, " + std::to_string(region) + ")";
    }
  }
  return "INSERT INTO Sales VALUES " + rows;
}

constexpr char kShopTotals[] =
    "SELECT Shop_1, SUM(Amount_1) AS T FROM Sales GROUPBY Shop_1";

// A write that reverses the sizes of two usable views flips the cached
// choice from one to the other without a rewrite search, and the flipped
// plan answers like a cache-less witness.
TEST(ServicePlanCacheTest, WriteThatReversesViewSizesFlipsTheCachedChoice) {
  QueryService service;
  ServiceOptions no_cache;
  no_cache.plan_cache_capacity = 0;
  QueryService witness(no_cache);
  MakeTwoViewSales(&service);
  MakeTwoViewSales(&witness);

  StatementResult cold = ExecuteOrDie(service, kShopTotals);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_NE(cold.message.find("FROM ByRegion"), std::string::npos)
      << cold.message;

  EXPECT_OK(service.Execute(ManyRegionsInsert()).status());
  EXPECT_OK(witness.Execute(ManyRegionsInsert()).status());
  uint64_t invalidated = service.Stats().plan_cache_invalidated;
  StatementResult flipped = ExecuteOrDie(service, kShopTotals);
  EXPECT_TRUE(flipped.cache_hit);
  EXPECT_TRUE(flipped.recosted);
  EXPECT_NE(flipped.message.find("FROM ByDay"), std::string::npos)
      << flipped.message;
  EXPECT_EQ(service.Stats().plan_cache_invalidated, invalidated + 1);
  EXPECT_EQ(service.Stats().plan_cache_misses, 1u);

  StatementResult expected = ExecuteOrDie(witness, kShopTotals);
  ASSERT_TRUE(flipped.table.has_value() && expected.table.has_value());
  EXPECT_TRUE(MultisetEqual(*expected.table, *flipped.table))
      << DescribeMultisetDifference(*expected.table, *flipped.table);
  // The re-stamped entry names the new choice and serves as is.
  StatementResult again = ExecuteOrDie(service, kShopTotals);
  EXPECT_TRUE(again.cache_hit);
  EXPECT_FALSE(again.recosted);
  EXPECT_NE(again.message.find("FROM ByDay"), std::string::npos);
}

// A view quarantined after a plan naming it was cached is not served from
// that plan, though no data changed: the quarantine set is part of what an
// entry was chosen around.
TEST(ServicePlanCacheTest, ViewQuarantinedAfterCachingIsNotServed) {
  ServiceOptions options;
  options.quarantine_cooldown_statements = 0;
  QueryService service(options);
  MakeTwoViewSales(&service);
  StatementResult cached = ExecuteOrDie(service, kShopTotals);
  ASSERT_TRUE(cached.used_materialized_view);

  {
    // Three other statements whose rewrite attempts fail charge every
    // stored view up to the threshold.
    FailpointScope scope("rewrite.enumerate", "error");
    ASSERT_TRUE(scope.armed());
    for (int shop = 1; shop <= 3; ++shop) {
      ExecuteOrDie(service, "SELECT Shop_1, SUM(Amount_1) AS T FROM Sales "
                            "WHERE Shop_1 = " +
                                std::to_string(shop) + " GROUPBY Shop_1");
    }
  }
  ASSERT_EQ(service.Stats().quarantined_views,
            (std::vector<std::string>{"ByDay", "ByRegion"}));
  StatementResult after = ExecuteOrDie(service, kShopTotals);
  EXPECT_FALSE(after.cache_hit);
  EXPECT_FALSE(after.used_materialized_view);
  ASSERT_TRUE(cached.table.has_value() && after.table.has_value());
  EXPECT_TRUE(MultisetEqual(*cached.table, *after.table));
}

// The reverse: a plan cached while its views were quarantined is
// re-optimized once the cooldown frees them, with no write and no other
// lookup of the quarantine set in between.
TEST(ServicePlanCacheTest, QuarantineCooldownReachesCachedPlans) {
  ServiceOptions options;
  options.quarantine_cooldown_statements = 6;
  QueryService service(options);
  MakeTwoViewSales(&service);
  {
    FailpointScope scope("rewrite.enumerate", "error");
    ASSERT_TRUE(scope.armed());
    for (int shop = 1; shop <= 3; ++shop) {
      ExecuteOrDie(service, "SELECT Shop_1, SUM(Amount_1) AS T FROM Sales "
                            "WHERE Shop_1 = " +
                                std::to_string(shop) + " GROUPBY Shop_1");
    }
  }
  EXPECT_FALSE(ExecuteOrDie(service, kShopTotals).used_materialized_view);
  EXPECT_TRUE(ExecuteOrDie(service, kShopTotals).cache_hit);
  for (int i = 0; i < 6; ++i) ExecuteOrDie(service, "TABLES");
  StatementResult freed = ExecuteOrDie(service, kShopTotals);
  EXPECT_FALSE(freed.cache_hit);
  EXPECT_TRUE(freed.used_materialized_view);
}

// A REFRESH that stores a virtual view adds candidates a cached set lacks:
// the next re-cost finds more stored views than the search saw and
// re-optimizes instead.
TEST(ServicePlanCacheTest, ViewStoredByRefreshIsPickedUpAfterAWrite) {
  QueryService service;
  EXPECT_OK(service.Execute("CREATE TABLE Sales(Shop, Amount)").status());
  EXPECT_OK(service
                .Execute("INSERT INTO Sales VALUES (1, 10), (1, 11), (2, 20), "
                         "(2, 21), (3, 30)")
                .status());
  EXPECT_OK(service
                .Execute("CREATE VIEW Totals AS SELECT Shop_1, SUM(Amount_1) "
                         "AS T FROM Sales GROUPBY Shop_1")
                .status());
  const std::string q =
      "SELECT Shop_1, SUM(Amount_1) AS T FROM Sales GROUPBY Shop_1";
  EXPECT_FALSE(ExecuteOrDie(service, q).used_materialized_view);
  EXPECT_OK(service.Execute("REFRESH Totals").status());
  EXPECT_OK(service.Execute("INSERT INTO Sales VALUES (3, 31)").status());
  StatementResult after = ExecuteOrDie(service, q);
  EXPECT_FALSE(after.cache_hit);
  EXPECT_TRUE(after.used_materialized_view);
}

// Entries whose candidate set may be incomplete keep the old contract:
// served only on the data versions they were stamped with, and fully
// re-optimized after a write.
TEST(ServicePlanCacheTest, IncompleteCandidateSetsReoptimizeAfterAWrite) {
  {
    SCOPED_TRACE("a view's rewriting failed");
    QueryService service;
    MakeTwoViewSales(&service);
    {
      FailpointScope scope("rewrite.enumerate", "error(100,1)");
      ASSERT_TRUE(scope.armed());
      ExecuteOrDie(service, kShopTotals);
    }
    EXPECT_TRUE(ExecuteOrDie(service, kShopTotals).cache_hit);
    EXPECT_OK(service.Execute("INSERT INTO Sales VALUES (1, 1, 1, 5)").status());
    StatementResult after = ExecuteOrDie(service, kShopTotals);
    EXPECT_FALSE(after.cache_hit);
    EXPECT_EQ(service.Stats().plan_cache_recosts, 0u);
    EXPECT_EQ(service.Stats().plan_cache_misses, 2u);
  }
  {
    SCOPED_TRACE("the deadline cut the search short");
    ServiceOptions options;
    options.statement_deadline_micros = 20000;
    QueryService service(options);
    MakeTwoViewSales(&service);
    {
      // One rewrite attempt sleeps past the deadline; EXPLAIN plans
      // without executing, so the statement still succeeds.
      FailpointScope scope("rewrite.enumerate", "delay(40000,100,1)");
      ASSERT_TRUE(scope.armed());
      ExecuteOrDie(service, std::string("EXPLAIN ") + kShopTotals);
    }
    EXPECT_TRUE(ExecuteOrDie(service, kShopTotals).cache_hit);
    EXPECT_OK(service.Execute("INSERT INTO Sales VALUES (1, 1, 1, 5)").status());
    StatementResult after = ExecuteOrDie(service, kShopTotals);
    EXPECT_FALSE(after.cache_hit);
    EXPECT_EQ(service.Stats().plan_cache_recosts, 0u);
    // The complete entry that replaced it is re-costed after the next
    // write.
    EXPECT_OK(service.Execute("INSERT INTO Sales VALUES (2, 1, 1, 5)").status());
    EXPECT_TRUE(ExecuteOrDie(service, kShopTotals).recosted);
  }
}

// A plan restored from a checkpoint keeps no candidate set: it serves until
// the first write to a dependency, then is re-optimized.
TEST(ServicePlanCacheTest, RestoredPlanReoptimizesAfterAWrite) {
  std::string path = ::testing::TempDir() + "/aqv_restored_plan.db";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  ServiceOptions options;
  options.storage_path = path;
  {
    QueryService service(options);
    MakeTwoViewSales(&service);
    ExecuteOrDie(service, kShopTotals);
    EXPECT_OK(service.Execute("CHECKPOINT").status());
  }
  QueryService service(options);
  ASSERT_TRUE(service.storage_attached());
  StatementResult restored = ExecuteOrDie(service, kShopTotals);
  EXPECT_TRUE(restored.cache_hit);
  EXPECT_OK(service.Execute("INSERT INTO Sales VALUES (1, 1, 1, 5)").status());
  StatementResult after = ExecuteOrDie(service, kShopTotals);
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(service.Stats().plan_cache_recosts, 0u);
  EXPECT_OK(service.Execute("INSERT INTO Sales VALUES (2, 1, 1, 5)").status());
  EXPECT_TRUE(ExecuteOrDie(service, kShopTotals).recosted);
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

// A reader on an older pinned snapshot re-costs for itself and leaves the
// head's entry in place, so the next head read is served as is.
TEST(ServicePlanCacheTest, PinnedRecostLeavesTheHeadEntry) {
  QueryService service;
  MakeTwoViewSales(&service);
  ServiceSnapshotPtr pinned = service.PinSnapshot();
  EXPECT_OK(service.Execute(ManyRegionsInsert()).status());
  StatementResult head = ExecuteOrDie(service, kShopTotals);  // miss
  EXPECT_NE(head.message.find("FROM ByDay"), std::string::npos);
  ASSERT_OK_AND_ASSIGN(Table old_rows, service.Select(kShopTotals, *pinned));
  EXPECT_EQ(service.Stats().plan_cache_recosts, 1u);
  StatementResult again = ExecuteOrDie(service, kShopTotals);
  EXPECT_TRUE(again.cache_hit);
  EXPECT_FALSE(again.recosted);
  EXPECT_EQ(service.Stats().plan_cache_invalidated, 1u);  // the pinned flip
}

// A repeated SELECT text is parsed once; later runs take the parsed
// statement from the text map.
TEST(ServicePlanCacheTest, RepeatedTextIsParsedOnce) {
  ServiceOptions options;
  options.slow_query_micros = 1;  // every statement reaches the slow log
  QueryService service(options);
  EXPECT_OK(service.Execute("CREATE TABLE R(A, B)").status());
  EXPECT_OK(service.Execute("INSERT INTO R VALUES (1, 2), (3, 4)").status());
  const std::string q = "SELECT A_1 FROM R WHERE B_1 > 1";
  StatementResult first = ExecuteOrDie(service, q);
  EXPECT_EQ(service.Stats().statement_cache_hits, 0u);
  EXPECT_OK(service.Execute("INSERT INTO R VALUES (5, 6)").status());
  StatementResult second = ExecuteOrDie(service, q);
  EXPECT_EQ(service.Stats().statement_cache_hits, 1u);
  EXPECT_TRUE(second.recosted);
  ASSERT_TRUE(second.table.has_value());
  EXPECT_EQ(second.table->num_rows(), 3u);
  // A schema change re-parses: the text binds against the new catalog.
  EXPECT_OK(service.Execute("CREATE TABLE Unrelated(X)").status());
  ExecuteOrDie(service, q);
  EXPECT_EQ(service.Stats().statement_cache_hits, 1u);
  // A parse error is not stored.
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(service.Execute("SELECT Nope_1 FROM R").ok());
  }
  EXPECT_EQ(service.Stats().statement_cache_hits, 1u);

  ServiceOptions off;
  off.plan_cache_capacity = 0;
  QueryService uncached(off);
  EXPECT_OK(uncached.Execute("CREATE TABLE R(A, B)").status());
  ExecuteOrDie(uncached, q);
  ExecuteOrDie(uncached, q);
  EXPECT_EQ(uncached.Stats().statement_cache_hits, 0u);
}

// Texts that differ only in whitespace are two statement-map entries but
// one plan entry: the plan key is the canonical query.
TEST(ServicePlanCacheTest, WhitespaceVariantsShareOnePlanEntry) {
  QueryService service;
  EXPECT_OK(service.Execute("CREATE TABLE R(A, B)").status());
  EXPECT_OK(service.Execute("INSERT INTO R VALUES (1, 2), (3, 4)").status());
  StatementResult a = ExecuteOrDie(service, "SELECT A_1 FROM R WHERE B_1 > 1");
  StatementResult b =
      ExecuteOrDie(service, "SELECT  A_1\n  FROM R\tWHERE B_1 >  1");
  EXPECT_FALSE(a.cache_hit);
  EXPECT_TRUE(b.cache_hit);
  EXPECT_EQ(service.Stats().plan_cache_size, 1u);
  EXPECT_EQ(service.Stats().statement_cache_hits, 0u);
  ASSERT_TRUE(a.table.has_value() && b.table.has_value());
  EXPECT_TRUE(MultisetEqual(*a.table, *b.table));
}

// N threads x M mixed statements. Shared read-only telephony SELECTs are
// checked against single-threaded ground truth; each thread additionally
// runs a private CREATE/INSERT/SELECT sequence (concurrent DDL + writes)
// whose results are exactly predictable. Failures are collected and
// asserted on the main thread.
TEST(ServiceConcurrencyTest, MixedStatementsMatchSingleThreadedExecution) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 12;

  std::unique_ptr<QueryService> service = MakeTelephonyService();
  std::vector<std::string> pool = {
      TelephonyQuery(1994, 1e9), TelephonyQuery(1995, 1e9),
      TelephonyQuery(1996, 1e9), TelephonyQuery(1995, 500.0),
      "SELECT Plan_Id_1, SUM(Charge_1) AS T FROM Calls GROUPBY Plan_Id_1",
  };

  // Ground truth, single-threaded, before any concurrency.
  std::vector<Table> expected;
  for (const std::string& q : pool) {
    StatementResult r = ExecuteOrDie(*service, q);
    ASSERT_TRUE(r.table.has_value()) << q;
    expected.push_back(*std::move(r.table));
  }

  std::atomic<int> failures{0};
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto fail = [&](const std::string& msg) {
        errors[t] += msg + "\n";
        failures.fetch_add(1);
      };
      // Private-table mixed statements (DDL + INSERT under contention).
      std::string mine = "P" + std::to_string(t);
      if (!service->Execute("CREATE TABLE " + mine + "(A, B)").ok()) {
        fail("create " + mine);
      }
      int64_t sum = 0;
      for (int round = 0; round < kRounds; ++round) {
        int64_t v = t * 1000 + round;
        sum += v;
        if (!service
                 ->Execute("INSERT INTO " + mine + " VALUES (1, " +
                           std::to_string(v) + ")")
                 .ok()) {
          fail("insert " + mine);
        }
        // Shared read: must match the single-threaded ground truth.
        const std::string& q = pool[(t + round) % pool.size()];
        Result<StatementResult> shared = service->Execute(q);
        if (!shared.ok() || !shared->table.has_value()) {
          fail("shared select failed: " + q);
        } else if (!MultisetAlmostEqual(expected[(t + round) % pool.size()],
                                        *shared->table)) {
          fail("shared select diverged: " + q);
        }
        // Private read: exactly predictable despite concurrent writers.
        Result<StatementResult> own = service->Execute(
            "SELECT A_1, SUM(B_1) AS T FROM " + mine + " GROUPBY A_1");
        if (!own.ok() || !own->table.has_value() ||
            own->table->num_rows() != 1 ||
            !(own->table->rows()[0][1] == Value::Int64(sum))) {
          fail("private select diverged on " + mine);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0) << [&] {
    std::string all;
    for (const std::string& e : errors) all += e;
    return all;
  }();

  // Every statement was accounted for and the latch let readers overlap.
  ServiceStats stats = service->Stats();
  EXPECT_GE(stats.queries_served,
            static_cast<uint64_t>(pool.size() + 2 * kThreads * kRounds));
  EXPECT_GT(stats.plan_cache_hits, 0u);
}

TEST(ServiceObservabilityTest, ExplainAnalyzeShowsActualRowsAndTimings) {
  std::unique_ptr<QueryService> service = MakeTelephonyService();
  StatementResult r =
      ExecuteOrDie(*service, "EXPLAIN ANALYZE " + TelephonyQuery(1995, 1e9));
  EXPECT_FALSE(r.table.has_value());  // analyze reports, it does not return rows
  // Cost estimates and the executed operator tree with actuals, side by side.
  EXPECT_NE(r.message.find("cost:"), std::string::npos) << r.message;
  EXPECT_NE(r.message.find("rewriting(s) considered"), std::string::npos);
  EXPECT_NE(r.message.find("(actual rows="), std::string::npos) << r.message;
  EXPECT_NE(r.message.find(" us)"), std::string::npos);
  EXPECT_NE(r.message.find(" rows]"), std::string::npos);  // stored-cardinality estimate
  EXPECT_NE(r.message.find("HashAggregate("), std::string::npos) << r.message;
  EXPECT_NE(r.message.find("Having("), std::string::npos);
  EXPECT_NE(r.message.find("total: "), std::string::npos);
  EXPECT_NE(r.message.find("result: "), std::string::npos);
  // The analyzed SELECT executed for real.
  EXPECT_EQ(service->Stats().queries_served, 1u);
}

TEST(ServiceObservabilityTest, ExplainAnalyzeMatchesPlainSelectRows) {
  QueryService service;
  EXPECT_OK(service.Execute("CREATE TABLE R(A, B)").status());
  EXPECT_OK(service.Execute("INSERT INTO R VALUES (1, 2), (1, 4), (2, 8)")
                .status());
  std::string q = "SELECT A_1, SUM(B_1) AS T FROM R GROUPBY A_1";
  StatementResult rows = ExecuteOrDie(service, q);
  ASSERT_TRUE(rows.table.has_value());
  StatementResult analyzed = ExecuteOrDie(service, "EXPLAIN ANALYZE " + q);
  EXPECT_NE(analyzed.message.find("result: " +
                                  std::to_string(rows.table->num_rows()) +
                                  " row(s)"),
            std::string::npos)
      << analyzed.message;
}

/// The operator lines of a rendered plan, without their figures or engine
/// tags: what ran (or would run), in order, with tables, keys and filters.
std::vector<std::string> PlanOperators(const std::string& message) {
  std::vector<std::string> ops;
  std::istringstream lines(message);
  for (std::string line; std::getline(lines, line);) {
    bool is_op = false;
    for (const char* kind : {"Scan ", "HashJoin(", "CartesianProduct ",
                             "Filter(", "HashAggregate(", "Having(",
                             "Project(", "ProjectDistinct("}) {
      is_op = is_op || line.rfind(kind, 0) == 0;
    }
    if (!is_op) continue;
    line = line.substr(0, line.find("  ("));
    for (size_t at; (at = line.find(" [vec]")) != std::string::npos;) {
      line.erase(at, 6);
    }
    ops.push_back(line.substr(0, line.find_last_not_of(' ') + 1));
  }
  return ops;
}

// EXPLAIN prints the plan EXPLAIN ANALYZE runs. R's 100 rows under a filter
// are estimated below S's 50, so R leads the join even though it is larger
// — whether the filter keeps one row or all of them.
TEST(ServiceObservabilityTest, ExplainShowsTheExecutedPlan) {
  QueryService service;
  ExecuteOrDie(service, "CREATE TABLE R(A, B)");
  ExecuteOrDie(service, "CREATE TABLE S(C, D)");
  std::string r_rows;
  for (int i = 0; i < 100; ++i) {
    r_rows += (i > 0 ? ", (" : "(") + std::to_string(i) + ", " +
              std::to_string(i % 50) + ")";
  }
  ExecuteOrDie(service, "INSERT INTO R VALUES " + r_rows);
  std::string s_rows;
  for (int i = 0; i < 50; ++i) {
    s_rows += (i > 0 ? ", (" : "(") + std::to_string(i) + ", " +
              std::to_string(i) + ")";
  }
  ExecuteOrDie(service, "INSERT INTO S VALUES " + s_rows);
  for (const char* filter : {"A_1 = 7", "A_1 >= 0"}) {
    std::string q = std::string("SELECT A_1, SUM(D_2) FROM R, S WHERE ") +
                    "B_1 = C_2 AND " + filter + " GROUPBY A_1";
    std::vector<std::string> explained =
        PlanOperators(ExecuteOrDie(service, "EXPLAIN " + q).message);
    std::vector<std::string> analyzed =
        PlanOperators(ExecuteOrDie(service, "EXPLAIN ANALYZE " + q).message);
    ASSERT_EQ(explained.size(), 4u) << q;
    EXPECT_EQ(explained[0],
              std::string("Scan R [100 rows] filter(") + filter + ")");
    EXPECT_EQ(explained, analyzed) << q;
  }
}

TEST(ServiceObservabilityTest, TraceDumpEmitsChromeTraceJson) {
  std::unique_ptr<QueryService> service = MakeTelephonyService();
  ExecuteOrDie(*service, "TRACE ON");
  ASSERT_TRUE(Tracer::Global().enabled());
  Tracer::Global().Clear();
  ExecuteOrDie(*service, TelephonyQuery(1995, 1e9));
  StatementResult dump = ExecuteOrDie(*service, "TRACE DUMP");
  ExecuteOrDie(*service, "TRACE OFF");
  EXPECT_FALSE(Tracer::Global().enabled());

  const std::string& json = dump.message;
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // The statement lifecycle is covered end to end.
  for (const char* span : {"\"name\":\"statement\"", "\"name\":\"parse\"",
                           "\"name\":\"bind\"", "\"name\":\"optimize\"",
                           "\"name\":\"rewrite.attempt\"", "\"name\":\"cost\"",
                           "\"name\":\"plan_cache.lookup\"",
                           "\"name\":\"execute\""}) {
    EXPECT_NE(json.find(span), std::string::npos) << "missing span " << span;
  }
  ExecuteOrDie(*service, "TRACE CLEAR");
  EXPECT_TRUE(Tracer::Global().Snapshot().empty());
  EXPECT_FALSE(service->Execute("TRACE SIDEWAYS").ok());
}

TEST(ServiceObservabilityTest, StatsReportHitRateCapacityAndMax) {
  ServiceOptions options;
  options.plan_cache_capacity = 32;
  QueryService service(options);
  EXPECT_OK(service.Execute("CREATE TABLE R(A, B)").status());
  EXPECT_OK(service.Execute("INSERT INTO R VALUES (1, 2)").status());
  std::string q = "SELECT A_1 FROM R WHERE B_1 = 2";
  ExecuteOrDie(service, q);
  ExecuteOrDie(service, q);
  ExecuteOrDie(service, q);

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.plan_cache_hits, 2u);
  EXPECT_EQ(stats.plan_cache_misses, 1u);
  EXPECT_NEAR(stats.plan_cache_hit_rate, 2.0 / 3.0, 1e-9);
  EXPECT_EQ(stats.plan_cache_capacity, 32u);
  EXPECT_GE(stats.exec_max_micros, 0u);

  std::string text = ExecuteOrDie(service, "STATS").message;
  EXPECT_NE(text.find("% hit rate"), std::string::npos) << text;
  EXPECT_NE(text.find("1/32 entries"), std::string::npos) << text;
  EXPECT_NE(text.find("max="), std::string::npos) << text;
}

TEST(ServiceObservabilityTest, StatsPromExposesPrometheusText) {
  QueryService service;
  EXPECT_OK(service.Execute("CREATE TABLE R(A)").status());
  EXPECT_OK(service.Execute("INSERT INTO R VALUES (1)").status());
  ExecuteOrDie(service, "SELECT A_1 FROM R");

  std::string text = ExecuteOrDie(service, "STATS PROM").message;
  EXPECT_EQ(text, service.StatsPromText());
  EXPECT_NE(text.find("# TYPE aqv_service_statements counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("aqv_service_queries_served 1\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE aqv_service_plan_cache_size gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("aqv_service_plan_cache_capacity 256\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE aqv_service_exec_latency histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("aqv_service_exec_latency_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("aqv_service_exec_latency_count 1\n"),
            std::string::npos);
  // Every family carries HELP, and the trace-drop counter is exported.
  EXPECT_NE(text.find("# HELP aqv_service_statements "), std::string::npos);
  EXPECT_NE(text.find("aqv_trace_dropped_spans 0\n"), std::string::npos);
}

TEST(ServiceObservabilityTest, SlowQueryLogCapturesBreakdown) {
  ServiceOptions options;
  options.slow_query_micros = 1;  // everything is slow
  options.slow_query_log_capacity = 4;
  QueryService service(options);
  EXPECT_OK(service.Execute("CREATE TABLE R(A, B)").status());
  EXPECT_OK(service.Execute("INSERT INTO R VALUES (1, 2), (3, 4)").status());

  for (int i = 0; i < 6; ++i) {
    ExecuteOrDie(service,
                 "SELECT A_1 FROM R WHERE B_1 = " + std::to_string(i));
  }
  std::vector<SlowQueryRecord> log = service.SlowQueries();
  ASSERT_EQ(log.size(), 4u);  // bounded, oldest dropped
  EXPECT_NE(log.back().statement.find("B_1 = 5"), std::string::npos);
  // 6 slow SELECTs plus the slow INSERT (writes log too, fingerprint 0).
  EXPECT_EQ(service.Stats().slow_queries, 7u);
  for (const SlowQueryRecord& r : log) {
    EXPECT_NE(r.fingerprint, 0u);
    EXPECT_GE(r.total_micros, 1u);
    EXPECT_GE(r.total_micros,
              r.exec_micros);  // breakdown is within the total
    EXPECT_GT(r.epoch, 0u);    // records the epoch the statement saw
  }
  // Repeats of one fingerprint group: same statement twice -> same fp.
  ExecuteOrDie(service, "SELECT A_1 FROM R WHERE B_1 = 99");
  ExecuteOrDie(service, "SELECT A_1 FROM R WHERE 99 = B_1");  // mirrored
  log = service.SlowQueries();
  ASSERT_GE(log.size(), 2u);
  EXPECT_EQ(log[log.size() - 1].fingerprint, log[log.size() - 2].fingerprint);
  EXPECT_TRUE(log.back().cache_hit);  // canonical key matched the mirror

  std::string text = ExecuteOrDie(service, "SLOWLOG").message;
  EXPECT_NE(text.find("fp="), std::string::npos) << text;
  EXPECT_NE(text.find("exec="), std::string::npos);
  EXPECT_NE(text.find("B_1 = 99"), std::string::npos);

  service.ResetStats();
  EXPECT_TRUE(service.SlowQueries().empty());
  EXPECT_NE(ExecuteOrDie(service, "SLOWLOG").message.find("empty"),
            std::string::npos);
}

TEST(ServiceObservabilityTest, NoSlowLoggingWhenDisabled) {
  QueryService service;  // slow_query_micros = 0
  EXPECT_OK(service.Execute("CREATE TABLE R(A)").status());
  EXPECT_OK(service.Execute("INSERT INTO R VALUES (1)").status());
  ExecuteOrDie(service, "SELECT A_1 FROM R");
  EXPECT_TRUE(service.SlowQueries().empty());
  EXPECT_EQ(service.Stats().slow_queries, 0u);
}

// Pure reader concurrency over one cached plan: every hit must serve rows
// identical to the cold plan's (exercises concurrent LRU promotion).
TEST(ServiceConcurrencyTest, ParallelCacheHitsServeIdenticalRows) {
  constexpr int kThreads = 8;
  constexpr int kRepeats = 16;
  std::unique_ptr<QueryService> service = MakeTelephonyService();
  std::string q = TelephonyQuery(1995, 1e9);
  StatementResult cold = ExecuteOrDie(*service, q);
  ASSERT_TRUE(cold.table.has_value());

  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kRepeats; ++i) {
        Result<StatementResult> r = service->Execute(q);
        if (!r.ok() || !r->table.has_value() ||
            !MultisetEqual(*cold.table, *r->table)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(service->Stats().plan_cache_hits,
            static_cast<uint64_t>(kThreads * kRepeats));
}

// A service with Sales(Shop, Amount) and a maintainable materialized
// summary over it, for the write-path tests.
std::unique_ptr<QueryService> MakeSalesService() {
  auto service = std::make_unique<QueryService>();
  EXPECT_OK(service->Execute("CREATE TABLE Sales(Shop, Amount)").status());
  EXPECT_OK(service
                ->Execute("INSERT INTO Sales VALUES (1, 10), (1, 20), (2, 30)")
                .status());
  EXPECT_OK(service
                ->Execute("CREATE MATERIALIZED VIEW Totals AS "
                          "SELECT Shop_1, SUM(Amount_1) AS T, "
                          "COUNT(Amount_1) AS N FROM Sales GROUPBY Shop_1")
                .status());
  return service;
}

int64_t SumForShop(const Table& t, int64_t shop) {
  for (const Row& row : t.rows()) {
    if (row[0] == Value::Int64(shop)) return row[1].int64();
  }
  return -1;
}

TEST(ServiceWritePathTest, InsertMaintainsDependentViewsWithoutRefresh) {
  std::unique_ptr<QueryService> service = MakeSalesService();
  const std::string q =
      "SELECT Shop_1, SUM(Amount_1) AS T FROM Sales GROUPBY Shop_1";
  StatementResult cold = ExecuteOrDie(*service, q);
  EXPECT_TRUE(cold.used_materialized_view);
  ASSERT_TRUE(cold.table.has_value());
  EXPECT_EQ(SumForShop(*cold.table, 1), 30);

  // The regression this PR fixes: INSERT with NO explicit REFRESH. The
  // rewritten query must see the new rows through the maintained view.
  EXPECT_OK(
      service->Execute("INSERT INTO Sales VALUES (1, 5), (3, 7)").status());
  StatementResult warm = ExecuteOrDie(*service, q);
  EXPECT_TRUE(warm.used_materialized_view);
  ASSERT_TRUE(warm.table.has_value());
  EXPECT_EQ(SumForShop(*warm.table, 1), 35);
  EXPECT_EQ(SumForShop(*warm.table, 3), 7);
  EXPECT_GE(service->Stats().views_maintained, 1u);
  EXPECT_EQ(service->Stats().views_recomputed, 0u);
  EXPECT_EQ(service->Stats().rows_inserted, 5u);  // 3 seed rows + 2
}

TEST(ServiceWritePathTest, UnmaintainableViewFallsBackToRecompute) {
  std::unique_ptr<QueryService> service = MakeSalesService();
  // AVG views are outside the maintainer's dialect: the write path must
  // recompute them instead of leaving them stale.
  ASSERT_OK(service
                ->Execute("CREATE MATERIALIZED VIEW Averages AS "
                          "SELECT Shop_1, AVG(Amount_1) AS A FROM Sales "
                          "GROUPBY Shop_1")
                .status());
  EXPECT_OK(service->Execute("INSERT INTO Sales VALUES (2, 50)").status());
  EXPECT_GE(service->Stats().views_recomputed, 1u);
  // The stored contents are fresh: read the view's name directly.
  ASSERT_OK_AND_ASSIGN(
      Table averages,
      service->Select("SELECT Shop_1, AVG(Amount_1) AS A FROM Sales "
                      "GROUPBY Shop_1"));
  for (const Row& row : averages.rows()) {
    if (row[0] == Value::Int64(2)) {
      EXPECT_EQ(row[1], Value::Double(40.0));
    }
  }
}

TEST(ServiceWritePathTest, WritePublishesTablesAndViewsAtOneEpoch) {
  std::unique_ptr<QueryService> service = MakeSalesService();
  EXPECT_OK(service->Execute("INSERT INTO Sales VALUES (2, 1)").status());
  ServiceSnapshotPtr snap = service->PinSnapshot();
  // The batched COW publication gives base table and dependent view the
  // SAME version: a snapshot can never hold Sales newer than Totals.
  EXPECT_EQ(snap->db.VersionOf("Sales"), snap->db.VersionOf("Totals"));
  EXPECT_OK(service->Execute("INSERT INTO Sales VALUES (2, 2)").status());
  EXPECT_EQ(snap->db.VersionOf("Sales"), snap->db.VersionOf("Totals"));
}

TEST(ServiceWritePathTest, BeginWriteBuffersAndCommitsAtomically) {
  std::unique_ptr<QueryService> service = MakeSalesService();
  ASSERT_OK_AND_ASSIGN(StatementResult opened,
                       service->Execute("BEGIN WRITE"));
  EXPECT_NE(opened.message.find("write batch opened"), std::string::npos);

  ASSERT_OK_AND_ASSIGN(StatementResult buffered,
                       service->Execute("INSERT INTO Sales VALUES (1, 100)"));
  EXPECT_NE(buffered.message.find("buffered"), std::string::npos);
  EXPECT_OK(
      service->Execute("INSERT INTO Sales VALUES (4, 1), (4, 2)").status());

  // Reads inside the batch see committed state only.
  ASSERT_OK_AND_ASSIGN(
      Table mid, service->Select("SELECT Shop_1, SUM(Amount_1) AS T "
                                 "FROM Sales GROUPBY Shop_1"));
  EXPECT_EQ(SumForShop(mid, 1), 30);
  EXPECT_EQ(SumForShop(mid, 4), -1);
  // Non-INSERT writes are rejected inside the batch.
  EXPECT_FALSE(service->Execute("REFRESH Totals").ok());
  EXPECT_FALSE(service->Execute("CREATE TABLE Other(X)").ok());
  EXPECT_FALSE(service->Execute("BEGIN SNAPSHOT").ok());

  ASSERT_OK_AND_ASSIGN(StatementResult committed, service->Execute("COMMIT"));
  EXPECT_NE(committed.message.find("3 row(s) inserted / 0 deleted"),
            std::string::npos);
  ASSERT_OK_AND_ASSIGN(
      Table after, service->Select("SELECT Shop_1, SUM(Amount_1) AS T "
                                   "FROM Sales GROUPBY Shop_1"));
  EXPECT_EQ(SumForShop(after, 1), 130);
  EXPECT_EQ(SumForShop(after, 4), 3);
  // The batch is gone: a second COMMIT has nothing to commit.
  EXPECT_FALSE(service->Execute("COMMIT").ok());
}

TEST(ServiceWritePathTest, RollbackDiscardsAndFailedCommitPublishesNothing) {
  std::unique_ptr<QueryService> service = MakeSalesService();
  ASSERT_OK(service->Execute("BEGIN WRITE").status());
  ASSERT_OK(service->Execute("INSERT INTO Sales VALUES (9, 9)").status());
  ASSERT_OK_AND_ASSIGN(StatementResult dropped, service->Execute("ROLLBACK"));
  EXPECT_NE(dropped.message.find("discarded"), std::string::npos);
  ASSERT_OK_AND_ASSIGN(
      Table t, service->Select("SELECT Shop_1, SUM(Amount_1) AS T "
                               "FROM Sales GROUPBY Shop_1"));
  EXPECT_EQ(SumForShop(t, 9), -1);
  EXPECT_FALSE(service->Execute("ROLLBACK").ok());  // nothing open

  // An INSERT naming an unknown table is refused when it is buffered. A
  // batch that fails at COMMIT (here: the same single row deleted twice)
  // lands nothing and is discarded rather than wedged open.
  ASSERT_OK(service->Execute("BEGIN WRITE").status());
  ASSERT_OK(service->Execute("INSERT INTO Sales VALUES (9, 9)").status());
  EXPECT_EQ(service->Execute("INSERT INTO Nope VALUES (1)").status().code(),
            StatusCode::kNotFound);
  ASSERT_OK(service->Execute("DELETE FROM Sales WHERE Amount = 10").status());
  ASSERT_OK(service->Execute("DELETE FROM Sales WHERE Amount = 10").status());
  EXPECT_EQ(service->Execute("COMMIT").status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_OK_AND_ASSIGN(
      Table t2, service->Select("SELECT Shop_1, SUM(Amount_1) AS T "
                                "FROM Sales GROUPBY Shop_1"));
  EXPECT_EQ(SumForShop(t2, 9), -1);
  EXPECT_FALSE(service->Execute("COMMIT").ok());
}

TEST(ServiceWritePathTest, InsertHardeningRejectsDegenerates) {
  std::unique_ptr<QueryService> service = MakeSalesService();
  // Zero tuples and trailing garbage used to be silently accepted.
  EXPECT_FALSE(service->Execute("INSERT INTO Sales VALUES").ok());
  EXPECT_FALSE(service->Execute("INSERT INTO Sales VALUES (5, 5) junk").ok());
  // Arity is validated against the table.
  EXPECT_FALSE(service->Execute("INSERT INTO Sales VALUES (1)").ok());
  // Views and unknown tables are not insert targets.
  EXPECT_FALSE(service->Execute("INSERT INTO Totals VALUES (1, 2, 3)").ok());
  EXPECT_EQ(service->Execute("INSERT INTO Nope VALUES (1)").status().code(),
            StatusCode::kNotFound);
  // Negative literals used to be rejected outright; now they round-trip.
  ASSERT_OK(service->Execute("INSERT INTO Sales VALUES (5, -7)").status());
  ASSERT_OK_AND_ASSIGN(
      Table t, service->Select("SELECT Shop_1, SUM(Amount_1) AS T "
                               "FROM Sales WHERE Shop_1 > -9 GROUPBY Shop_1"));
  EXPECT_EQ(SumForShop(t, 5), -7);
  // Nothing from the failed statements landed.
  ASSERT_OK_AND_ASSIGN(Table sales, service->Select("SELECT Shop_1, "
                                                    "COUNT(Amount_1) AS N "
                                                    "FROM Sales GROUPBY "
                                                    "Shop_1"));
  int64_t total = 0;
  for (const Row& row : sales.rows()) total += row[1].int64();
  EXPECT_EQ(total, 4);  // 3 seed rows + the one negative insert
}


// A CREATE MATERIALIZED VIEW whose first materialization fails publishes
// nothing: no virtual view is left behind for a retry to collide with.
TEST(ServiceDdlTest, RefusedMaterializedViewLeavesNoView) {
  QueryService service;
  ASSERT_OK(service.Execute("CREATE TABLE T(A, B)").status());
  ASSERT_OK(service
                .Execute("INSERT INTO T VALUES (1, 4611686018427387904), "
                         "(1, 4611686018427387904)")
                .status());
  const std::string create =
      "CREATE MATERIALIZED VIEW V AS SELECT A_1, SUM(B_1) AS S FROM T "
      "GROUPBY A_1";
  auto listed = [&]() -> std::string {
    Result<StatementResult> views = service.Execute("VIEWS");
    EXPECT_TRUE(views.ok()) << views.status().ToString();
    return views.ok() ? views->message : "";
  };
  Result<StatementResult> overflow = service.Execute(create);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(listed(), "");

  // An injected recompute fault leaves no view either.
  ASSERT_OK(service.Execute("DELETE FROM T WHERE A = 1").status());
  ASSERT_OK(FailpointRegistry::Global().Set("service.refresh", "error"));
  Result<StatementResult> injected = service.Execute(create);
  ASSERT_OK(FailpointRegistry::Global().Set("service.refresh", "off"));
  ASSERT_FALSE(injected.ok());
  EXPECT_EQ(listed(), "");

  ASSERT_OK(service.Execute(create).status());
  EXPECT_NE(listed().find("V [materialized]"), std::string::npos);
}

// REFRESH of a view recomputes every stored view over it at the same
// epoch, so a view over a drifted view follows the repair.
TEST(ServiceWritePathTest, RefreshRecomputesStoredViewsOverTheView) {
  QueryService service;
  ASSERT_OK(service.Execute("CREATE TABLE D(G, X)").status());
  std::string rows = "INSERT INTO D VALUES (5, 0.1)";
  for (int i = 0; i < 100; ++i) rows += ", (6, 1.0)";
  ASSERT_OK(service.Execute(rows).status());
  ASSERT_OK(service
                .Execute("CREATE MATERIALIZED VIEW DV AS SELECT G_1, "
                         "SUM(X_1) AS S, COUNT(X_1) AS C FROM D GROUPBY G_1")
                .status());
  ASSERT_OK(service
                .Execute("CREATE MATERIALIZED VIEW W AS SELECT G_2, S_2 FROM "
                         "DV(G_2, S_2, C_2) WHERE G_2 = 5")
                .status());
  // Folding +1e20 then -1e20 into 0.1 in double arithmetic drifts DV's sum.
  ASSERT_OK(service.Execute("INSERT INTO D VALUES (5, 1e20)").status());
  ASSERT_OK(service.Execute("DELETE FROM D WHERE X = 1e20").status());
  auto sum_of_5 = [](const ServiceSnapshot& state, const std::string& view) {
    TablePtr t = state.db.GetShared(view);
    for (const Row& row : t->rows()) {
      if (row[0].AsDouble() == 5) return row[1].AsDouble();
    }
    return -1.0;
  };
  ServiceSnapshotPtr drifted = service.PinSnapshot();
  ASSERT_NE(sum_of_5(*drifted, "DV"), 0.1);

  ASSERT_OK(service.Execute("REFRESH DV").status());
  ServiceSnapshotPtr refreshed = service.PinSnapshot();
  EXPECT_EQ(sum_of_5(*refreshed, "DV"), 0.1);
  EXPECT_EQ(sum_of_5(*refreshed, "W"), 0.1);
  EXPECT_EQ(refreshed->db.VersionOf("W"), refreshed->db.VersionOf("DV"));
}

}  // namespace
}  // namespace aqv
