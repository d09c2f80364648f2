// Fault injection and resource governance (PR 4): the failpoint registry's
// spec grammar and deterministic probabilistic streams; every wired site
// (parse, rewrite, optimizer, plan cache, evaluator, COW copy, REFRESH)
// failing cleanly through Status; graceful degradation onto the unrewritten
// plan; view quarantine and its REFRESH reset; admission control; statement
// deadlines, row budgets and the statement-length cap.
//
// The registry is process-global, so every test that arms a failpoint
// disarms it again (FailpointScope or the fixture's ClearAll) — leaked
// arming would poison unrelated tests in this binary.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/failpoint.h"
#include "exec/csv.h"
#include "service/query_service.h"
#include "tests/test_util.h"

namespace aqv {
namespace {

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Global().ClearAll(); }
  void TearDown() override { FailpointRegistry::Global().ClearAll(); }
};

TEST_F(FailpointTest, SpecGrammar) {
  FailpointRegistry& reg = FailpointRegistry::Global();
  EXPECT_OK(reg.Set("a", "error"));
  EXPECT_OK(reg.Set("a", "error(50)"));
  EXPECT_OK(reg.Set("a", "error(100,3)"));
  EXPECT_OK(reg.Set("a", "delay(10)"));
  EXPECT_OK(reg.Set("a", "delay(10,50)"));
  EXPECT_OK(reg.Set("a", "delay(10,50,2)"));
  EXPECT_OK(reg.Set("a", "off"));

  EXPECT_FALSE(reg.Set("", "error").ok());          // empty name
  EXPECT_FALSE(reg.Set("a", "").ok());              // empty spec
  EXPECT_FALSE(reg.Set("a", "error(101)").ok());    // percent > 100
  EXPECT_FALSE(reg.Set("a", "error(1,2,3)").ok());  // too many args
  EXPECT_FALSE(reg.Set("a", "error()").ok());       // empty parens
  EXPECT_FALSE(reg.Set("a", "error(1,)").ok());     // trailing comma
  EXPECT_FALSE(reg.Set("a", "error(x)").ok());      // non-numeric
  EXPECT_FALSE(reg.Set("a", "error(1").ok());       // unbalanced
  EXPECT_FALSE(reg.Set("a", "delay").ok());         // delay needs micros
  EXPECT_FALSE(reg.Set("a", "off(1)").ok());        // off takes no args
  EXPECT_FALSE(reg.Set("a", "explode").ok());       // unknown action
  // A rejected spec leaves the registry unchanged.
  EXPECT_FALSE(reg.any_armed());
}

TEST_F(FailpointTest, AnyArmedIsTheFastPathGate) {
  FailpointRegistry& reg = FailpointRegistry::Global();
  EXPECT_FALSE(reg.any_armed());
  ASSERT_OK(reg.Set("gate", "error"));
  EXPECT_TRUE(reg.any_armed());
  ASSERT_OK(reg.Set("gate", "off"));
  EXPECT_FALSE(reg.any_armed());
  ASSERT_OK(reg.Set("gate", "error"));
  reg.ClearAll();
  EXPECT_FALSE(reg.any_armed());
  // Disarming a never-armed name must not unbalance the armed count.
  ASSERT_OK(reg.Set("never_armed", "off"));
  EXPECT_FALSE(reg.any_armed());
}

TEST_F(FailpointTest, ErrorInjectsUnavailableOnlyAtItsSite) {
  FailpointRegistry& reg = FailpointRegistry::Global();
  ASSERT_OK(reg.Set("site.a", "error"));
  Status injected = reg.Evaluate("site.a");
  EXPECT_EQ(injected.code(), StatusCode::kUnavailable);
  EXPECT_NE(injected.ToString().find("injected failpoint 'site.a'"),
            std::string::npos);
  // Other sites are untouched while one is armed.
  EXPECT_OK(reg.Evaluate("site.b"));
}

TEST_F(FailpointTest, MaxFiresStopsInjection) {
  FailpointRegistry& reg = FailpointRegistry::Global();
  ASSERT_OK(reg.Set("bounded", "error(100,2)"));
  int failures = 0;
  for (int i = 0; i < 5; ++i) failures += !reg.Evaluate("bounded").ok();
  EXPECT_EQ(failures, 2);

  std::vector<FailpointRegistry::Info> armed = reg.List();
  ASSERT_EQ(armed.size(), 1u);
  EXPECT_EQ(armed[0].name, "bounded");
  EXPECT_EQ(armed[0].spec, "error(100,2)");
  EXPECT_EQ(armed[0].evaluations, 5u);
  EXPECT_EQ(armed[0].fires, 2u);
}

TEST_F(FailpointTest, ProbabilisticStreamReplaysFromSeed) {
  FailpointRegistry& reg = FailpointRegistry::Global();
  ASSERT_OK(reg.Set("p", "error(50)"));
  auto draw_pattern = [&] {
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(!reg.Evaluate("p").ok());
    return fired;
  };
  reg.Reseed(777);
  std::vector<bool> first = draw_pattern();
  reg.Reseed(777);
  EXPECT_EQ(draw_pattern(), first);
  // A 50% stream over 64 draws fires sometimes and skips sometimes.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 64);
  // A different seed yields a different schedule.
  reg.Reseed(778);
  EXPECT_NE(draw_pattern(), first);
}

TEST_F(FailpointTest, ReseedIsolatesSitesFromEachOther) {
  // Arming a second failpoint must not perturb the first one's stream:
  // each site draws from seed ^ hash(name).
  FailpointRegistry& reg = FailpointRegistry::Global();
  ASSERT_OK(reg.Set("p", "error(50)"));
  reg.Reseed(99);
  std::vector<bool> alone;
  for (int i = 0; i < 32; ++i) alone.push_back(!reg.Evaluate("p").ok());

  ASSERT_OK(reg.Set("q", "error(50)"));
  reg.Reseed(99);
  std::vector<bool> with_q;
  for (int i = 0; i < 32; ++i) {
    with_q.push_back(!reg.Evaluate("p").ok());
    reg.Evaluate("q");
  }
  EXPECT_EQ(with_q, alone);
}

Status GuardedBySite() {
  AQV_FAILPOINT("macro.site");
  return Status::OK();
}

TEST_F(FailpointTest, MacroReturnsInjectedStatusAndScopeDisarms) {
  EXPECT_OK(GuardedBySite());
  {
    FailpointScope scope("macro.site", "error");
    ASSERT_TRUE(scope.armed());
    EXPECT_EQ(GuardedBySite().code(), StatusCode::kUnavailable);
  }
  EXPECT_OK(GuardedBySite());
  // A malformed spec leaves the scope inert rather than half-armed.
  FailpointScope bad("macro.site", "bogus");
  EXPECT_FALSE(bad.armed());
  EXPECT_OK(GuardedBySite());
}

TEST_F(FailpointTest, EnvironmentArmsARegistry) {
  // The env path is tested on a locally constructed registry: the global
  // one read AQV_FAILPOINTS long ago, at first access.
  ASSERT_EQ(setenv("AQV_FAILPOINTS",
                   "parse=error(25);bogus;also=bad(spec)", 1),
            0);
  FailpointRegistry local;
  unsetenv("AQV_FAILPOINTS");
  std::vector<FailpointRegistry::Info> armed = local.List();
  // Malformed entries are skipped, well-formed ones are armed.
  ASSERT_EQ(armed.size(), 1u);
  EXPECT_EQ(armed[0].name, "parse");
  EXPECT_EQ(armed[0].spec, "error(25)");
}

// ---------------------------------------------------------------------------
// Service-level robustness: every site fails cleanly; degradation, quarantine,
// admission, deadlines, budgets, the statement cap.

/// A small service with a materialized aggregate view the rewriter will
/// substitute into the matching GROUPBY query.
std::unique_ptr<QueryService> MakeSalesService(
    ServiceOptions options = ServiceOptions{}) {
  auto service = std::make_unique<QueryService>(options);
  EXPECT_OK(service->Execute("CREATE TABLE Sales(Shop, Amount)").status());
  EXPECT_OK(service
                ->Execute("INSERT INTO Sales VALUES (1, 10), (1, 11), (2, 20), "
                          "(2, 21), (3, 30), (3, 31)")
                .status());
  EXPECT_OK(service
                ->Execute("CREATE MATERIALIZED VIEW Totals AS SELECT Shop_1, "
                          "SUM(Amount_1) AS T FROM Sales GROUPBY Shop_1")
                .status());
  return service;
}

std::string SalesQuery(int threshold = 0) {
  return "SELECT Shop_1, SUM(Amount_1) AS T FROM Sales WHERE Shop_1 > " +
         std::to_string(threshold) + " GROUPBY Shop_1";
}

TEST_F(FailpointTest, FailpointStatementArmsListsAndClears) {
  std::unique_ptr<QueryService> service = MakeSalesService();
  Result<StatementResult> armed = service->Execute("FAILPOINT parse error");
  ASSERT_OK(armed.status());
  EXPECT_NE(armed->message.find("failpoint parse = error"), std::string::npos);

  Result<Table> blocked = service->Select(SalesQuery());
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(blocked.status().ToString().find("injected failpoint 'parse'"),
            std::string::npos);

  Result<StatementResult> listed = service->Execute("FAILPOINT LIST");
  ASSERT_OK(listed.status());
  EXPECT_NE(listed->message.find("parse error (evaluated"), std::string::npos);

  ASSERT_OK(service->Execute("FAILPOINT CLEAR").status());
  EXPECT_OK(service->Select(SalesQuery()).status());
  Result<StatementResult> empty = service->Execute("FAILPOINT LIST");
  ASSERT_OK(empty.status());
  EXPECT_NE(empty->message.find("no failpoints armed"), std::string::npos);

  EXPECT_FALSE(service->Execute("FAILPOINT parse explode").ok());
  EXPECT_FALSE(service->Execute("FAILPOINT lonely-name").ok());
}

TEST_F(FailpointTest, InjectedSitesFailStatementsCleanly) {
  // Each wired site, armed alone, turns its statement into a clean
  // kUnavailable (degradation off isolates the site under test).
  ServiceOptions options;
  options.degrade_on_failure = false;
  // A LOAD that replaces Sales runs the same write path as INSERT.
  Table replacement({"Shop", "Amount"});
  replacement.AddRowOrDie({Value::Int64(4), Value::Int64(40)});
  std::string csv = ::testing::TempDir() + "/aqv_failpoint_load.csv";
  ASSERT_OK(WriteCsvFile(replacement, csv));
  struct SiteCase {
    const char* site;
    std::string stmt;
  };
  const SiteCase cases[] = {
      {"parse", SalesQuery()},
      {"optimizer.optimize", SalesQuery()},
      {"exec.operator", SalesQuery()},
      {"table.cow_copy", "INSERT INTO Sales VALUES (4, 40)"},
      {"table.cow_copy", "LOAD Sales FROM '" + csv + "'"},
      {"maintain.apply", "INSERT INTO Sales VALUES (4, 40)"},
      {"service.refresh", "REFRESH Totals"},
  };
  for (const SiteCase& c : cases) {
    std::unique_ptr<QueryService> service = MakeSalesService(options);
    FailpointScope scope(c.site, "error");
    ASSERT_TRUE(scope.armed());
    Result<StatementResult> r = service->Execute(c.stmt);
    ASSERT_FALSE(r.ok()) << c.site;
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable) << c.site;
    EXPECT_NE(r.status().ToString().find(c.site), std::string::npos) << c.site;
  }
  std::remove(csv.c_str());
}

TEST_F(FailpointTest, PlanCacheFaultsDegradeToMissAndSkip) {
  std::unique_ptr<QueryService> service = MakeSalesService();
  std::string q = SalesQuery();
  ASSERT_OK_AND_ASSIGN(Table expected, service->Select(q));
  {
    // A faulted lookup is a miss: the statement re-optimizes and still
    // answers correctly.
    FailpointScope scope("plan_cache.lookup", "error");
    Result<StatementResult> r = service->Execute(q);
    ASSERT_OK(r.status());
    EXPECT_FALSE(r->cache_hit);
    EXPECT_TRUE(MultisetEqual(*r->table, expected));
  }
  {
    // A faulted insert skips caching: the next statement misses again.
    std::string q2 = SalesQuery(1);
    {
      FailpointScope scope("plan_cache.insert", "error");
      ASSERT_OK(service->Execute(q2).status());
    }
    Result<StatementResult> after = service->Execute(q2);
    ASSERT_OK(after.status());
    EXPECT_FALSE(after->cache_hit);  // the armed run cached nothing
    Result<StatementResult> hit = service->Execute(q2);
    ASSERT_OK(hit.status());
    EXPECT_TRUE(hit->cache_hit);
  }
}

TEST_F(FailpointTest, ExecutionFailureOfRewrittenPlanDegrades) {
  std::unique_ptr<QueryService> service = MakeSalesService();
  // The exact view query is the statement the optimizer rewrites onto
  // Totals; fail its first execution attempt only (max_fires=1), so the
  // unrewritten retry goes through.
  std::string q = "SELECT Shop_1, SUM(Amount_1) AS T FROM Sales GROUPBY Shop_1";
  // max_fires=1 exhausts itself on the first attempt, so the scope can stay
  // armed through the verification selects below.
  FailpointScope scope("exec.operator", "error(100,1)");
  Result<StatementResult> r = service->Execute(q);
  ASSERT_TRUE(r.ok()) << "degraded retry should have succeeded: "
                      << r.status().ToString();
  EXPECT_TRUE(r->degraded);
  EXPECT_FALSE(r->used_materialized_view);
  EXPECT_NE(r->message.find("degraded: plan failed"), std::string::npos);
  ASSERT_TRUE(r->table.has_value());

  ASSERT_OK_AND_ASSIGN(Table direct, service->Select(q));
  EXPECT_TRUE(MultisetEqual(*r->table, direct))
      << DescribeMultisetDifference(*r->table, direct);
  EXPECT_GE(service->Stats().degraded_fallbacks, 1u);
}

TEST_F(FailpointTest, OptimizerFailureDegradesToUnrewrittenPlan) {
  std::unique_ptr<QueryService> service = MakeSalesService();
  std::string q = SalesQuery(1);
  FailpointScope scope("optimizer.optimize", "error(100,1)");
  Result<StatementResult> r = service->Execute(q);
  ASSERT_OK(r.status());
  EXPECT_TRUE(r->degraded);
  EXPECT_FALSE(r->used_materialized_view);
  ASSERT_TRUE(r->table.has_value());
  // The degraded fallback plan was not cached: the next run of q
  // re-optimizes (miss) rather than serving the pinned unrewritten plan —
  // and its rows agree with the degraded answer.
  Result<StatementResult> after = service->Execute(q);
  ASSERT_OK(after.status());
  EXPECT_FALSE(after->cache_hit);
  EXPECT_TRUE(MultisetEqual(*r->table, *after->table))
      << DescribeMultisetDifference(*r->table, *after->table);
  EXPECT_GE(service->Stats().degraded_fallbacks, 1u);
}

TEST_F(FailpointTest, RepeatedRewriteFailuresQuarantineTheView) {
  std::unique_ptr<QueryService> service = MakeSalesService();
  {
    FailpointScope scope("rewrite.enumerate", "error");
    // Three distinct statements (distinct cache keys), each charging
    // Totals with one rewrite-time failure.
    for (int i = 0; i < 3; ++i) {
      Result<StatementResult> r = service->Execute(SalesQuery(i));
      ASSERT_TRUE(r.ok()) << "per-view failure must not fail the statement: "
                          << r.status().ToString();
      EXPECT_FALSE(r->used_materialized_view);
    }
  }
  ServiceStats stats = service->Stats();
  ASSERT_EQ(stats.quarantined_views.size(), 1u);
  EXPECT_EQ(stats.quarantined_views[0], "Totals");
  EXPECT_NE(stats.ToString().find("quarantined views   Totals"),
            std::string::npos);

  // Quarantined: even with failpoints cleared, the exact view query — which
  // the optimizer would otherwise rewrite onto Totals — skips the view.
  std::string exact =
      "SELECT Shop_1, SUM(Amount_1) AS T FROM Sales GROUPBY Shop_1";
  Result<StatementResult> shunned = service->Execute(exact);
  ASSERT_OK(shunned.status());
  EXPECT_FALSE(shunned->used_materialized_view);

  // REFRESH rehabilitates the view (and, by recomputing its contents,
  // invalidates cached plans that depend on it).
  ASSERT_OK(service->Execute("REFRESH Totals").status());
  EXPECT_TRUE(service->Stats().quarantined_views.empty());
  ASSERT_OK(service->Execute("INSERT INTO Sales VALUES (4, 40)").status());
  Result<StatementResult> back = service->Execute(exact);
  ASSERT_OK(back.status());
  EXPECT_FALSE(back->cache_hit);
  EXPECT_TRUE(back->used_materialized_view);
}

TEST_F(FailpointTest, QuarantineCooldownAutoClears) {
  ServiceOptions options;
  options.quarantine_cooldown_statements = 4;
  std::unique_ptr<QueryService> service = MakeSalesService(options);
  {
    FailpointScope scope("rewrite.enumerate", "error");
    for (int i = 0; i < 3; ++i) {
      ASSERT_OK(service->Execute(SalesQuery(i)).status());
    }
  }
  ASSERT_EQ(service->Stats().quarantined_views.size(), 1u);

  // No REFRESH: after `quarantine_cooldown_statements` further statements
  // the view re-enters candidacy on its own.
  for (int i = 10; i < 16; ++i) {
    ASSERT_OK(service->Execute(SalesQuery(i)).status());
  }
  EXPECT_TRUE(service->Stats().quarantined_views.empty());
  Result<StatementResult> back = service->Execute(
      "SELECT Shop_1, SUM(Amount_1) AS T FROM Sales GROUPBY Shop_1");
  ASSERT_OK(back.status());
  EXPECT_TRUE(back->used_materialized_view);

  // Cooldown 0 keeps the PR-4 behavior: quarantine is permanent until
  // REFRESH.
  ServiceOptions permanent;
  permanent.quarantine_cooldown_statements = 0;
  std::unique_ptr<QueryService> strict = MakeSalesService(permanent);
  {
    FailpointScope scope("rewrite.enumerate", "error");
    for (int i = 0; i < 3; ++i) {
      ASSERT_OK(strict->Execute(SalesQuery(i)).status());
    }
  }
  for (int i = 10; i < 30; ++i) {
    ASSERT_OK(strict->Execute(SalesQuery(i)).status());
  }
  EXPECT_EQ(strict->Stats().quarantined_views.size(), 1u);
}

TEST_F(FailpointTest, AdmissionControlRejectsOverLimitStatements) {
  ServiceOptions options;
  options.max_concurrent_statements = 1;
  options.admission_wait_micros = 1000;
  std::unique_ptr<QueryService> service = MakeSalesService(options);

  // Park one statement inside execution with a delay failpoint, then watch
  // a second statement bounce while control statements still get through.
  FailpointScope scope("exec.operator", "delay(400000,100,1)");
  std::atomic<bool> entered{false};
  std::thread parked([&] {
    entered.store(true);
    EXPECT_OK(service->Execute(SalesQuery()).status());
  });
  while (!entered.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  Result<StatementResult> busy = service->Execute(SalesQuery(1));
  ASSERT_FALSE(busy.ok());
  EXPECT_EQ(busy.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(busy.status().ToString().find("SERVER_BUSY"), std::string::npos);

  // STATS and FAILPOINT bypass admission: a saturated server stays
  // inspectable and disarmable.
  EXPECT_OK(service->Execute("STATS").status());
  EXPECT_OK(service->Execute("FAILPOINT LIST").status());
  parked.join();

  ServiceStats stats = service->Stats();
  EXPECT_GE(stats.admission_rejects, 1u);
  // The rejected statement shows up in the per-code error counters.
  bool found = false;
  for (const auto& [code, count] : stats.errors_by_code) {
    if (code == "unavailable") found = count >= 1;
  }
  EXPECT_TRUE(found) << stats.ToString();
  // And the slot was released: the service accepts statements again.
  EXPECT_OK(service->Select(SalesQuery(2)).status());
}

// A COMMIT that applies a BEGIN WRITE batch is a write: it waits for a
// slot like one, and a refused COMMIT leaves the batch open and unapplied.
TEST_F(FailpointTest, BatchCommitIsAdmittedLikeAnyWrite) {
  ServiceOptions options;
  options.max_concurrent_statements = 1;
  options.admission_wait_micros = 1000;
  std::unique_ptr<QueryService> service = MakeSalesService(options);
  ASSERT_OK(service->Execute("CREATE TABLE R(A, B)").status());
  ASSERT_OK(service->Execute("BEGIN WRITE").status());
  ASSERT_OK(service->Execute("INSERT INTO R VALUES (5, 6)").status());

  FailpointScope scope("exec.operator", "delay(400000,100,1)");
  std::atomic<bool> entered{false};
  std::thread parked([&] {
    entered.store(true);
    EXPECT_OK(service->Execute(SalesQuery()).status());
  });
  while (!entered.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Result<StatementResult> busy = service->Execute("COMMIT");
  parked.join();
  ASSERT_FALSE(busy.ok()) << busy->message;
  EXPECT_EQ(busy.status().code(), StatusCode::kUnavailable);

  // Still open, still unapplied: reads on this thread see committed state.
  Result<Table> before = service->Select("SELECT A_1 FROM R");
  ASSERT_OK(before.status());
  EXPECT_EQ(before->num_rows(), 0u);
  Result<StatementResult> retry = service->Execute("COMMIT");
  ASSERT_OK(retry.status());
  EXPECT_NE(retry->message.find("1 row(s) inserted"), std::string::npos)
      << retry->message;
  Result<Table> after = service->Select("SELECT A_1 FROM R");
  ASSERT_OK(after.status());
  EXPECT_EQ(after->num_rows(), 1u);
}

TEST_F(FailpointTest, DeadlineAndRowBudgetReturnResourceErrors) {
  {
    ServiceOptions options;
    options.statement_deadline_micros = 1;  // expires during parse/optimize
    std::unique_ptr<QueryService> service = MakeSalesService(options);
    Result<StatementResult> r = service->Execute(SalesQuery());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
    // A tripped deadline is never retried on the degraded path.
    EXPECT_EQ(service->Stats().degraded_fallbacks, 0u);
  }
  {
    ServiceOptions options;
    options.statement_row_budget = 2;  // the Sales scan alone exceeds this
    std::unique_ptr<QueryService> service = MakeSalesService(options);
    Result<StatementResult> r = service->Execute(SalesQuery());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(r.status().ToString().find("row budget"), std::string::npos);
    // Roomy budgets pass: governance costs must not change answers.
    options.statement_row_budget = 1 << 20;
    std::unique_ptr<QueryService> roomy = MakeSalesService(options);
    EXPECT_OK(roomy->Select(SalesQuery()).status());
  }
}

TEST_F(FailpointTest, SnapshotReadsAreGovernedToo) {
  ServiceOptions options;
  options.statement_row_budget = 2;
  std::unique_ptr<QueryService> service = MakeSalesService(options);
  ServiceSnapshotPtr snap = service->PinSnapshot();
  Result<Table> r = service->Select(SalesQuery(), *snap);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(FailpointTest, StatementLengthCapRejectsBeforeParsing) {
  ServiceOptions options;
  // Roomy enough for the setup DDL, tight enough to trip below.
  options.max_statement_bytes = 128;
  std::unique_ptr<QueryService> service = MakeSalesService(options);
  std::string oversized = SalesQuery() + std::string(256, ' ');
  Result<StatementResult> r = service->Execute(oversized);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().ToString().find("bytes"), std::string::npos);
  EXPECT_OK(service->Select(SalesQuery()).status());
}

TEST_F(FailpointTest, ErrorCountersSurfaceInStatsAndProm) {
  std::unique_ptr<QueryService> service = MakeSalesService();
  EXPECT_FALSE(service->Execute("SELECT FROM nothing(").ok());
  {
    FailpointScope scope("parse", "error");
    EXPECT_FALSE(service->Execute(SalesQuery()).ok());
  }
  ServiceStats stats = service->Stats();
  uint64_t invalid = 0, unavailable = 0;
  for (const auto& [code, count] : stats.errors_by_code) {
    if (code == "invalid_argument") invalid = count;
    if (code == "unavailable") unavailable = count;
  }
  EXPECT_GE(invalid, 1u);
  EXPECT_GE(unavailable, 1u);
  EXPECT_NE(stats.ToString().find("errors"), std::string::npos);

  std::string prom = service->StatsPromText();
  EXPECT_NE(prom.find("aqv_service_errors_total{code=\"invalid_argument\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("aqv_service_errors_total{code=\"unavailable\"}"),
            std::string::npos);
  // Labeled series of one family share a single # TYPE line.
  std::string type_line = "# TYPE aqv_service_errors_total counter";
  size_t first = prom.find(type_line);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(prom.find(type_line, first + 1), std::string::npos);
}

TEST_F(FailpointTest, DelayFailpointSlowsButDoesNotFail) {
  std::unique_ptr<QueryService> service = MakeSalesService();
  FailpointScope scope("exec.operator", "delay(20000)");
  auto start = std::chrono::steady_clock::now();
  Result<StatementResult> r = service->Execute(SalesQuery());
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_OK(r.status());
  EXPECT_GE(std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
                .count(),
            20000);
}

}  // namespace
}  // namespace aqv
