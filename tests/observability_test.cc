// End-to-end tests of the observability surface (PR 7): STATS HISTORY /
// MONITOR over the telemetry recorder, per-statement cost attribution in
// EXPLAIN ANALYZE and the slow-query log, per-fingerprint aggregation
// (STATS ATTRIBUTION), the trace-ring drop counter, and the storage-layer
// instrumentation (fsync latency, checkpoint duration, page I/O and
// recovery-phase metrics) across a checkpoint + restart.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/failpoint.h"
#include "base/trace.h"
#include "service/query_service.h"

namespace aqv {
namespace {

StatementResult ExecuteOrDie(QueryService& service, const std::string& stmt) {
  Result<StatementResult> result = service.Execute(stmt);
  EXPECT_TRUE(result.ok()) << stmt << ": " << result.status().ToString();
  return result.ok() ? *std::move(result) : StatementResult{};
}

std::string FreshPath(const std::string& stem) {
  std::string path = ::testing::TempDir() + "/aqv_" + stem;
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  return path;
}

// `INSERT INTO name VALUES (0, 0), (1, 1), ...` with `rows` pairs.
std::string BulkInsert(const std::string& name, int rows) {
  std::string stmt = "INSERT INTO " + name + " VALUES ";
  for (int i = 0; i < rows; ++i) {
    if (i > 0) stmt += ", ";
    stmt += "(" + std::to_string(i % 16) + ", " + std::to_string(i) + ")";
  }
  return stmt;
}

// First unsigned integer following `token` in `text`, or -1 if absent.
long long NumberAfter(const std::string& text, const std::string& token) {
  size_t pos = text.find(token);
  if (pos == std::string::npos) return -1;
  return static_cast<long long>(
      std::strtoull(text.c_str() + pos + token.size(), nullptr, 10));
}

TEST(StatsHistoryTest, SamplerProducesMonotoneQueryableWindows) {
  ServiceOptions options;
  options.telemetry_interval_micros = 2000;  // 2 ms ticks
  options.telemetry_history_capacity = 64;
  QueryService service(options);
  ExecuteOrDie(service, "CREATE TABLE R(A, B)");
  ExecuteOrDie(service, BulkInsert("R", 32));

  // Drive a workload until at least 5 windows have been sampled.
  for (int spin = 0; spin < 500 && service.telemetry().windows_sampled() < 5;
       ++spin) {
    ExecuteOrDie(service, "SELECT A_1 FROM R WHERE B_1 = 3");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<TelemetryWindowPtr> windows = service.telemetry().History();
  ASSERT_GE(windows.size(), 5u);
  uint64_t statements = 0;
  for (size_t i = 0; i < windows.size(); ++i) {
    if (i > 0) {
      EXPECT_EQ(windows[i]->seq, windows[i - 1]->seq + 1);
      EXPECT_EQ(windows[i]->start_micros, windows[i - 1]->end_micros);
      EXPECT_GE(windows[i]->unix_millis, windows[i - 1]->unix_millis);
    }
    EXPECT_GT(windows[i]->end_micros, windows[i]->start_micros);
    statements += windows[i]->CounterDelta("service.statements");
  }
  EXPECT_GT(statements, 0u) << "the workload must show up in the windows";

  std::string text = ExecuteOrDie(service, "STATS HISTORY").message;
  EXPECT_NE(text.find("telemetry: "), std::string::npos) << text;
  EXPECT_NE(text.find("sampler running"), std::string::npos) << text;
  EXPECT_NE(text.find("sel="), std::string::npos);

  // Bounded form returns exactly n lines; JSON form is an array artifact.
  std::string bounded = ExecuteOrDie(service, "STATS HISTORY 2").message;
  EXPECT_EQ(NumberAfter(bounded, "telemetry: "), 2);
  std::string json = ExecuteOrDie(service, "STATS HISTORY JSON 3").message;
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"seq\":"), std::string::npos);
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);

  ServiceStats stats = service.Stats();
  EXPECT_GE(stats.telemetry_windows, 5u);
}

TEST(StatsHistoryTest, MonitorCutsWindowsOnDemandWithoutSampler) {
  QueryService service;  // telemetry_interval_micros = 0: no thread
  ExecuteOrDie(service, "CREATE TABLE R(A, B)");
  ExecuteOrDie(service, BulkInsert("R", 8));
  EXPECT_FALSE(service.telemetry().running());

  ExecuteOrDie(service, "SELECT A_1 FROM R");
  std::string text = ExecuteOrDie(service, "MONITOR").message;
  EXPECT_NE(text.find("MONITOR — last"), std::string::npos) << text;
  EXPECT_NE(text.find("sampler off"), std::string::npos);
  EXPECT_GE(service.telemetry().windows_sampled(), 1u);

  // The window the MONITOR cut contains the statements that preceded it.
  std::vector<TelemetryWindowPtr> windows = service.telemetry().History();
  ASSERT_GE(windows.size(), 1u);
  EXPECT_GE(windows.back()->CounterDelta("service.statements"), 3u);
}

TEST(AttributionTest, ExplainAnalyzePhaseSumTracksWallTime) {
  QueryService service;
  ExecuteOrDie(service, "CREATE TABLE R(A, B)");
  ExecuteOrDie(service, "CREATE TABLE S(C, D)");
  ExecuteOrDie(service, BulkInsert("R", 250));
  ExecuteOrDie(service, BulkInsert("S", 250));

  // A cross product of 250x250 rows keeps exec well over a millisecond, so
  // the untimed dispatch glue is noise against the attributed phases.
  std::string message =
      ExecuteOrDie(service,
                   "EXPLAIN ANALYZE SELECT A_1, SUM(D_2) FROM R, S GROUPBY A_1")
          .message;
  EXPECT_NE(message.find("attribution: wall="), std::string::npos) << message;
  for (const char* token :
       {"parse=", "rewrite=", "exec=", "maintain=", "wal_commit=", "rows="}) {
    EXPECT_NE(message.find(token), std::string::npos)
        << "missing " << token << " in:\n"
        << message;
  }
  // Parse from the attribution tail only: the rendered plan tree above it
  // also prints "actual rows=" per operator.
  size_t tail_at = message.find("attribution:");
  ASSERT_NE(tail_at, std::string::npos);
  std::string tail = message.substr(tail_at);
  long long wall = NumberAfter(tail, "wall=");
  long long phases = NumberAfter(tail, "phases=");
  long long exec = NumberAfter(tail, "exec=");
  long long rows = NumberAfter(tail, "rows=");
  ASSERT_GT(wall, 1000) << "query too fast to validate attribution";
  // Acceptance: the disjoint phase sum is within 10% of the measured wall.
  EXPECT_GE(phases, wall * 9 / 10) << message;
  EXPECT_LE(phases, wall) << "phases are disjoint slices of the wall";
  EXPECT_GT(exec, 0) << message;
  EXPECT_GE(rows, 250ll * 250ll) << "cross product rows must be attributed";
}

TEST(AttributionTest, FingerprintProfilesAggregateAcrossRepeats) {
  QueryService service;
  ExecuteOrDie(service, "CREATE TABLE R(A, B)");
  ExecuteOrDie(service, BulkInsert("R", 16));

  ExecuteOrDie(service, "SELECT A_1 FROM R WHERE B_1 = 7");
  ExecuteOrDie(service, "SELECT A_1 FROM R WHERE B_1 = 7");
  ExecuteOrDie(service, "SELECT A_1 FROM R WHERE 7 = B_1");  // same canonical

  std::vector<FingerprintProfile> profiles = service.FingerprintProfiles();
  ASSERT_EQ(profiles.size(), 1u);  // one fingerprint: the mirrored WHERE too
  EXPECT_EQ(profiles[0].count, 3u);
  EXPECT_EQ(profiles[0].cache_hits, 2u);
  EXPECT_GT(profiles[0].totals.total_micros, 0u);
  EXPECT_GE(profiles[0].totals.total_micros,
            profiles[0].totals.exec_micros);
  EXPECT_NE(profiles[0].example.find("SELECT"), std::string::npos);

  std::string text = ExecuteOrDie(service, "STATS ATTRIBUTION").message;
  EXPECT_NE(text.find("1 fingerprint(s) tracked"), std::string::npos) << text;
  EXPECT_NE(text.find("fp="), std::string::npos);
  EXPECT_NE(text.find("n=3"), std::string::npos);
  EXPECT_NE(text.find("cache_hits=2"), std::string::npos);
}

TEST(AttributionTest, AttributionCapacityBoundsTrackedFingerprints) {
  ServiceOptions options;
  options.attribution_capacity = 2;
  QueryService service(options);
  ExecuteOrDie(service, "CREATE TABLE R(A, B)");
  ExecuteOrDie(service, BulkInsert("R", 4));
  // Structurally distinct queries -> distinct fingerprints.
  ExecuteOrDie(service, "SELECT A_1 FROM R");
  ExecuteOrDie(service, "SELECT B_1 FROM R");
  ExecuteOrDie(service, "SELECT A_1, B_1 FROM R");
  EXPECT_EQ(service.FingerprintProfiles().size(), 2u);
  std::string text = ExecuteOrDie(service, "STATS ATTRIBUTION").message;
  EXPECT_NE(text.find("1 overflow"), std::string::npos) << text;
}

TEST(AttributionTest, SlowLogCarriesEpochCacheFlagAndWriteBreakdown) {
  ServiceOptions options;
  options.slow_query_micros = 1;  // everything is slow
  QueryService service(options);
  ExecuteOrDie(service, "CREATE TABLE R(A, B)");
  ExecuteOrDie(service,
               "CREATE MATERIALIZED VIEW V AS SELECT A_1, SUM(B_1) FROM R "
               "GROUPBY A_1");
  ExecuteOrDie(service, BulkInsert("R", 8));  // maintains V on the way
  ExecuteOrDie(service, "SELECT A_1 FROM R WHERE B_1 = 1");
  ExecuteOrDie(service, "SELECT A_1 FROM R WHERE B_1 = 1");

  std::vector<SlowQueryRecord> log = service.SlowQueries();
  ASSERT_GE(log.size(), 3u);
  const SlowQueryRecord& write = log[log.size() - 3];
  EXPECT_EQ(write.fingerprint, 0u) << "writes group under fingerprint 0";
  EXPECT_NE(write.statement.find("INSERT"), std::string::npos);
  EXPECT_GT(write.epoch, 0u);
  EXPECT_GE(write.total_micros,
            write.maintain_micros + write.wal_commit_micros);

  const SlowQueryRecord& cold = log[log.size() - 2];
  const SlowQueryRecord& warm = log[log.size() - 1];
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(cold.fingerprint, warm.fingerprint);
  EXPECT_EQ(cold.epoch, warm.epoch) << "no write between the two reads";

  std::string text = ExecuteOrDie(service, "SLOWLOG").message;
  EXPECT_NE(text.find("epoch="), std::string::npos) << text;
  EXPECT_NE(text.find("wal_commit="), std::string::npos);
  EXPECT_NE(text.find("[cache hit]"), std::string::npos);
}

// A write's slow-log record is its whole QueryStats: the stripe wait a
// contended writer pays (latch_micros) reaches both the record and its
// SLOWLOG line.
TEST(AttributionTest, SlowLogCarriesAWritersLatchWait) {
  ServiceOptions options;
  options.slow_query_micros = 1;  // everything is slow
  QueryService service(options);
  ExecuteOrDie(service, "CREATE TABLE R(A, B)");
  // The first writer sleeps inside its latches (after the footprint is
  // taken, before the COW copy); the second queues on R's stripe.
  FailpointScope scope("table.cow_copy", "delay(300000,100,1)");
  std::thread holder(
      [&] { ExecuteOrDie(service, "INSERT INTO R VALUES (1, 1)"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ExecuteOrDie(service, "INSERT INTO R VALUES (2, 2)");
  holder.join();

  const SlowQueryRecord* waiter = nullptr;
  std::vector<SlowQueryRecord> log = service.SlowQueries();
  for (const SlowQueryRecord& r : log) {
    if (r.statement.find("(2, 2)") != std::string::npos) waiter = &r;
  }
  ASSERT_NE(waiter, nullptr);
  EXPECT_GE(waiter->latch_micros, 20000u) << "waited out the holder";
  EXPECT_GE(waiter->total_micros, waiter->PhaseSumMicros());

  std::istringstream lines(ExecuteOrDie(service, "SLOWLOG").message);
  std::string line;
  while (std::getline(lines, line) &&
         line.find("(2, 2)") == std::string::npos) {
  }
  EXPECT_NE(line.find("latch=" + std::to_string(waiter->latch_micros) + "us"),
            std::string::npos)
      << line;
}

// The priced part of an EXPLAIN header: "cost:      <orig> -> <chosen> ".
std::string Costs(const std::string& explain) {
  size_t at = explain.find("cost:");
  if (at == std::string::npos) return "";
  return explain.substr(at, explain.find('(', at) - at);
}

// A re-costed lookup is a hit and a recost in ServiceStats, STATS and the
// PROM exposition; a re-cost whose choice flips counts as an invalidation;
// and EXPLAIN names the re-cost and prints the costs of the reader's state.
TEST(PlanCacheObservabilityTest, RecostsAndFlipsAreCountedAndExplained) {
  QueryService service;
  ServiceOptions no_cache;
  no_cache.plan_cache_capacity = 0;
  QueryService witness(no_cache);
  // Per A: B takes one value and C ten, so VB is the smaller view until
  // the second INSERT gives B forty more values.
  std::string rows, more;
  for (int a = 0; a < 4; ++a) {
    for (int c = 0; c < 10; ++c) {
      rows += std::string(rows.empty() ? "" : ", ") + "(" + std::to_string(a) +
              ", 0, " + std::to_string(c) + ", 1)";
    }
    for (int b = 1; b <= 40; ++b) {
      more += std::string(more.empty() ? "" : ", ") + "(" + std::to_string(a) +
              ", " + std::to_string(b) + ", 0, 1)";
    }
  }
  for (QueryService* s : {&service, &witness}) {
    ExecuteOrDie(*s, "CREATE TABLE R(A, B, C, D)");
    ExecuteOrDie(*s, "INSERT INTO R VALUES " + rows);
    ExecuteOrDie(*s, "CREATE MATERIALIZED VIEW VB AS SELECT A_1, B_1, "
                     "SUM(D_1) AS S FROM R GROUPBY A_1, B_1");
    ExecuteOrDie(*s, "CREATE MATERIALIZED VIEW VC AS SELECT A_1, C_1, "
                     "SUM(D_1) AS S FROM R GROUPBY A_1, C_1");
  }
  const std::string q = "SELECT A_1, SUM(D_1) AS T FROM R GROUPBY A_1";
  std::string cold = ExecuteOrDie(service, "EXPLAIN " + q).message;
  EXPECT_NE(cold.find("FROM VB"), std::string::npos) << cold;
  EXPECT_EQ(cold.find("plan cache hit"), std::string::npos) << cold;

  // A write that keeps the choice: a re-costed hit, not an invalidation.
  for (QueryService* s : {&service, &witness}) {
    ExecuteOrDie(*s, "INSERT INTO R VALUES (0, 0, 0, 1)");
  }
  std::string kept = ExecuteOrDie(service, "EXPLAIN " + q).message;
  EXPECT_NE(kept.find("plan cache hit, re-costed"), std::string::npos) << kept;
  EXPECT_EQ(Costs(kept), Costs(ExecuteOrDie(witness, "EXPLAIN " + q).message));
  EXPECT_NE(Costs(kept), Costs(cold));
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.plan_cache_recosts, 1u);
  EXPECT_EQ(stats.plan_cache_hits, 1u);
  EXPECT_EQ(stats.plan_cache_misses, 1u);
  EXPECT_EQ(stats.plan_cache_invalidated, 0u);
  // Served again on the same state: a plain hit.
  std::string plain = ExecuteOrDie(service, "EXPLAIN " + q).message;
  EXPECT_NE(plain.find("plan cache hit)"), std::string::npos) << plain;

  // A write that reverses the views' sizes: the re-cost flips to VC.
  for (QueryService* s : {&service, &witness}) {
    ExecuteOrDie(*s, "INSERT INTO R VALUES " + more);
  }
  std::string flipped = ExecuteOrDie(service, "EXPLAIN " + q).message;
  EXPECT_NE(flipped.find("FROM VC"), std::string::npos) << flipped;
  EXPECT_NE(flipped.find("plan cache hit, re-costed"), std::string::npos);
  std::string expected = ExecuteOrDie(witness, "EXPLAIN " + q).message;
  EXPECT_EQ(Costs(flipped), Costs(expected)) << flipped << expected;
  stats = service.Stats();
  EXPECT_EQ(stats.plan_cache_recosts, 2u);
  EXPECT_EQ(stats.plan_cache_hits, 3u);
  EXPECT_EQ(stats.plan_cache_invalidated, 1u);

  std::string text = ExecuteOrDie(service, "STATS").message;
  EXPECT_NE(text.find("2 re-costed, 1 invalidated"), std::string::npos) << text;
  std::string prom = service.StatsPromText();
  EXPECT_NE(prom.find("aqv_service_plan_cache_recosts 2\n"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("aqv_service_plan_cache_invalidated 1\n"),
            std::string::npos);
  EXPECT_NE(prom.find("aqv_service_statement_cache_hits 3\n"),
            std::string::npos);
}

TEST(TraceDropTest, DroppedSpansSurfaceInStatsAndProm) {
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  QueryService service;
  EXPECT_EQ(service.Stats().trace_dropped_spans, 0u);

  // Overflow the global ring directly: capacity + 3 records drop 3.
  for (size_t i = 0; i < tracer.capacity() + 3; ++i) {
    TraceEvent event;
    event.name = "synthetic";
    tracer.Record(std::move(event));
  }
  EXPECT_EQ(tracer.dropped(), 3u);
  EXPECT_EQ(service.Stats().trace_dropped_spans, 3u);
  std::string prom = service.StatsPromText();
  EXPECT_NE(prom.find("aqv_trace_dropped_spans 3\n"), std::string::npos)
      << prom;
  std::string text = ExecuteOrDie(service, "STATS").message;
  EXPECT_NE(text.find("trace dropped spans 3"), std::string::npos) << text;
  tracer.Clear();
}

TEST(StorageObservabilityTest, StorageStackMetricsFlowThroughStats) {
  std::string path = FreshPath("observability.db");
  ServiceOptions options;
  options.storage_path = path;
  options.slow_query_micros = 1;
  {
    QueryService service(options);
    ASSERT_TRUE(service.storage_status().ok())
        << service.storage_status().ToString();
    ExecuteOrDie(service, "CREATE TABLE R(A, B)");
    for (int i = 0; i < 4; ++i) ExecuteOrDie(service, BulkInsert("R", 64));

    ServiceStats stats = service.Stats();
    EXPECT_TRUE(stats.storage_attached);
    EXPECT_GT(stats.storage_wal_fsyncs, 0u);
    // Every durable commit passed through the timed fsync path.
    EXPECT_GT(stats.storage_fsync_p99_micros, 0.0);
    EXPECT_GE(stats.storage_fsync_max_micros, 1u);
    std::string prom = service.StatsPromText();
    EXPECT_NE(prom.find("# TYPE aqv_storage_wal_fsync_latency histogram"),
              std::string::npos);

    // The write slow-log entries carry the WAL commit slice.
    bool saw_wal_commit = false;
    for (const SlowQueryRecord& r : service.SlowQueries()) {
      if (r.fingerprint == 0 && r.wal_commit_micros > 0) saw_wal_commit = true;
    }
    EXPECT_TRUE(saw_wal_commit);

    ExecuteOrDie(service, "CHECKPOINT");
    stats = service.Stats();
    EXPECT_GT(stats.storage_checkpoints, 0u);
    EXPECT_GT(stats.storage_checkpoint_p99_micros, 0.0);
  }

  // Reopen: recovery reads the checkpoint pages back, so the page-read
  // counter and the recovery phase gauges must be populated.
  QueryService service(options);
  ASSERT_TRUE(service.storage_status().ok());
  ServiceStats stats = service.Stats();
  EXPECT_GT(stats.storage_pages_read, 0u);
  // The WAL-replay phase is a slice of the engine's total recovery time;
  // view recompute runs in the service afterwards and is tracked separately.
  EXPECT_GE(stats.storage_recovery_ms, stats.storage_recovery_replay_ms);
  EXPECT_GE(stats.storage_recovery_replay_ms, 0);
  EXPECT_GE(stats.storage_recovery_recompute_ms, 0);
  std::string text = ExecuteOrDie(service, "STATS").message;
  EXPECT_NE(text.find("recovery phases"), std::string::npos) << text;

  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

}  // namespace
}  // namespace aqv
