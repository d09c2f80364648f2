// Crash-recovery chaos for the durable storage subsystem: a QueryService
// over a real db file is killed at every storage failpoint — torn WAL
// appends, unsynced commits, mid-checkpoint page flushes, WAL-truncate
// failures, faults during replay itself — and then recovered, with the
// result checked differentially against an in-test oracle of acknowledged
// writes.
//
// The durability contract under test (README "Durability contract"):
//   - every ACKNOWLEDGED commit survives a crash;
//   - a commit that failed (or was in flight) either vanishes entirely or
//     survives atomically — never a partial row set; so the recovered
//     table equals `acked` or `acked + pending`, nothing else;
//   - recovered stored views are consistent with the recovered base
//     tables (REFRESH after recovery is a no-op on contents);
//   - CHECKPOINT + restart recovers with zero WAL replay;
//   - recovery itself is read-only, so a recovery that dies on an
//     injected fault can simply be retried.
//
// The kill is simulated, not SIGKILL: every storage failpoint fires with
// the on-disk state a real kill at that instant leaves behind (wal.append
// tears the record mid-write, wal.fsync leaves it written-but-unsynced,
// page.flush aborts a shadow checkpoint between page writes), the WAL
// fail-stops so the "doomed" process can write nothing more, and the
// service object is destroyed without any shutdown flush. Recovery then
// sees exactly the bytes a crash would have left.
//
// Randomized sweeps are seeded (AQV_TEST_SEED) and print their seed on
// failure for replay.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/failpoint.h"
#include "exec/csv.h"
#include "exec/table.h"
#include "service/query_service.h"
#include "storage/page.h"
#include "storage/storage_engine.h"
#include "storage/wal.h"
#include "tests/test_util.h"

namespace aqv {
namespace {

std::string FreshPath(const std::string& stem) {
  std::string path = ::testing::TempDir() + "/aqv_" + stem;
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  return path;
}

std::unique_ptr<QueryService> MakeService(const std::string& db_path) {
  ServiceOptions options;
  options.storage_path = db_path;
  return std::make_unique<QueryService>(options);
}

// XORs one byte of `path` at `offset` — simulated bit rot.
void FlipByteAt(const std::string& path, uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char b = 0;
  ASSERT_TRUE(f.read(&b, 1).good());
  b = static_cast<char>(b ^ 0x40);
  f.seekp(static_cast<std::streamoff>(offset));
  ASSERT_TRUE(f.write(&b, 1).good());
}

// Flips a byte inside every on-disk occurrence of `marker` in `path`.
size_t FlipMarkerBytes(const std::string& path, const std::string& marker) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  size_t hits = 0;
  for (size_t pos = bytes.find(marker); pos != std::string::npos;
       pos = bytes.find(marker, pos + 1)) {
    FlipByteAt(path, pos + 2);
    ++hits;
  }
  return hits;
}

// Spin until `pred` holds or ~10 s pass (the auto-checkpointer polls every
// 20 ms, so this is hundreds of chances even on a loaded 1-CPU box).
bool WaitFor(const std::function<bool()>& pred) {
  for (int i = 0; i < 1000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

// Rows of `table`, sorted, for order-insensitive comparison.
std::vector<Row> SortedRows(const Table& table) {
  std::vector<Row> rows = table.rows();
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return CompareRows(a, b) < 0; });
  return rows;
}

std::vector<Row> Sorted(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return CompareRows(a, b) < 0; });
  return rows;
}

// The in-test oracle: per-table multisets of acknowledged rows, plus the
// rows of the single in-flight commit a crash may or may not have
// preserved.
struct Oracle {
  std::map<std::string, std::vector<Row>> acked;
  std::map<std::string, std::vector<Row>> pending;

  void Ack(const std::string& table, const std::vector<Row>& rows) {
    auto& dst = acked[table];
    dst.insert(dst.end(), rows.begin(), rows.end());
  }
  void SetPending(const std::string& table, const std::vector<Row>& rows) {
    pending.clear();
    pending[table] = rows;
  }
};

// INSERT statement for integer rows.
std::string InsertSql(const std::string& table,
                      const std::vector<Row>& rows) {
  std::string sql = "INSERT INTO " + table + " VALUES ";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += "(";
    for (size_t j = 0; j < rows[i].size(); ++j) {
      if (j > 0) sql += ", ";
      sql += rows[i][j].ToString();
    }
    sql += ")";
  }
  return sql;
}

// Checks one recovered table against the oracle: its contents must be
// exactly `acked`, or exactly `acked + pending` (the unacknowledged
// commit survived atomically). Returns true iff the pending rows made it.
bool CheckTable(const QueryService& unused, const Table& recovered,
                const Oracle& oracle, const std::string& table) {
  (void)unused;
  std::vector<Row> got = SortedRows(recovered);
  std::vector<Row> want_acked;
  auto it = oracle.acked.find(table);
  if (it != oracle.acked.end()) want_acked = it->second;

  std::vector<Row> want_with_pending = want_acked;
  auto pit = oracle.pending.find(table);
  if (pit != oracle.pending.end()) {
    want_with_pending.insert(want_with_pending.end(), pit->second.begin(),
                             pit->second.end());
  }
  std::vector<Row> acked_sorted = Sorted(std::move(want_acked));
  if (got == acked_sorted) return false;
  std::vector<Row> pending_sorted = Sorted(std::move(want_with_pending));
  EXPECT_EQ(got, pending_sorted)
      << "table " << table << ": recovered contents match neither the acked "
      << "rows nor acked+pending (partial commit?) — got " << got.size()
      << " rows, acked " << acked_sorted.size() << ", acked+pending "
      << pending_sorted.size();
  return true;
}

// Recovered-view self-consistency: REFRESH (a full recompute from the
// recovered bases) must not change the stored contents.
void CheckViewConsistent(QueryService* service, const std::string& view) {
  ServiceSnapshotPtr before = service->PinSnapshot();
  ASSERT_OK_AND_ASSIGN(const Table* stored, before->db.Get(view));
  Table stored_copy = *stored;
  ASSERT_OK(service->Execute("REFRESH " + view).status());
  ServiceSnapshotPtr after = service->PinSnapshot();
  ASSERT_OK_AND_ASSIGN(const Table* refreshed, after->db.Get(view));
  EXPECT_TRUE(MultisetEqual(stored_copy, *refreshed))
      << "view " << view
      << " recovered stale relative to the recovered base tables:\n"
      << DescribeMultisetDifference(stored_copy, *refreshed);
}

// The base schema + view every test below starts from.
void Bootstrap(QueryService* service, Oracle* oracle) {
  ASSERT_OK(service->Execute("CREATE TABLE R(A, B) KEY(A)").status());
  ASSERT_OK(service->Execute("CREATE TABLE S(C, D)").status());
  ASSERT_OK(service
                ->Execute("CREATE MATERIALIZED VIEW VSum AS "
                          "SELECT A_1, SUM(B_1) FROM R GROUPBY A_1")
                .status());
  std::vector<Row> r0 = {{Value::Int64(1), Value::Int64(10)},
                         {Value::Int64(2), Value::Int64(20)}};
  std::vector<Row> s0 = {{Value::Int64(7), Value::Int64(70)}};
  ASSERT_OK(service->Execute(InsertSql("R", r0)).status());
  ASSERT_OK(service->Execute(InsertSql("S", s0)).status());
  oracle->Ack("R", r0);
  oracle->Ack("S", s0);
}

void CheckRecovered(QueryService* service, Oracle* oracle) {
  ASSERT_TRUE(service->storage_attached())
      << service->storage_status().ToString();
  ServiceSnapshotPtr snap = service->PinSnapshot();
  for (const auto& [table, rows] : oracle->acked) {
    (void)rows;
    ASSERT_TRUE(snap->db.Has(table)) << "table " << table << " lost";
    ASSERT_OK_AND_ASSIGN(const Table* got, snap->db.Get(table));
    if (CheckTable(*service, *got, *oracle, table)) {
      // The pending commit survived: fold it into the oracle.
      auto it = oracle->pending.find(table);
      if (it != oracle->pending.end()) oracle->Ack(table, it->second);
    }
  }
  oracle->pending.clear();
  CheckViewConsistent(service, "VSum");
}

// ---------------------------------------------------------------------
// Deterministic kill-at-failpoint matrix.
// ---------------------------------------------------------------------

// Crash while appending the WAL record: the record is torn mid-write, so
// the commit must vanish; everything acknowledged before it survives.
TEST(RecoveryTest, KillAtWalAppend) {
  std::string path = FreshPath("kill_wal_append.db");
  Oracle oracle;
  auto service = MakeService(path);
  ASSERT_NO_FATAL_FAILURE(Bootstrap(service.get(), &oracle));

  std::vector<Row> doomed = {{Value::Int64(3), Value::Int64(30)}};
  {
    FailpointScope fp("wal.append", "error");
    ASSERT_TRUE(fp.armed());
    EXPECT_FALSE(service->Execute(InsertSql("R", doomed)).ok());
  }
  oracle.SetPending("R", doomed);
  // Fail-stop: the doomed service can commit nothing more before the
  // "kill" — exactly what a dead process can write.
  EXPECT_FALSE(service->Execute("INSERT INTO R VALUES (99, 99)").ok());
  service.reset();  // the crash

  service = MakeService(path);
  ASSERT_NO_FATAL_FAILURE(CheckRecovered(service.get(), &oracle));
  // A torn record can never replay: the pending rows must NOT be there.
  ServiceSnapshotPtr snap = service->PinSnapshot();
  ASSERT_OK_AND_ASSIGN(const Table* r, snap->db.Get("R"));
  EXPECT_EQ(r->num_rows(), oracle.acked["R"].size());
}

// Crash after the record is fully written but before the fsync: the
// commit was never acknowledged, but recovery may legitimately find the
// intact record and replay it — atomically or not at all.
TEST(RecoveryTest, KillAtWalFsync) {
  std::string path = FreshPath("kill_wal_fsync.db");
  Oracle oracle;
  auto service = MakeService(path);
  ASSERT_NO_FATAL_FAILURE(Bootstrap(service.get(), &oracle));

  std::vector<Row> doomed = {{Value::Int64(4), Value::Int64(40)},
                             {Value::Int64(5), Value::Int64(50)}};
  {
    FailpointScope fp("wal.fsync", "error");
    ASSERT_TRUE(fp.armed());
    EXPECT_FALSE(service->Execute(InsertSql("R", doomed)).ok());
  }
  oracle.SetPending("R", doomed);
  service.reset();

  service = MakeService(path);
  ASSERT_NO_FATAL_FAILURE(CheckRecovered(service.get(), &oracle));
  // Either zero or both pending rows — CheckRecovered already rejected
  // any in-between; writes work again after recovery.
  std::vector<Row> more = {{Value::Int64(6), Value::Int64(60)}};
  ASSERT_OK(service->Execute(InsertSql("R", more)).status());
  oracle.Ack("R", more);
  ASSERT_NO_FATAL_FAILURE(CheckRecovered(service.get(), &oracle));
}

// Crash between two page writes of a shadow checkpoint: the previous
// checkpoint stays live and the whole WAL tail replays on top of it.
TEST(RecoveryTest, KillAtPageFlushDuringCheckpoint) {
  std::string path = FreshPath("kill_page_flush.db");
  Oracle oracle;
  auto service = MakeService(path);
  ASSERT_NO_FATAL_FAILURE(Bootstrap(service.get(), &oracle));

  std::vector<Row> extra = {{Value::Int64(8), Value::Int64(80)}};
  ASSERT_OK(service->Execute(InsertSql("S", extra)).status());
  oracle.Ack("S", extra);

  {
    // Fire on the 3rd page write, mid-stream through the shadow set.
    FailpointScope fp("page.flush", "error(100,1)");
    ASSERT_TRUE(fp.armed());
    EXPECT_FALSE(service->Execute("CHECKPOINT").ok());
  }
  service.reset();

  service = MakeService(path);
  ASSERT_NO_FATAL_FAILURE(CheckRecovered(service.get(), &oracle));
}

// Crash after the checkpoint's meta flip but before the WAL truncate:
// replay must skip every record the checkpoint already covers (no
// double-applied rows).
TEST(RecoveryTest, KillAtWalTruncateAfterCheckpoint) {
  std::string path = FreshPath("kill_wal_truncate.db");
  Oracle oracle;
  auto service = MakeService(path);
  ASSERT_NO_FATAL_FAILURE(Bootstrap(service.get(), &oracle));

  {
    FailpointScope fp("wal.truncate", "error");
    ASSERT_TRUE(fp.armed());
    // The checkpoint itself committed (meta flipped); only the truncate
    // failed, so the statement reports the failure.
    EXPECT_FALSE(service->Execute("CHECKPOINT").ok());
  }
  service.reset();

  service = MakeService(path);
  ASSERT_NO_FATAL_FAILURE(CheckRecovered(service.get(), &oracle));
  // The stale WAL records were skipped by sequence, not replayed twice.
  EXPECT_EQ(service->Stats().storage_wal_replayed, 0u);
}

// DELETE/UPDATE through the kill matrix (PR 10): delete-carrying WAL
// deltas must commit atomically. After a crash at any write-path failpoint
// the table holds exactly the pre-statement or the post-statement
// multiset — never a mix — and the recovered view matches a recompute.
// Failpoints before the WAL record is durable can only leave the
// pre-statement state; a kill between append and fsync may land either.
TEST(RecoveryTest, KillAtFailpointsDuringDeleteMaintenance) {
  const struct {
    const char* failpoint;
    bool can_survive;  // fires after the WAL record hit the file?
  } kKills[] = {
      {"table.cow_copy", false},
      {"maintain.apply", false},
      {"wal.append", false},
      {"wal.fsync", true},
  };
  auto sorted_rows = [](QueryService* s, const char* t) {
    ServiceSnapshotPtr snap = s->PinSnapshot();
    Result<const Table*> r = snap->db.Get(t);
    EXPECT_OK(r.status());
    return SortedRows(**r);
  };
  int variant = 0;
  for (const auto& kill : kKills) {
    SCOPED_TRACE(kill.failpoint);
    std::string path =
        FreshPath("kill_dml_" + std::to_string(variant++) + ".db");
    Oracle oracle;
    auto service = MakeService(path);
    ASSERT_NO_FATAL_FAILURE(Bootstrap(service.get(), &oracle));

    // -------- DELETE under the failpoint, then crash. --------
    std::vector<Row> before = sorted_rows(service.get(), "R");
    std::vector<Row> after_delete =
        Sorted({{Value::Int64(2), Value::Int64(20)}});
    {
      FailpointScope fp(kill.failpoint, "error");
      ASSERT_TRUE(fp.armed());
      EXPECT_FALSE(service->Execute("DELETE FROM R WHERE A = 1").ok());
    }
    service.reset();  // the crash
    service = MakeService(path);
    ASSERT_TRUE(service->storage_attached())
        << service->storage_status().ToString();
    std::vector<Row> got = sorted_rows(service.get(), "R");
    if (kill.can_survive) {
      EXPECT_TRUE(got == before || got == after_delete)
          << "recovered R is neither pre- nor post-DELETE ("
          << got.size() << " rows)";
    } else {
      EXPECT_EQ(got, before) << "an unlogged DELETE replayed";
    }
    ASSERT_NO_FATAL_FAILURE(CheckViewConsistent(service.get(), "VSum"));
    if (sorted_rows(service.get(), "R") == before) {
      ASSERT_OK(service->Execute("DELETE FROM R WHERE A = 1").status());
    }
    EXPECT_EQ(sorted_rows(service.get(), "R"), after_delete);

    // -------- UPDATE under the failpoint, on the recovered state. --------
    std::vector<Row> after_update =
        Sorted({{Value::Int64(2), Value::Int64(25)}});
    {
      FailpointScope fp(kill.failpoint, "error");
      ASSERT_TRUE(fp.armed());
      EXPECT_FALSE(
          service->Execute("UPDATE R SET B = B + 5 WHERE A = 2").ok());
    }
    service.reset();
    service = MakeService(path);
    ASSERT_TRUE(service->storage_attached())
        << service->storage_status().ToString();
    got = sorted_rows(service.get(), "R");
    if (kill.can_survive) {
      EXPECT_TRUE(got == after_delete || got == after_update)
          << "recovered R is neither pre- nor post-UPDATE ("
          << got.size() << " rows)";
    } else {
      EXPECT_EQ(got, after_delete) << "an unlogged UPDATE replayed";
    }
    ASSERT_NO_FATAL_FAILURE(CheckViewConsistent(service.get(), "VSum"));
    if (sorted_rows(service.get(), "R") == after_delete) {
      ASSERT_OK(
          service->Execute("UPDATE R SET B = B + 5 WHERE A = 2").status());
    }
    EXPECT_EQ(sorted_rows(service.get(), "R"), after_update);
  }
}

// A fault during replay fails recovery — but recovery never writes, so
// disarming the fault and reopening succeeds on the same files.
TEST(RecoveryTest, RecoveryReplayFaultIsRetryable) {
  std::string path = FreshPath("kill_recovery_replay.db");
  Oracle oracle;
  auto service = MakeService(path);
  ASSERT_NO_FATAL_FAILURE(Bootstrap(service.get(), &oracle));
  service.reset();

  {
    FailpointScope fp("recovery.replay", "error");
    ASSERT_TRUE(fp.armed());
    auto failed = MakeService(path);
    EXPECT_FALSE(failed->storage_attached());
    EXPECT_FALSE(failed->storage_status().ok());
  }
  service = MakeService(path);
  ASSERT_NO_FATAL_FAILURE(CheckRecovered(service.get(), &oracle));
  EXPECT_GT(service->Stats().storage_wal_replayed, 0u);
}

// ---------------------------------------------------------------------
// Acceptance-path round trips.
// ---------------------------------------------------------------------

TEST(RecoveryTest, CheckpointRestartRecoversWithZeroReplay) {
  std::string path = FreshPath("ckpt_zero_replay.db");
  Oracle oracle;
  auto service = MakeService(path);
  ASSERT_NO_FATAL_FAILURE(Bootstrap(service.get(), &oracle));
  ASSERT_OK(service->Execute("CHECKPOINT").status());
  service.reset();

  service = MakeService(path);
  EXPECT_EQ(service->Stats().storage_wal_replayed, 0u);
  ASSERT_NO_FATAL_FAILURE(CheckRecovered(service.get(), &oracle));
}

// A DDL statement whose checkpoint fails before its commit point is not
// published: the table or view it would create is absent, a write naming it
// is refused instead of reaching the WAL, and the file reopens. One whose
// checkpoint committed but whose WAL truncate failed is on disk, so it is
// published too: visible before and after the reopen. Every kind of DDL is
// an input.
TEST(RecoveryTest, FailedDdlCheckpointPublishesNothing) {
  Table header({"A", "B"});
  header.AddRowOrDie({Value::Int64(7), Value::Int64(8)});
  std::string csv = ::testing::TempDir() + "/aqv_failed_ddl.csv";
  ASSERT_OK(WriteCsvFile(header, csv));
  const std::string ddls[] = {
      "CREATE TABLE U(A, B)",
      "CREATE VIEW U AS SELECT A_1, B_1 FROM T",
      "CREATE MATERIALIZED VIEW U AS SELECT A_1, SUM(B_1) AS S FROM T "
      "GROUPBY A_1",
      "LOAD U FROM '" + csv + "'",
  };
  const struct {
    const char* failpoint;
    bool committed;  // fires after the checkpoint's meta flip?
  } kFaults[] = {{"page.flush", false}, {"wal.truncate", true}};
  // True when TABLES or VIEWS lists U.
  auto lists_u = [](QueryService* service) {
    Result<StatementResult> tables = service->Execute("TABLES");
    Result<StatementResult> views = service->Execute("VIEWS");
    EXPECT_TRUE(tables.ok() && views.ok());
    return tables->message.find("U(") != std::string::npos ||
           views->message.find("U ") != std::string::npos;
  };
  for (const auto& fault : kFaults) {
    for (const std::string& ddl : ddls) {
      SCOPED_TRACE(std::string(fault.failpoint) + ": " + ddl);
      std::string path = FreshPath("failed_ddl");
      {
        auto service = MakeService(path);
        ASSERT_OK(service->storage_status());
        ASSERT_OK(service->Execute("CREATE TABLE T(A, B)").status());
        ASSERT_OK(service->Execute("INSERT INTO T VALUES (1, 2)").status());
        ASSERT_OK(FailpointRegistry::Global().Set(fault.failpoint, "error"));
        Result<StatementResult> failed = service->Execute(ddl);
        ASSERT_OK(FailpointRegistry::Global().Set(fault.failpoint, "off"));
        ASSERT_FALSE(failed.ok());
        EXPECT_EQ(lists_u(service.get()), fault.committed);
        if (!fault.committed) {
          Result<StatementResult> write =
              service->Execute("INSERT INTO U VALUES (1, 2)");
          EXPECT_EQ(write.status().code(), StatusCode::kNotFound);
        }
        ASSERT_OK(service->Execute("INSERT INTO T VALUES (3, 4)").status());
      }
      auto reopened = MakeService(path);
      ASSERT_OK(reopened->storage_status());
      ASSERT_OK_AND_ASSIGN(Table t,
                           reopened->Select("SELECT A_1, B_1 FROM T"));
      EXPECT_EQ(t.num_rows(), 2u);
      EXPECT_EQ(lists_u(reopened.get()), fault.committed);
      // Nothing half-created is in the way of the same statement.
      if (!fault.committed) ASSERT_OK(reopened->Execute(ddl).status());
    }
  }
  std::remove(csv.c_str());
}

TEST(RecoveryTest, PlanCacheSurvivesRestart) {
  std::string path = FreshPath("plan_cache_restart.db");
  Oracle oracle;
  auto service = MakeService(path);
  ASSERT_NO_FATAL_FAILURE(Bootstrap(service.get(), &oracle));

  const std::string query =
      "SELECT A_1, SUM(B_1) FROM R WHERE A_1 = 1 GROUPBY A_1";
  ASSERT_OK_AND_ASSIGN(StatementResult first, service->Execute(query));
  EXPECT_FALSE(first.cache_hit);
  ASSERT_OK(service->Execute("CHECKPOINT").status());
  service.reset();

  service = MakeService(path);
  ASSERT_OK_AND_ASSIGN(StatementResult warm, service->Execute(query));
  EXPECT_TRUE(warm.cache_hit) << "persisted plan cache was not restored";
  EXPECT_TRUE(MultisetEqual(*first.table, *warm.table));
}

TEST(RecoveryTest, LoadReplaceSurvivesCrashWithoutCheckpoint) {
  std::string path = FreshPath("load_replace.db");
  Oracle oracle;
  auto service = MakeService(path);
  ASSERT_NO_FATAL_FAILURE(Bootstrap(service.get(), &oracle));

  // Replace R wholesale via LOAD: logged as one delete-all+insert-all WAL
  // delta (no checkpoint on this path), so it must replay exactly.
  Table replacement({"A", "B"});
  replacement.AddRowOrDie({Value::Int64(100), Value::Int64(1000)});
  replacement.AddRowOrDie({Value::Int64(200), Value::Int64(2000)});
  std::string csv = ::testing::TempDir() + "/aqv_load_replace.csv";
  ASSERT_OK(WriteCsvFile(replacement, csv));
  ASSERT_OK(service->Execute("LOAD R FROM '" + csv + "'").status());
  oracle.acked["R"] = replacement.rows();
  service.reset();

  service = MakeService(path);
  ASSERT_NO_FATAL_FAILURE(CheckRecovered(service.get(), &oracle));
  std::remove(csv.c_str());
}

// ---------------------------------------------------------------------
// Corruption quarantine: bit rot in data pages and the WAL, salvage,
// clean per-table errors, and the LOAD repair path. (CI sweeps this
// matrix as --gtest_filter='*Corruption*' across seeds.)
// ---------------------------------------------------------------------

// Bit rot in one table's data page: the damaged table is quarantined and
// serves clean errors, everything else is salvaged intact, and a LOAD
// that fully replaces the contents repairs it.
TEST(CorruptionRecoveryTest, DataPageRotSalvageAndLoadRepair) {
  std::string path = FreshPath("corrupt_data_page.db");
  const std::string marker = "CORRUPT-ME-MARKER-PAYLOAD";
  {
    auto service = MakeService(path);
    ASSERT_OK(service->Execute("CREATE TABLE Bad(A, B)").status());
    ASSERT_OK(service->Execute("CREATE TABLE Good(C, D)").status());
    ASSERT_OK(service
                  ->Execute("INSERT INTO Bad VALUES (1, '" + marker + "')")
                  .status());
    ASSERT_OK(service->Execute("INSERT INTO Good VALUES (7, 70)").status());
    ASSERT_OK(service->Execute("CHECKPOINT").status());
  }
  ASSERT_GE(FlipMarkerBytes(path, marker), 1u);

  auto service = MakeService(path);
  ASSERT_TRUE(service->storage_attached())
      << service->storage_status().ToString();

  // Reads AND writes on the quarantined table refuse with a clean error
  // that names the repair path; the clean table works untouched.
  Result<StatementResult> read = service->Execute("SELECT A_1 FROM Bad");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(read.status().message().find("quarantined"), std::string::npos);
  EXPECT_NE(read.status().message().find("LOAD"), std::string::npos);
  EXPECT_FALSE(service->Execute("INSERT INTO Bad VALUES (2, 'x')").ok());
  ASSERT_OK_AND_ASSIGN(StatementResult good,
                       service->Execute("SELECT C_1, D_1 FROM Good"));
  EXPECT_EQ(good.table->num_rows(), 1u);
  ASSERT_EQ(service->Stats().quarantined_tables.size(), 1u);
  EXPECT_EQ(service->Stats().quarantined_tables[0].first, "Bad");
  EXPECT_GE(service->Stats().storage_pages_quarantined, 1u);

  // Repair: LOAD fully replaces the contents, clearing the quarantine.
  Table replacement({"A", "B"});
  replacement.AddRowOrDie({Value::Int64(5), Value::String("fresh")});
  std::string csv = ::testing::TempDir() + "/aqv_corrupt_repair.csv";
  ASSERT_OK(WriteCsvFile(replacement, csv));
  ASSERT_OK(service->Execute("LOAD Bad FROM '" + csv + "'").status());
  ASSERT_OK_AND_ASSIGN(StatementResult fixed,
                       service->Execute("SELECT A_1, B_1 FROM Bad"));
  EXPECT_TRUE(MultisetEqual(*fixed.table, replacement));
  EXPECT_TRUE(service->Stats().quarantined_tables.empty());
  ASSERT_OK(service->Execute("INSERT INTO Bad VALUES (6, 'more')").status());
  service.reset();

  // The repair is durable: a restart recovers the repaired table with no
  // quarantine.
  service = MakeService(path);
  ASSERT_TRUE(service->storage_attached());
  EXPECT_TRUE(service->Stats().quarantined_tables.empty());
  ASSERT_OK_AND_ASSIGN(StatementResult after,
                       service->Execute("SELECT A_1 FROM Bad"));
  EXPECT_EQ(after.table->num_rows(), 2u);
  std::remove(csv.c_str());
}

// A materialized view over a quarantined base is quarantined too — its
// recovered contents cannot be trusted and recomputing it against the
// salvaged-empty base would publish silently wrong rows.
TEST(CorruptionRecoveryTest, QuarantineExtendsToDependentViews) {
  std::string path = FreshPath("corrupt_view.db");
  const std::string marker = "VIEW-BASE-ROT-MARKER";
  {
    auto service = MakeService(path);
    ASSERT_OK(service->Execute("CREATE TABLE T(A, B)").status());
    ASSERT_OK(service->Execute("CREATE TABLE U(C, D)").status());
    // VT projects only A values: the marker string must rot T's page alone,
    // so the quarantine VT gets is the transitive kind under test, not its
    // own page failing a checksum.
    ASSERT_OK(service
                  ->Execute("CREATE MATERIALIZED VIEW VT AS "
                            "SELECT A_1, SUM(A_1) FROM T GROUPBY A_1")
                  .status());
    ASSERT_OK(service
                  ->Execute("CREATE MATERIALIZED VIEW VU AS "
                            "SELECT D_1, SUM(C_1) FROM U GROUPBY D_1")
                  .status());
    ASSERT_OK(service
                  ->Execute("INSERT INTO T VALUES (1, '" + marker + "')")
                  .status());
    ASSERT_OK(service->Execute("INSERT INTO U VALUES (3, 30)").status());
    ASSERT_OK(service->Execute("CHECKPOINT").status());
  }
  ASSERT_GE(FlipMarkerBytes(path, marker), 1u);

  auto service = MakeService(path);
  ASSERT_TRUE(service->storage_attached());
  // The base and its dependent view are both quarantined; REFRESH (which
  // would recompute VT from the salvaged-empty base) refuses cleanly.
  Result<StatementResult> refresh = service->Execute("REFRESH VT");
  ASSERT_FALSE(refresh.ok());
  EXPECT_NE(refresh.status().message().find("quarantined"),
            std::string::npos);
  ServiceStats stats = service->Stats();
  std::map<std::string, std::string> quarantined(
      stats.quarantined_tables.begin(), stats.quarantined_tables.end());
  ASSERT_EQ(quarantined.count("T"), 1u);
  ASSERT_EQ(quarantined.count("VT"), 1u);
  EXPECT_NE(quarantined["VT"].find("depends on quarantined table"),
            std::string::npos);
  EXPECT_EQ(quarantined.count("VU"), 0u);
  // The sibling view over the clean base recovered consistent and usable.
  ASSERT_NO_FATAL_FAILURE(CheckViewConsistent(service.get(), "VU"));

  // Repairing the base transitively returns the view to service.
  Table replacement({"A", "B"});
  replacement.AddRowOrDie({Value::Int64(9), Value::String("ok")});
  std::string csv = ::testing::TempDir() + "/aqv_view_repair.csv";
  ASSERT_OK(WriteCsvFile(replacement, csv));
  ASSERT_OK(service->Execute("LOAD T FROM '" + csv + "'").status());
  EXPECT_TRUE(service->Stats().quarantined_tables.empty());
  ASSERT_OK(service->Execute("REFRESH VT").status());
  ASSERT_NO_FATAL_FAILURE(CheckViewConsistent(service.get(), "VT"));
  std::remove(csv.c_str());
}

// REFRESH of a clean view is not blocked by a stored view over it that
// also reads a quarantined table: that dependent is left out of the
// recompute (its reads fail until the repair) and the refresh succeeds.
TEST(CorruptionRecoveryTest, RefreshSkipsQuarantinedDependents) {
  std::string path = FreshPath("corrupt_refresh_dependent.db");
  const std::string marker = "REFRESH-DEPENDENT-ROT-MARKER";
  {
    auto service = MakeService(path);
    ASSERT_OK(service->Execute("CREATE TABLE Q(A, B)").status());
    ASSERT_OK(service->Execute("CREATE TABLE U(C, D)").status());
    ASSERT_OK(service
                  ->Execute("CREATE MATERIALIZED VIEW V AS "
                            "SELECT D_1, SUM(C_1) AS S FROM U GROUPBY D_1")
                  .status());
    // W projects only Q's A values, so the marker rots Q's page alone.
    ASSERT_OK(service
                  ->Execute("CREATE MATERIALIZED VIEW W AS SELECT D_1, "
                            "SUM(A_2) AS N FROM V(D_1, S_1), Q "
                            "WHERE D_1 = A_2 GROUPBY D_1")
                  .status());
    ASSERT_OK(service
                  ->Execute("INSERT INTO Q VALUES (30, '" + marker + "')")
                  .status());
    ASSERT_OK(service->Execute("INSERT INTO U VALUES (3, 30)").status());
    ASSERT_OK(service->Execute("CHECKPOINT").status());
  }
  ASSERT_GE(FlipMarkerBytes(path, marker), 1u);

  auto service = MakeService(path);
  ASSERT_TRUE(service->storage_attached());
  ServiceStats stats = service->Stats();
  std::map<std::string, std::string> quarantined(
      stats.quarantined_tables.begin(), stats.quarantined_tables.end());
  ASSERT_EQ(quarantined.count("Q"), 1u);
  ASSERT_EQ(quarantined.count("W"), 1u);
  ASSERT_EQ(quarantined.count("V"), 0u);

  ServiceSnapshotPtr before = service->PinSnapshot();
  ASSERT_NO_FATAL_FAILURE(CheckViewConsistent(service.get(), "V"));
  ServiceSnapshotPtr after = service->PinSnapshot();
  EXPECT_EQ(after->db.VersionOf("W"), before->db.VersionOf("W"));
  Result<StatementResult> read = service->Execute("SELECT G_1, N_1 FROM W(G_1, N_1)");
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("quarantined"), std::string::npos);
}

// Rot in the MIDDLE of the WAL (intact records beyond the tear): every
// table the log names is quarantined — an acknowledged commit between the
// clean prefix and the survivors is unrecoverable — while tables only the
// checkpoint knows are provably unaffected and stay in service.
TEST(CorruptionRecoveryTest, MidLogWalTearQuarantinesLoggedTables) {
  std::string path = FreshPath("corrupt_midlog.db");
  {
    auto service = MakeService(path);
    ASSERT_OK(service->Execute("CREATE TABLE R(A, B)").status());
    ASSERT_OK(service->Execute("CREATE TABLE S(C, D)").status());
    ASSERT_OK(service->Execute("INSERT INTO S VALUES (7, 70)").status());
    ASSERT_OK(service->Execute("CHECKPOINT").status());
    // Two post-checkpoint commits, both against R only.
    ASSERT_OK(service->Execute("INSERT INTO R VALUES (1, 10)").status());
    ASSERT_OK(service->Execute("INSERT INTO R VALUES (2, 20)").status());
  }
  // Corrupt the FIRST record's payload: the second stays intact beyond
  // the tear, which is mid-log corruption, not a torn tail.
  FlipByteAt(path + ".wal", LogWriter::kRecordHeaderSize + 3);

  auto service = MakeService(path);
  ASSERT_TRUE(service->storage_attached())
      << service->storage_status().ToString();
  Result<StatementResult> r = service->Execute("SELECT A_1 FROM R");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("quarantined"), std::string::npos);
  ASSERT_EQ(service->Stats().quarantined_tables.size(), 1u);
  EXPECT_EQ(service->Stats().quarantined_tables[0].first, "R");
  EXPECT_NE(service->Stats().quarantined_tables[0].second.find("mid-log"),
            std::string::npos);
  // S was checkpointed before the tear: salvaged exactly.
  ASSERT_OK_AND_ASSIGN(StatementResult s,
                       service->Execute("SELECT C_1, D_1 FROM S"));
  EXPECT_EQ(s.table->num_rows(), 1u);

  // The tear's evidence (the suspect WAL tail) was truncated by that very
  // recovery. The quarantine must outlive it: a second restart finds a
  // clean WAL, but the map persisted into the checkpoint directory keeps R
  // erroring instead of silently serving rows missing an acked commit.
  service.reset();
  service = MakeService(path);
  ASSERT_TRUE(service->storage_attached());
  Result<StatementResult> again = service->Execute("SELECT A_1 FROM R");
  ASSERT_FALSE(again.ok());
  EXPECT_NE(again.status().message().find("quarantined"), std::string::npos);
  ASSERT_EQ(service->Stats().quarantined_tables.size(), 1u);
  EXPECT_EQ(service->Stats().quarantined_tables[0].first, "R");

  // LOAD is still the repair path, and the repair itself is durable.
  Table fixed({"A", "B"});
  fixed.AddRowOrDie({Value::Int64(1), Value::Int64(10)});
  fixed.AddRowOrDie({Value::Int64(2), Value::Int64(20)});
  std::string csv = ::testing::TempDir() + "/aqv_midlog_repair.csv";
  ASSERT_OK(WriteCsvFile(fixed, csv));
  ASSERT_OK(service->Execute("LOAD R FROM '" + csv + "'").status());
  std::remove(csv.c_str());
  EXPECT_TRUE(service->Stats().quarantined_tables.empty());
  service.reset();
  service = MakeService(path);
  ASSERT_TRUE(service->storage_attached());
  EXPECT_TRUE(service->Stats().quarantined_tables.empty());
  ASSERT_OK_AND_ASSIGN(StatementResult repaired,
                       service->Execute("SELECT A_1, B_1 FROM R"));
  EXPECT_EQ(repaired.table->num_rows(), 2u);
}

// Rot in the LAST WAL record is indistinguishable from a kill mid-append:
// torn-tail semantics (the record is dropped silently), no quarantine.
TEST(CorruptionRecoveryTest, WalTailRotIsTornTailNotQuarantine) {
  std::string path = FreshPath("corrupt_tail.db");
  {
    auto service = MakeService(path);
    ASSERT_OK(service->Execute("CREATE TABLE R(A, B)").status());
    ASSERT_OK(service->Execute("INSERT INTO R VALUES (1, 10)").status());
    ASSERT_OK(service->Execute("CHECKPOINT").status());
    ASSERT_OK(service->Execute("INSERT INTO R VALUES (2, 20)").status());
  }
  FlipByteAt(path + ".wal", LogWriter::kRecordHeaderSize + 3);

  auto service = MakeService(path);
  ASSERT_TRUE(service->storage_attached());
  EXPECT_TRUE(service->Stats().quarantined_tables.empty());
  ASSERT_OK_AND_ASSIGN(StatementResult r,
                       service->Execute("SELECT A_1, B_1 FROM R"));
  EXPECT_EQ(r.table->num_rows(), 1u);  // the checkpointed row only
  // The service is fully healthy: writes work and are durable.
  ASSERT_OK(service->Execute("INSERT INTO R VALUES (3, 30)").status());
  service.reset();
  service = MakeService(path);
  ASSERT_OK_AND_ASSIGN(StatementResult after,
                       service->Execute("SELECT A_1, B_1 FROM R"));
  EXPECT_EQ(after.table->num_rows(), 2u);
}

// SCRUB detects on-disk rot that cached frames would mask, recommends
// CHECKPOINT, and the checkpoint (rewriting every data page from the live
// in-memory copy) heals it — no restart, no quarantine.
TEST(CorruptionRecoveryTest, ScrubStatementReportsAndCheckpointHeals) {
  std::string path = FreshPath("corrupt_scrub.db");
  const std::string marker = "SCRUB-STATEMENT-MARKER";
  auto service = MakeService(path);
  ASSERT_OK(service->Execute("CREATE TABLE T(A, B)").status());
  ASSERT_OK(service
                ->Execute("INSERT INTO T VALUES (1, '" + marker + "')")
                .status());
  ASSERT_OK(service->Execute("CHECKPOINT").status());

  ASSERT_OK_AND_ASSIGN(StatementResult clean, service->Execute("SCRUB"));
  EXPECT_NE(clean.message.find("all clean"), std::string::npos);

  ASSERT_GE(FlipMarkerBytes(path, marker), 1u);
  ASSERT_OK_AND_ASSIGN(StatementResult dirty, service->Execute("SCRUB"));
  EXPECT_NE(dirty.message.find("<-- damaged"), std::string::npos);
  EXPECT_NE(dirty.message.find("run CHECKPOINT"), std::string::npos);

  ASSERT_OK(service->Execute("CHECKPOINT").status());
  ASSERT_OK_AND_ASSIGN(StatementResult healed, service->Execute("SCRUB"));
  EXPECT_NE(healed.message.find("all clean"), std::string::npos);

  // The heal is real, not cosmetic: a restart recovers with no quarantine.
  service.reset();
  service = MakeService(path);
  ASSERT_TRUE(service->storage_attached());
  EXPECT_TRUE(service->Stats().quarantined_tables.empty());
  ASSERT_OK_AND_ASSIGN(StatementResult r,
                       service->Execute("SELECT A_1 FROM T"));
  EXPECT_EQ(r.table->num_rows(), 1u);
}

// Seeded single-byte rot at a random spot in the db file (meta pages
// excluded — losing the commit pointer is beyond salvage by design): the
// service must either refuse to open, or open with each table either
// exactly intact or cleanly quarantined. Never a crash, never wrong rows.
TEST(CorruptionRecoveryTest, RandomizedSinglePageRotSweep) {
  const uint64_t seed = TestSeed(20260809);
  SCOPED_TRACE(SeedTrace(seed));
  std::mt19937_64 rng(seed);

  std::string path = FreshPath("corrupt_random.db");
  Table r_rows({"A", "B"}), s_rows({"C", "D"});
  {
    auto service = MakeService(path);
    ASSERT_OK(service->Execute("CREATE TABLE R(A, B)").status());
    ASSERT_OK(service->Execute("CREATE TABLE S(C, D)").status());
    for (int i = 0; i < 40; ++i) {
      ASSERT_OK(service
                    ->Execute("INSERT INTO R VALUES (" + std::to_string(i) +
                              ", " + std::to_string(i * 10) + ")")
                    .status());
      r_rows.AddRowOrDie({Value::Int64(i), Value::Int64(i * 10)});
    }
    ASSERT_OK(service->Execute("INSERT INTO S VALUES (1, 2)").status());
    s_rows.AddRowOrDie({Value::Int64(1), Value::Int64(2)});
    ASSERT_OK(service->Execute("CHECKPOINT").status());
  }
  std::ifstream in(path, std::ios::binary);
  std::string pristine((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  const uint64_t pages = pristine.size() / Page::kPageSize;
  ASSERT_GE(pages, 3u);

  for (int round = 0; round < 10 && !HasFatalFailure(); ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(pristine.data(), pristine.size());
    out.close();
    uint64_t page = 2 + rng() % (pages - 2);
    uint64_t offset = page * Page::kPageSize + rng() % Page::kPageSize;
    FlipByteAt(path, offset);

    auto service = MakeService(path);
    if (!service->storage_attached()) continue;  // directory rot: refused
    for (const auto& [table, want] :
         {std::pair<std::string, const Table*>{"R", &r_rows},
          std::pair<std::string, const Table*>{"S", &s_rows}}) {
      Result<StatementResult> got = service->Execute(
          "SELECT " + want->columns()[0] + "_1, " + want->columns()[1] +
          "_1 FROM " + table);
      if (got.ok()) {
        EXPECT_TRUE(MultisetEqual(*got->table, *want))
            << "table " << table << " served wrong rows after rot";
      } else {
        EXPECT_NE(got.status().message().find("quarantined"),
                  std::string::npos)
            << "table " << table
            << " failed without quarantine: " << got.status().ToString();
      }
    }
  }
}

// ---------------------------------------------------------------------
// Auto-checkpoint, group commit, and backpressure.
// ---------------------------------------------------------------------

// The background checkpointer fires once the commit threshold is crossed
// and truncates the WAL, so the post-restart replay is bounded — and the
// recovered contents are identical to the no-auto-checkpoint world.
TEST(RecoveryTest, AutoCheckpointTriggersAndCommutesWithRecovery) {
  std::string path = FreshPath("auto_ckpt.db");
  ServiceOptions options;
  options.storage_path = path;
  options.storage_auto_checkpoint_commits = 4;
  Oracle oracle;
  auto service = std::make_unique<QueryService>(options);
  ASSERT_NO_FATAL_FAILURE(Bootstrap(service.get(), &oracle));

  for (int i = 0; i < 6; ++i) {
    std::vector<Row> rows = {
        {Value::Int64(100 + i), Value::Int64(i)}};
    ASSERT_OK(service->Execute(InsertSql("R", rows)).status());
    oracle.Ack("R", rows);
  }
  ASSERT_TRUE(WaitFor([&] {
    return service->Stats().storage_auto_checkpoints >= 1;
  })) << "auto-checkpoint never fired past the 4-commit threshold";
  service.reset();  // the crash

  service = std::make_unique<QueryService>(options);
  ASSERT_NO_FATAL_FAILURE(CheckRecovered(service.get(), &oracle));
  // The checkpoint swallowed (at least) everything before its trigger.
  EXPECT_LE(service->Stats().storage_wal_replayed, 6u);
}

// Kill at the instant auto-checkpoint decides to run (the checkpoint.auto
// failpoint fires before the quiesce): the checkpoint simply never
// happens, and recovery replays the full WAL to the identical state —
// auto-checkpoint commutes with crash recovery.
TEST(RecoveryTest, KillAtAutoCheckpointTrigger) {
  std::string path = FreshPath("auto_ckpt_kill.db");
  ServiceOptions options;
  options.storage_path = path;
  options.storage_auto_checkpoint_commits = 2;
  Oracle oracle;
  {
    FailpointScope fp("checkpoint.auto", "error");
    ASSERT_TRUE(fp.armed());
    auto service = std::make_unique<QueryService>(options);
    ASSERT_NO_FATAL_FAILURE(Bootstrap(service.get(), &oracle));
    std::vector<Row> rows = {{Value::Int64(50), Value::Int64(500)}};
    ASSERT_OK(service->Execute(InsertSql("R", rows)).status());
    oracle.Ack("R", rows);
    // Give the checkpointer time to trip over the failpoint (and retry);
    // it must record the error rather than checkpoint.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    EXPECT_EQ(service->Stats().storage_auto_checkpoints, 0u);
    service.reset();  // killed at the trigger: no checkpoint ever ran
  }
  auto service = std::make_unique<QueryService>(options);
  ASSERT_NO_FATAL_FAILURE(CheckRecovered(service.get(), &oracle));
  // The full post-bootstrap WAL replayed — nothing was checkpointed away.
  EXPECT_GE(service->Stats().storage_wal_replayed, 3u);
}

// A group-commit leader dying at the fsync is the wal.fsync story writ
// large: the batch was written but never acknowledged, so it either
// replays atomically or vanishes.
TEST(RecoveryTest, KillAtGroupCommitLeaderFsync) {
  std::string path = FreshPath("kill_group_leader.db");
  Oracle oracle;
  auto service = MakeService(path);
  ASSERT_NO_FATAL_FAILURE(Bootstrap(service.get(), &oracle));

  std::vector<Row> doomed = {{Value::Int64(60), Value::Int64(600)}};
  {
    FailpointScope fp("wal.group_leader", "error");
    ASSERT_TRUE(fp.armed());
    EXPECT_FALSE(service->Execute(InsertSql("R", doomed)).ok());
  }
  oracle.SetPending("R", doomed);
  // Fail-stop: nothing more can commit before the "kill".
  EXPECT_FALSE(service->Execute("INSERT INTO R VALUES (98, 98)").ok());
  service.reset();

  service = MakeService(path);
  ASSERT_NO_FATAL_FAILURE(CheckRecovered(service.get(), &oracle));
}

// Concurrent writers through the full service stack with group commit on
// and the auto-checkpointer racing them, then a crash: every acknowledged
// row from every thread survives.
TEST(RecoveryTest, GroupCommitMultiWriterSurvivesCrash) {
  std::string path = FreshPath("group_multiwriter.db");
  ServiceOptions options;
  options.storage_path = path;
  options.storage_auto_checkpoint_commits = 8;  // churn during the run
  constexpr int kThreads = 4;
  constexpr int kCommitsPerThread = 10;

  auto service = std::make_unique<QueryService>(options);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_OK(service
                  ->Execute("CREATE TABLE W" + std::to_string(t) + "(A, B)")
                  .status());
  }
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&service, t] {
      for (int i = 0; i < kCommitsPerThread; ++i) {
        std::string sql = "INSERT INTO W" + std::to_string(t) + " VALUES (" +
                          std::to_string(i) + ", " + std::to_string(t) + ")";
        ASSERT_OK(service->Execute(sql).status());
      }
    });
  }
  for (std::thread& w : writers) w.join();
  ASSERT_FALSE(HasFatalFailure());
  service.reset();  // crash with no shutdown checkpoint

  service = std::make_unique<QueryService>(options);
  ASSERT_TRUE(service->storage_attached());
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_OK_AND_ASSIGN(
        StatementResult got,
        service->Execute("SELECT A_1, B_1 FROM W" + std::to_string(t)));
    EXPECT_EQ(got.table->num_rows(), static_cast<size_t>(kCommitsPerThread))
        << "writer " << t << " lost acknowledged commits";
  }
}

// With the WAL pinned over the backpressure cap and nothing able to
// checkpoint, a writer waits out its bounded deadline and then gets the
// clean SERVER_BUSY refusal — not an unbounded stall, not a crash.
TEST(RecoveryTest, BackpressureRefusesWhenCheckpointerCannotCatchUp) {
  std::string path = FreshPath("backpressure_busy.db");
  ServiceOptions options;
  options.storage_path = path;
  options.storage_backpressure_wal_bytes = 1;  // any commit is over the cap
  options.storage_backpressure_wait_micros = 50'000;
  // No auto-checkpoint triggers armed: the checkpointer can never relieve
  // the pressure, so the deadline must fire.
  options.storage_auto_checkpoint_wal_bytes = 0;
  options.storage_auto_checkpoint_commits = 0;

  auto service = std::make_unique<QueryService>(options);
  ASSERT_OK(service->Execute("CREATE TABLE R(A, B)").status());
  ASSERT_OK(service
                ->Execute("CREATE MATERIALIZED VIEW VR AS "
                          "SELECT A_1, SUM(B_1) AS S FROM R GROUPBY A_1")
                .status());
  ASSERT_OK(service->Execute("INSERT INTO R VALUES (1, 10)").status());

  Result<StatementResult> busy = service->Execute("INSERT INTO R VALUES (2, 20)");
  ASSERT_FALSE(busy.ok());
  EXPECT_EQ(busy.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(busy.status().message().find("SERVER_BUSY"), std::string::npos);
  EXPECT_GE(service->Stats().storage_backpressure_waits, 1u);

  // A LOAD that replaces R is a write like any other: the same gate refuses
  // it and R keeps its rows.
  Table replacement({"A", "B"});
  replacement.AddRowOrDie({Value::Int64(7), Value::Int64(70)});
  std::string csv = ::testing::TempDir() + "/aqv_backpressure_load.csv";
  ASSERT_OK(WriteCsvFile(replacement, csv));
  Result<StatementResult> busy_load =
      service->Execute("LOAD R FROM '" + csv + "'");
  std::remove(csv.c_str());
  ASSERT_FALSE(busy_load.ok());
  EXPECT_EQ(busy_load.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(busy_load.status().message().find("SERVER_BUSY"),
            std::string::npos);
  ASSERT_OK_AND_ASSIGN(StatementResult kept,
                       service->Execute("SELECT A_1, B_1 FROM R"));
  Table original({"A", "B"});
  original.AddRowOrDie({Value::Int64(1), Value::Int64(10)});
  EXPECT_TRUE(MultisetEqual(*kept.table, original));
  // REFRESH logs nothing, so the gate does not hold it back.
  ASSERT_OK(service->Execute("REFRESH VR").status());

  // A manual CHECKPOINT truncates the WAL and lets writers through again.
  ASSERT_OK(service->Execute("CHECKPOINT").status());
  ASSERT_OK(service->Execute("INSERT INTO R VALUES (2, 20)").status());
}

// With an auto-checkpoint trigger armed, the same stalled writer is
// released by the background checkpointer instead of refused.
TEST(RecoveryTest, BackpressureRelievedByAutoCheckpoint) {
  std::string path = FreshPath("backpressure_relief.db");
  ServiceOptions options;
  options.storage_path = path;
  options.storage_backpressure_wal_bytes = 1;
  options.storage_backpressure_wait_micros = 10'000'000;  // 10 s: never hit
  options.storage_auto_checkpoint_commits = 1;

  auto service = std::make_unique<QueryService>(options);
  ASSERT_OK(service->Execute("CREATE TABLE R(A, B)").status());
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK(service
                  ->Execute("INSERT INTO R VALUES (" + std::to_string(i) +
                            ", 0)")
                  .status());
  }
  EXPECT_TRUE(WaitFor([&] {
    return service->Stats().storage_auto_checkpoints >= 1;
  }));
  ASSERT_OK_AND_ASSIGN(StatementResult got,
                       service->Execute("SELECT A_1 FROM R"));
  EXPECT_EQ(got.table->num_rows(), 4u);
}

// Oversized rows are refused when they arrive — at INSERT and LOAD time,
// with a clear row-size error — not deferred to the next CHECKPOINT; and
// rows under the cap but far beyond one page chain through overflow pages
// and survive a crash.
TEST(RecoveryTest, OversizedRowRefusedAtStatementTime) {
  std::string path = FreshPath("oversized_row.db");
  auto service = MakeService(path);
  ASSERT_OK(service->Execute("CREATE TABLE T(A, B)").status());

  // Far over the 1 MiB encoded-row cap: refused cleanly at INSERT. (The
  // statement-length cap — the same 1 MiB — fires first for literal SQL
  // this large; either way the refusal is a clean size-limit error, never
  // a deferred CHECKPOINT failure.)
  std::string huge(StorageEngine::kMaxRowBytes + 100, 'x');
  Result<StatementResult> refused =
      service->Execute("INSERT INTO T VALUES (1, '" + huge + "')");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.status().message().find("limit"), std::string::npos);

  // Refused at LOAD too, leaving the table untouched.
  Table bad({"A", "B"});
  bad.AddRowOrDie({Value::Int64(1), Value::String(huge)});
  std::string csv = ::testing::TempDir() + "/aqv_oversized.csv";
  ASSERT_OK(WriteCsvFile(bad, csv));
  Result<StatementResult> load_refused =
      service->Execute("LOAD T FROM '" + csv + "'");
  ASSERT_FALSE(load_refused.ok());
  EXPECT_NE(
      load_refused.status().message().find("exceeds the storage row limit"),
      std::string::npos);
  std::remove(csv.c_str());

  // A multi-page (but under-cap) row is accepted, checkpoints through the
  // overflow chain, and survives a crash plus restart.
  std::string big(3 * Page::kMaxRecordSize + 17, 'y');
  ASSERT_OK(
      service->Execute("INSERT INTO T VALUES (2, '" + big + "')").status());
  ASSERT_OK(service->Execute("CHECKPOINT").status());
  ASSERT_OK(
      service->Execute("INSERT INTO T VALUES (3, '" + big + "')").status());
  service.reset();  // crash: the second big row lives only in the WAL

  service = MakeService(path);
  ASSERT_OK_AND_ASSIGN(StatementResult got,
                       service->Execute("SELECT A_1, B_1 FROM T"));
  ASSERT_EQ(got.table->num_rows(), 2u);
  for (const Row& row : got.table->rows()) {
    EXPECT_EQ(row[1], Value::String(big));
  }
}

// ---------------------------------------------------------------------
// Randomized kill-recover chaos sweep (seeded; replay with AQV_TEST_SEED).
// ---------------------------------------------------------------------

TEST(RecoveryTest, RandomizedKillRecoverSweep) {
  const uint64_t seed = TestSeed(20260808);
  SCOPED_TRACE(SeedTrace(seed));
  std::mt19937_64 rng(seed);

  std::string path = FreshPath("chaos_sweep.db");
  Oracle oracle;
  auto service = MakeService(path);
  ASSERT_NO_FATAL_FAILURE(Bootstrap(service.get(), &oracle));

  const std::vector<std::string> tables = {"R", "S"};
  const std::vector<std::string> faults = {"wal.append", "wal.fsync",
                                           "page.flush"};
  int64_t next_key = 1000;

  for (int round = 0; round < 12 && !HasFatalFailure(); ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    // A burst of acknowledged work: inserts, the odd checkpoint.
    int ops = 1 + static_cast<int>(rng() % 4);
    for (int op = 0; op < ops; ++op) {
      if (rng() % 5 == 0) {
        ASSERT_OK(service->Execute("CHECKPOINT").status());
        continue;
      }
      const std::string& table = tables[rng() % tables.size()];
      std::vector<Row> rows;
      int n = 1 + static_cast<int>(rng() % 3);
      for (int i = 0; i < n; ++i) {
        rows.push_back({Value::Int64(next_key++),
                        Value::Int64(static_cast<int64_t>(rng() % 1000))});
      }
      ASSERT_OK(service->Execute(InsertSql(table, rows)).status());
      oracle.Ack(table, rows);
    }

    // Kill: two thirds of rounds die at a random storage failpoint with a
    // commit in flight, the rest crash between statements.
    if (rng() % 3 != 2) {
      const std::string& fault = faults[rng() % faults.size()];
      FailpointScope fp(fault, "error");
      ASSERT_TRUE(fp.armed());
      if (fault == "page.flush") {
        EXPECT_FALSE(service->Execute("CHECKPOINT").ok());
      } else {
        const std::string& table = tables[rng() % tables.size()];
        std::vector<Row> doomed = {
            {Value::Int64(next_key++),
             Value::Int64(static_cast<int64_t>(rng() % 1000))}};
        EXPECT_FALSE(service->Execute(InsertSql(table, doomed)).ok());
        oracle.SetPending(table, doomed);
      }
    }
    service.reset();

    // Occasionally the first recovery attempt itself dies (the fault only
    // fires when the WAL tail is non-empty); either way the retry below
    // must succeed on the same (read-only-so-far) files.
    if (rng() % 4 == 0) {
      FailpointScope fp("recovery.replay", "error");
      auto maybe_failed = MakeService(path);
      if (maybe_failed->storage_attached()) {
        // It can only have attached by replaying nothing.
        EXPECT_EQ(maybe_failed->Stats().storage_wal_replayed, 0u);
      }
    }
    service = MakeService(path);
    ASSERT_NO_FATAL_FAILURE(CheckRecovered(service.get(), &oracle));
  }
}

}  // namespace
}  // namespace aqv
