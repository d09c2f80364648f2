// Concurrency stress for the striped-latch query service (PR 3): M writer
// threads append to private tables while N reader threads pin snapshots —
// half through the BEGIN SNAPSHOT / COMMIT statement dialect, half through
// the typed PinSnapshot()/Select(sql, snapshot) API — and verify that every
// read inside one snapshot comes from a single epoch:
//
//   - stability: two full passes over all tables inside one snapshot agree
//     exactly (a concurrent writer can never tear a pinned read);
//   - integrity: each table's pinned contents are a prefix of its writer's
//     append sequence (A = 0..n-1 exactly once, B = writer id);
//   - monotonicity: a reader's successive snapshots never lose rows, and
//     typed snapshots' epochs never decrease;
//   - read-only: writes and DDL inside BEGIN SNAPSHOT are rejected.
//
// Run under AQV_SANITIZE=thread in CI (ctest label "stress"); TSan covers
// the data-race half of the contract, these assertions the logical half.
//
// PR 8: every concurrency suite runs twice, with ServiceOptions::vectorized
// on and off, so the columnar engine (including its lazily built, shared
// per-table image — a once-flag race under TSan) faces the same hammering
// as the row engine.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/failpoint.h"
#include "exec/evaluator.h"
#include "exec/table.h"
#include "parser/parser.h"
#include "service/query_service.h"
#include "tests/test_util.h"

namespace aqv {
namespace {

constexpr int kWriters = 4;
constexpr int kReaders = 4;
constexpr int kInsertsPerWriter = 100;

std::string TableName(int w) { return "W" + std::to_string(w); }

std::unique_ptr<QueryService> MakeStressService(ServiceOptions options) {
  auto service = std::make_unique<QueryService>(options);
  for (int w = 0; w < kWriters; ++w) {
    Result<StatementResult> r =
        service->Execute("CREATE TABLE " + TableName(w) + "(A, B)");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  return service;
}

/// Names the engine arm of a parameterized suite: true = vectorized.
std::string EngineName(const ::testing::TestParamInfo<bool>& info) {
  return info.param ? "vectorized" : "row";
}

/// Checks that `t` is a prefix of writer `w`'s append sequence: rows are
/// (0, w) .. (n-1, w) as a bag. Returns an empty string when consistent.
std::string CheckPrefix(const Table& t, int w) {
  std::vector<bool> seen(t.num_rows(), false);
  for (const Row& row : t.rows()) {
    if (row.size() != 2) return "row arity != 2";
    if (!(row[1] == Value::Int64(w))) {
      return "foreign row in " + TableName(w) + ": B=" + row[1].ToString();
    }
    if (!row[0].is_numeric()) return "non-numeric A";
    int64_t a = static_cast<int64_t>(row[0].AsDouble());
    if (a < 0 || a >= static_cast<int64_t>(t.num_rows())) {
      return "torn table " + TableName(w) + ": A=" + std::to_string(a) +
             " outside prefix of " + std::to_string(t.num_rows()) + " rows";
    }
    if (seen[static_cast<size_t>(a)]) {
      return "duplicate A=" + std::to_string(a) + " in " + TableName(w);
    }
    seen[static_cast<size_t>(a)] = true;
  }
  return "";
}

class ServiceStressTest : public ::testing::TestWithParam<bool> {};

TEST_P(ServiceStressTest, SnapshotReadersSeeSingleEpochWhileWritersRun) {
  ServiceOptions stress_options;
  stress_options.vectorized = GetParam();
  std::unique_ptr<QueryService> service = MakeStressService(stress_options);
  std::atomic<int> writers_running{kWriters};
  std::atomic<int> failures{0};
  std::vector<std::string> errors(kWriters + kReaders);

  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kInsertsPerWriter; ++i) {
        Result<StatementResult> r = service->Execute(
            "INSERT INTO " + TableName(w) + " VALUES (" + std::to_string(i) +
            ", " + std::to_string(w) + ")");
        if (!r.ok()) {
          errors[w] += "insert failed: " + r.status().ToString() + "\n";
          failures.fetch_add(1);
          break;
        }
      }
      writers_running.fetch_sub(1);
    });
  }

  for (int rdr = 0; rdr < kReaders; ++rdr) {
    threads.emplace_back([&, rdr] {
      const bool use_dialect = (rdr % 2) == 0;
      auto fail = [&](const std::string& msg) {
        errors[kWriters + rdr] += msg + "\n";
        failures.fetch_add(1);
      };
      auto read_all = [&](const ServiceSnapshot* snap,
                          std::vector<Table>* out) -> bool {
        for (int w = 0; w < kWriters; ++w) {
          std::string sql = "SELECT A_1, B_1 FROM " + TableName(w);
          Result<Table> t = snap != nullptr ? service->Select(sql, *snap)
                                            : service->Select(sql);
          if (!t.ok()) {
            fail("snapshot select failed: " + t.status().ToString());
            return false;
          }
          out->push_back(*std::move(t));
        }
        return true;
      };

      std::vector<size_t> prev_counts(kWriters, 0);
      uint64_t prev_epoch = 0;
      bool rejected_write_checked = false;
      // Keep pinning until the writers are done, then one final snapshot
      // that must observe every table complete.
      while (true) {
        bool final_round = writers_running.load() == 0;
        ServiceSnapshotPtr snap;
        if (use_dialect) {
          Result<StatementResult> begin = service->Execute("BEGIN SNAPSHOT");
          if (!begin.ok()) {
            fail("BEGIN SNAPSHOT failed: " + begin.status().ToString());
            break;
          }
        } else {
          snap = service->PinSnapshot();
          if (snap->epoch < prev_epoch) {
            fail("epoch went backwards: " + std::to_string(snap->epoch) +
                 " < " + std::to_string(prev_epoch));
          }
          prev_epoch = snap->epoch;
        }

        std::vector<Table> pass1, pass2;
        if (!read_all(snap.get(), &pass1) || !read_all(snap.get(), &pass2)) {
          break;
        }
        for (int w = 0; w < kWriters; ++w) {
          if (!MultisetEqual(pass1[w], pass2[w])) {
            fail("unstable snapshot read of " + TableName(w) + ": " +
                 DescribeMultisetDifference(pass1[w], pass2[w]));
          }
          std::string integrity = CheckPrefix(pass1[w], w);
          if (!integrity.empty()) fail(integrity);
          if (pass1[w].num_rows() < prev_counts[w]) {
            fail("rows lost across snapshots of " + TableName(w) + ": " +
                 std::to_string(pass1[w].num_rows()) + " < " +
                 std::to_string(prev_counts[w]));
          }
          prev_counts[w] = pass1[w].num_rows();
        }

        if (use_dialect) {
          if (!rejected_write_checked) {
            rejected_write_checked = true;
            if (service->Execute("INSERT INTO W0 VALUES (0, 0)").ok()) {
              fail("write inside BEGIN SNAPSHOT was not rejected");
            }
          }
          Result<StatementResult> commit = service->Execute("COMMIT");
          if (!commit.ok()) {
            fail("COMMIT failed: " + commit.status().ToString());
            break;
          }
        }
        if (final_round) {
          for (int w = 0; w < kWriters; ++w) {
            if (pass1[w].num_rows() != kInsertsPerWriter) {
              fail("final snapshot of " + TableName(w) + " saw " +
                   std::to_string(pass1[w].num_rows()) + "/" +
                   std::to_string(kInsertsPerWriter) + " rows");
            }
          }
          break;
        }
      }
    });
  }

  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0) << [&] {
    std::string all;
    for (const std::string& e : errors) all += e;
    return all;
  }();

  ServiceStats stats = service->Stats();
  EXPECT_GT(stats.snapshots_pinned, 0u);
  EXPECT_GT(stats.snapshot_reads, 0u);
  EXPECT_EQ(stats.latch_stripes, LatchManager::kDefaultStripes);
}

INSTANTIATE_TEST_SUITE_P(Engines, ServiceStressTest, ::testing::Bool(),
                         EngineName);

// Chaos under concurrency (PR 4): writers and readers hammer the service
// while probabilistic failpoints inject errors and delays into the COW
// copy, the evaluator, and the plan cache, with admission control capping
// the in-flight count. The contract under test:
//
//   - every failed statement returns a clean kUnavailable (injected or
//     SERVER_BUSY), never a crash, torn write or held latch;
//   - writes are atomic: after the dust settles, each table contains
//     exactly the rows whose INSERT statements reported success;
//   - reads that succeed mid-chaos are internally consistent (no foreign
//     or duplicate rows).
//
// Runs in CI under ThreadSanitizer via the "chaos" label.
class ServiceChaosStressTest : public ::testing::TestWithParam<bool> {};

TEST_P(ServiceChaosStressTest, InjectedFaultsNeverTearStateOrWedgeService) {
  ServiceOptions options;
  options.max_concurrent_statements = 6;
  options.admission_wait_micros = 2000;
  options.vectorized = GetParam();
  auto service = std::make_unique<QueryService>(options);
  for (int w = 0; w < kWriters; ++w) {
    ASSERT_OK(
        service->Execute("CREATE TABLE " + TableName(w) + "(A, B)").status());
  }
  // PR 5: a materialized view over W0 pulls the write path's maintenance
  // sites into the chaos run. A maintain.apply fault must fail the INSERT
  // cleanly with nothing published — the atomicity audit below covers W0
  // like every other table.
  ASSERT_OK(service
                ->Execute("CREATE MATERIALIZED VIEW W0V AS SELECT A_1, "
                          "SUM(B_1) AS S, COUNT(B_1) AS N FROM W0 "
                          "GROUPBY A_1")
                .status());

  struct DisarmOnExit {
    ~DisarmOnExit() { FailpointRegistry::Global().ClearAll(); }
  } disarm;
  FailpointRegistry& reg = FailpointRegistry::Global();
  ASSERT_OK(reg.Set("table.cow_copy", "error(15)"));
  ASSERT_OK(reg.Set("maintain.apply", "error(10)"));
  ASSERT_OK(reg.Set("exec.operator", "error(10)"));
  ASSERT_OK(reg.Set("plan_cache.lookup", "error(20)"));
  ASSERT_OK(reg.Set("plan_cache.insert", "error(20)"));
  ASSERT_OK(reg.Set("parse", "delay(50,30)"));
  reg.Reseed(TestSeed(16000));

  std::atomic<int> violations{0};
  std::vector<std::string> errors(kWriters + kReaders);
  std::vector<std::vector<bool>> landed(
      kWriters, std::vector<bool>(kInsertsPerWriter, false));
  std::atomic<int> writers_running{kWriters};

  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kInsertsPerWriter; ++i) {
        Result<StatementResult> r = service->Execute(
            "INSERT INTO " + TableName(w) + " VALUES (" + std::to_string(i) +
            ", " + std::to_string(w) + ")");
        if (r.ok()) {
          landed[w][i] = true;
        } else if (r.status().code() != StatusCode::kUnavailable) {
          errors[w] += "unclean insert failure: " + r.status().ToString() +
                       "\n";
          violations.fetch_add(1);
        }
      }
      writers_running.fetch_sub(1);
    });
  }
  for (int rdr = 0; rdr < kReaders; ++rdr) {
    threads.emplace_back([&, rdr] {
      while (writers_running.load() > 0) {
        for (int w = 0; w < kWriters; ++w) {
          Result<Table> t =
              service->Select("SELECT A_1, B_1 FROM " + TableName(w));
          if (!t.ok()) {
            if (t.status().code() != StatusCode::kUnavailable) {
              errors[kWriters + rdr] +=
                  "unclean select failure: " + t.status().ToString() + "\n";
              violations.fetch_add(1);
            }
            continue;
          }
          // A successful chaos read sees only well-formed rows: writer w's
          // values, each at most once (COW means no torn appends).
          std::string integrity = CheckPrefix(*t, w);
          // CheckPrefix's range check assumes gap-free prefixes; failed
          // inserts leave gaps, so only flag structural violations.
          if (!integrity.empty() &&
              integrity.find("outside prefix") == std::string::npos) {
            errors[kWriters + rdr] += integrity + "\n";
            violations.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Disarm through the statement interface (also exercising it under a
  // just-hammered service), then audit atomicity: each table holds exactly
  // the rows whose INSERTs succeeded.
  ASSERT_OK(service->Execute("FAILPOINT CLEAR").status());
  for (int w = 0; w < kWriters; ++w) {
    ASSERT_OK_AND_ASSIGN(
        Table t, service->Select("SELECT A_1, B_1 FROM " + TableName(w)));
    std::vector<bool> present(kInsertsPerWriter, false);
    for (const Row& row : t.rows()) {
      ASSERT_EQ(row.size(), 2u);
      int64_t a = static_cast<int64_t>(row[0].AsDouble());
      ASSERT_GE(a, 0);
      ASSERT_LT(a, kInsertsPerWriter);
      EXPECT_FALSE(present[static_cast<size_t>(a)])
          << "duplicate row " << a << " in " << TableName(w);
      present[static_cast<size_t>(a)] = true;
    }
    for (int i = 0; i < kInsertsPerWriter; ++i) {
      EXPECT_EQ(present[i], landed[w][i])
          << TableName(w) << " row " << i
          << (landed[w][i] ? " acked but missing (lost write)"
                           : " present but failed (torn write)");
    }
  }
  EXPECT_EQ(violations.load(), 0) << [&] {
    std::string all;
    for (const std::string& e : errors) all += e;
    return all;
  }();
  // The chaos actually bit: some statements failed and were counted.
  ServiceStats stats = service->Stats();
  uint64_t unavailable = 0;
  for (const auto& [code, count] : stats.errors_by_code) {
    if (code == "unavailable") unavailable = count;
  }
  EXPECT_GT(unavailable, 0u) << stats.ToString();
}

INSTANTIATE_TEST_SUITE_P(Engines, ServiceChaosStressTest, ::testing::Bool(),
                         EngineName);

// Write-path freshness under concurrency (PR 5): writer threads INSERT into
// one shared table with a materialized SUM/COUNT view over it — single-row
// statements, multi-row statements, and BEGIN WRITE..COMMIT batches — while
// reader threads pin snapshots and verify, inside every snapshot:
//
//   - epoch coupling: VersionOf(T) <= VersionOf(TV) — the batched PutAll
//     can never publish the base table ahead of its dependent view;
//   - freshness: the STORED view contents in the snapshot equal the
//     aggregate recomputed from the snapshot's own base table by a plain
//     evaluator (no optimizer, no rewriting, no circularity);
//
// and, after the dust settles, the live view holds the full aggregate with
// no REFRESH ever issued.
class ServiceWriteStressTest : public ::testing::TestWithParam<bool> {};

TEST_P(ServiceWriteStressTest, MaintainedViewStaysCoupledToItsBaseTable) {
  constexpr int kWriteWriters = 3;
  constexpr int kSnapshotReaders = 3;
  constexpr int kStatementsPerWriter = 60;  // 5 rows per 3 statements

  ServiceOptions write_options;
  write_options.vectorized = GetParam();
  auto service = std::make_unique<QueryService>(write_options);
  ASSERT_OK(service->Execute("CREATE TABLE T(A, B)").status());
  ASSERT_OK(service
                ->Execute("CREATE MATERIALIZED VIEW TV AS SELECT A_1, "
                          "SUM(B_1) AS S, COUNT(B_1) AS N FROM T GROUPBY A_1")
                .status());
  // The reader's oracle, evaluated directly against each snapshot's base
  // table (paper notation binds the columns without the catalog).
  ASSERT_OK_AND_ASSIGN(
      Query aggregate,
      ParseQuery("SELECT A1, SUM(B1) AS S, COUNT(B1) AS N FROM T(A1, B1) "
                 "GROUPBY A1"));

  std::atomic<int> writers_running{kWriteWriters};
  std::atomic<int> failures{0};
  std::vector<std::string> errors(kWriteWriters + kSnapshotReaders);

  std::vector<std::thread> threads;
  threads.reserve(kWriteWriters + kSnapshotReaders);
  for (int w = 0; w < kWriteWriters; ++w) {
    threads.emplace_back([&, w] {
      auto run = [&](const std::string& stmt) {
        Result<StatementResult> r = service->Execute(stmt);
        if (!r.ok()) {
          errors[w] += "write failed: " + r.status().ToString() + "\n";
          failures.fetch_add(1);
        }
      };
      for (int i = 0; i < kStatementsPerWriter; ++i) {
        std::string a = std::to_string(i % 4);
        std::string b = std::to_string(w * 100000 + i);
        switch (i % 3) {
          case 0:
            run("INSERT INTO T VALUES (" + a + ", " + b + ")");
            break;
          case 1:
            run("INSERT INTO T VALUES (" + a + ", " + b + "), (" +
                std::to_string((i + 1) % 4) + ", " + b + ")");
            break;
          case 2:
            run("BEGIN WRITE");
            run("INSERT INTO T VALUES (" + a + ", " + b + ")");
            run("INSERT INTO T VALUES (" + std::to_string((i + 2) % 4) +
                ", " + b + ")");
            run("COMMIT");
            break;
        }
      }
      writers_running.fetch_sub(1);
    });
  }
  for (int rdr = 0; rdr < kSnapshotReaders; ++rdr) {
    threads.emplace_back([&, rdr] {
      auto fail = [&](const std::string& msg) {
        errors[kWriteWriters + rdr] += msg + "\n";
        failures.fetch_add(1);
      };
      bool final_round = false;
      while (!final_round) {
        final_round = writers_running.load() == 0;
        ServiceSnapshotPtr snap = service->PinSnapshot();
        if (snap->db.VersionOf("T") > snap->db.VersionOf("TV")) {
          fail("snapshot holds T at epoch " +
               std::to_string(snap->db.VersionOf("T")) +
               " but dependent view TV at older epoch " +
               std::to_string(snap->db.VersionOf("TV")));
        }
        TablePtr stored = snap->db.GetShared("TV");
        if (stored == nullptr) {
          fail("snapshot lost the stored view TV");
          break;
        }
        Evaluator eval(&snap->db);
        Result<Table> want = eval.Execute(aggregate);
        if (!want.ok()) {
          fail("snapshot recompute failed: " + want.status().ToString());
          break;
        }
        if (!MultisetEqual(*stored, *want)) {
          fail("stored view diverged from its snapshot's base table:\n" +
               DescribeMultisetDifference(*stored, *want));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0) << [&] {
    std::string all;
    for (const std::string& e : errors) all += e;
    return all;
  }();

  // Final audit, still with no REFRESH: every acked row is aggregated.
  ServiceSnapshotPtr fin = service->PinSnapshot();
  Evaluator eval(&fin->db);
  ASSERT_OK_AND_ASSIGN(Table want, eval.Execute(aggregate));
  TablePtr stored = fin->db.GetShared("TV");
  ASSERT_NE(stored, nullptr);
  EXPECT_TRUE(MultisetEqual(*stored, want))
      << DescribeMultisetDifference(*stored, want);
  size_t total = 0;
  for (const Row& row : want.rows()) total += static_cast<size_t>(
      row[2].int64());
  EXPECT_EQ(total, static_cast<size_t>(kWriteWriters * kStatementsPerWriter /
                                       3 * 5));
  EXPECT_GE(service->Stats().views_maintained, 1u);
}

INSTANTIATE_TEST_SUITE_P(Engines, ServiceWriteStressTest, ::testing::Bool(),
                         EngineName);

// The same coupling + freshness oracle under a full DML mix (PR 10):
// writer threads interleave INSERTs with DELETEs of their own earlier rows
// and UPDATEs that move a row between groups, all on one shared table.
// Each writer keys its rows by a private B value, so every DELETE/UPDATE
// matches exactly one live row regardless of interleaving, and the final
// row count is deterministic. Readers verify inside every snapshot that
// the stored view equals a recompute from that snapshot's base table.
TEST_P(ServiceWriteStressTest, ConcurrentDmlKeepsViewCoupledToItsBaseTable) {
  constexpr int kDmlWriters = 3;
  constexpr int kDmlReaders = 2;
  constexpr int kRowsPerWriter = 45;

  ServiceOptions write_options;
  write_options.vectorized = GetParam();
  auto service = std::make_unique<QueryService>(write_options);
  ASSERT_OK(service->Execute("CREATE TABLE T(A, B)").status());
  ASSERT_OK(service
                ->Execute("CREATE MATERIALIZED VIEW TV AS SELECT A_1, "
                          "SUM(B_1) AS S, COUNT(B_1) AS N FROM T GROUPBY A_1")
                .status());
  ASSERT_OK_AND_ASSIGN(
      Query aggregate,
      ParseQuery("SELECT A1, SUM(B1) AS S, COUNT(B1) AS N FROM T(A1, B1) "
                 "GROUPBY A1"));

  std::atomic<int> writers_running{kDmlWriters};
  std::atomic<int> failures{0};
  std::vector<std::string> errors(kDmlWriters + kDmlReaders);

  std::vector<std::thread> threads;
  threads.reserve(kDmlWriters + kDmlReaders);
  for (int w = 0; w < kDmlWriters; ++w) {
    threads.emplace_back([&, w] {
      auto run = [&](const std::string& stmt) {
        Result<StatementResult> r = service->Execute(stmt);
        if (!r.ok()) {
          errors[w] += "dml failed: " + stmt + ": " + r.status().ToString() +
                       "\n";
          failures.fetch_add(1);
        }
      };
      for (int i = 0; i < kRowsPerWriter; ++i) {
        std::string b = std::to_string(w * 100000 + i);
        run("INSERT INTO T VALUES (" + std::to_string(i % 4) + ", " + b +
            ")");
        if (i % 3 == 2) {
          // Remove the row inserted on the previous iteration — a write
          // only this thread can race with.
          run("DELETE FROM T WHERE B = " +
              std::to_string(w * 100000 + i - 1));
        }
        if (i % 5 == 4) {
          // Move the just-inserted row to another group: a delete+insert
          // delta through the same maintained path.
          run("UPDATE T SET A = A + 1 WHERE B = " + b);
        }
      }
      writers_running.fetch_sub(1);
    });
  }
  for (int rdr = 0; rdr < kDmlReaders; ++rdr) {
    threads.emplace_back([&, rdr] {
      auto fail = [&](const std::string& msg) {
        errors[kDmlWriters + rdr] += msg + "\n";
        failures.fetch_add(1);
      };
      bool final_round = false;
      while (!final_round) {
        final_round = writers_running.load() == 0;
        ServiceSnapshotPtr snap = service->PinSnapshot();
        if (snap->db.VersionOf("T") > snap->db.VersionOf("TV")) {
          fail("snapshot holds T newer than its dependent view TV");
        }
        TablePtr stored = snap->db.GetShared("TV");
        if (stored == nullptr) {
          fail("snapshot lost the stored view TV");
          break;
        }
        Evaluator eval(&snap->db);
        Result<Table> want = eval.Execute(aggregate);
        if (!want.ok()) {
          fail("snapshot recompute failed: " + want.status().ToString());
          break;
        }
        if (!MultisetEqual(*stored, *want)) {
          fail("stored view diverged from its snapshot's base table:\n" +
               DescribeMultisetDifference(*stored, *want));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0) << [&] {
    std::string all;
    for (const std::string& e : errors) all += e;
    return all;
  }();

  // Deterministic net cardinality: every writer inserted kRowsPerWriter
  // rows and deleted one per i%3==2 iteration.
  ServiceSnapshotPtr fin = service->PinSnapshot();
  Evaluator eval(&fin->db);
  ASSERT_OK_AND_ASSIGN(Table want, eval.Execute(aggregate));
  TablePtr stored = fin->db.GetShared("TV");
  ASSERT_NE(stored, nullptr);
  EXPECT_TRUE(MultisetEqual(*stored, want))
      << DescribeMultisetDifference(*stored, want);
  size_t total = 0;
  for (const Row& row : want.rows()) {
    total += static_cast<size_t>(row[2].int64());
  }
  EXPECT_EQ(total, static_cast<size_t>(kDmlWriters *
                                       (kRowsPerWriter - kRowsPerWriter / 3)));
  ServiceStats stats = service->Stats();
  EXPECT_GE(stats.rows_deleted,
            static_cast<uint64_t>(kDmlWriters * (kRowsPerWriter / 3)));
  EXPECT_GE(stats.views_maintained, 1u);
}

// Deterministic rules of the BEGIN SNAPSHOT / COMMIT statement dialect.
TEST(ServiceSnapshotDialectTest, BeginCommitStatementRules) {
  QueryService service;
  ASSERT_OK(service.Execute("CREATE TABLE R(A, B)").status());
  EXPECT_FALSE(service.Execute("COMMIT").ok());  // nothing to commit
  ASSERT_OK(service.Execute("BEGIN SNAPSHOT").status());
  EXPECT_FALSE(service.Execute("BEGIN SNAPSHOT").ok());  // no nesting
  // The pin is read-only: row writes and DDL are rejected until COMMIT.
  EXPECT_FALSE(service.Execute("INSERT INTO R VALUES (1, 2)").ok());
  EXPECT_FALSE(service.Execute("CREATE TABLE S(A)").ok());
  EXPECT_FALSE(service.Execute("REFRESH V").ok());
  ASSERT_OK(service.Execute("COMMIT").status());
  EXPECT_FALSE(service.Execute("COMMIT").ok());  // already released
  EXPECT_OK(service.Execute("INSERT INTO R VALUES (1, 2)").status());
}

// A pinned snapshot keeps answering from its epoch while another thread
// writes; COMMIT returns the thread to live reads.
TEST(ServiceSnapshotDialectTest, SnapshotIsolatesFromConcurrentWrites) {
  QueryService service;
  ASSERT_OK(service.Execute("CREATE TABLE R(A, B)").status());
  ASSERT_OK(service.Execute("INSERT INTO R VALUES (1, 1)").status());
  ASSERT_OK(service.Execute("BEGIN SNAPSHOT").status());

  std::thread writer([&] {
    Result<StatementResult> r =
        service.Execute("INSERT INTO R VALUES (2, 2)");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  writer.join();

  ASSERT_OK_AND_ASSIGN(Table pinned, service.Select("SELECT A_1, B_1 FROM R"));
  EXPECT_EQ(pinned.num_rows(), 1u);  // the write landed after the pin
  ASSERT_OK(service.Execute("COMMIT").status());
  ASSERT_OK_AND_ASSIGN(Table live, service.Select("SELECT A_1, B_1 FROM R"));
  EXPECT_EQ(live.num_rows(), 2u);
}

// Reads never wait for writers: an INSERT parked inside its write latches
// (T's stripe held exclusive, nothing published yet) does not block a live
// SELECT on T, which answers from the head epoch — the pre-insert rows.
TEST(ServiceReadPathTest, ReadsNeverWaitForWriters) {
  QueryService service;
  ASSERT_OK(service.Execute("CREATE TABLE T(A, B)").status());
  ASSERT_OK(service.Execute("INSERT INTO T VALUES (1, 10), (2, 20)").status());
  FailpointRegistry& failpoints = FailpointRegistry::Global();
  ASSERT_OK(failpoints.Set("table.cow_copy", "delay(1000000,100,1)"));
  auto fires = [&]() -> uint64_t {
    for (const FailpointRegistry::Info& info : failpoints.List()) {
      if (info.name == "table.cow_copy") return info.fires;
    }
    return 0;
  };

  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    Result<StatementResult> r = service.Execute("INSERT INTO T VALUES (3, 30)");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    writer_done.store(true);
  });
  while (fires() < 1) std::this_thread::yield();  // the writer is parked

  Result<Table> during = service.Select("SELECT A_1, B_1 FROM T");
  const bool writer_parked = !writer_done.load();
  writer.join();
  ASSERT_OK(failpoints.Set("table.cow_copy", "off"));

  ASSERT_OK(during.status());
  EXPECT_TRUE(writer_parked) << "the SELECT waited for the writer";
  EXPECT_EQ(during->num_rows(), 2u);
  ASSERT_OK_AND_ASSIGN(Table after, service.Select("SELECT A_1, B_1 FROM T"));
  EXPECT_EQ(after.num_rows(), 3u);
}


// Reads never wait for a CHECKPOINT or for DDL: while a durable CHECKPOINT,
// and then a durable CREATE TABLE, is parked on a page flush (holding the
// ddl latch exclusive), a SELECT, a PinSnapshot() and TABLES all answer
// from the head, well inside the injected delay. The parked CREATE TABLE
// is not visible to them: DDL is published only once it is durable.
TEST(ServiceReadPathTest, ReadsNeverWaitForCheckpoint) {
  const std::string path = ::testing::TempDir() + "/aqv_reads_never_wait";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  ServiceOptions options;
  options.storage_path = path;
  QueryService service(options);
  ASSERT_OK(service.storage_status());
  ASSERT_OK(service.Execute("CREATE TABLE T(A, B)").status());
  ASSERT_OK(service.Execute("INSERT INTO T VALUES (1, 10), (2, 20)").status());
  FailpointRegistry& failpoints = FailpointRegistry::Global();
  auto fires = [&]() -> uint64_t {
    for (const FailpointRegistry::Info& info : failpoints.List()) {
      if (info.name == "page.flush") return info.fires;
    }
    return 0;
  };
  constexpr int64_t kDelayMicros = 1000000;
  for (const std::string parked : {"CHECKPOINT", "CREATE TABLE U(A)"}) {
    SCOPED_TRACE(parked);
    ASSERT_OK(failpoints.Set(
        "page.flush", "delay(" + std::to_string(kDelayMicros) + ",100,1)"));
    std::atomic<bool> parked_done{false};
    std::thread ddl([&] {
      Result<StatementResult> r = service.Execute(parked);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      parked_done.store(true);
    });
    while (fires() < 1) std::this_thread::yield();  // the flush is parked

    auto start = std::chrono::steady_clock::now();
    Result<Table> rows = service.Select("SELECT A_1, B_1 FROM T");
    ServiceSnapshotPtr pin = service.PinSnapshot();
    Result<StatementResult> tables = service.Execute("TABLES");
    const int64_t read_micros =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    const bool still_parked = !parked_done.load();
    ddl.join();
    ASSERT_OK(failpoints.Set("page.flush", "off"));

    EXPECT_TRUE(still_parked) << "a read waited for " << parked;
    EXPECT_LT(read_micros, kDelayMicros / 2);
    ASSERT_OK(rows.status());
    EXPECT_EQ(rows->num_rows(), 2u);
    ASSERT_NE(pin, nullptr);
    EXPECT_FALSE(pin->db.Has("U"));
    ASSERT_OK(tables.status());
    EXPECT_EQ(tables->message.find("U("), std::string::npos);
  }
  ASSERT_OK_AND_ASSIGN(StatementResult tables, service.Execute("TABLES"));
  EXPECT_NE(tables.message.find("U("), std::string::npos);
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

}  // namespace
}  // namespace aqv
