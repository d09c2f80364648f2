// DELETE/UPDATE through the transactional write path (ISSUE 10): parser
// binding and error shapes, multiset delete semantics, incremental
// maintenance vs recompute fallback on deletes, UPDATE as delete+insert,
// BEGIN WRITE batching, delete-containment validation, verb-accurate
// view-write refusals, WAL durability of delete-carrying deltas, and the
// MVCC garbage accounting (versions_alive / bytes_pinned) that real deletes
// make meaningful.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/trace.h"
#include "catalog/catalog.h"
#include "exec/csv.h"
#include "exec/evaluator.h"
#include "exec/table.h"
#include "parser/parser.h"
#include "service/query_service.h"
#include "tests/test_util.h"

namespace aqv {
namespace {

std::string FreshPath(const std::string& stem) {
  std::string path = ::testing::TempDir() + "/aqv_" + stem;
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  return path;
}

std::unique_ptr<QueryService> MakeSalesService(
    ServiceOptions options = ServiceOptions{}) {
  auto service = std::make_unique<QueryService>(options);
  EXPECT_OK(service->Execute("CREATE TABLE Sales(Shop, Amount)").status());
  EXPECT_OK(service
                ->Execute("INSERT INTO Sales VALUES (1, 10), (1, 20), "
                          "(2, 30), (2, 30)")
                .status());
  EXPECT_OK(service
                ->Execute("CREATE MATERIALIZED VIEW Totals AS "
                          "SELECT Shop_1, SUM(Amount_1) AS T, "
                          "COUNT(Amount_1) AS N FROM Sales GROUPBY Shop_1")
                .status());
  return service;
}

int64_t CellForShop(const Table& t, int64_t shop, int col) {
  for (const Row& row : t.rows()) {
    if (row[0] == Value::Int64(shop)) return row[col].int64();
  }
  return -1;
}

// ---------------------------------------------------------------- parser

Catalog OneTableCatalog() {
  Catalog catalog;
  EXPECT_OK(catalog.AddTable(TableDef("R", {"A", "B"})));
  return catalog;
}

TEST(DmlParserTest, DeleteBindsScalarPredicatesAgainstSchema) {
  Catalog catalog = OneTableCatalog();
  ASSERT_OK_AND_ASSIGN(DeleteStatement del,
                       ParseDelete("DELETE FROM R WHERE A = 1 AND B = 2",
                                   &catalog));
  EXPECT_EQ(del.table, "R");
  EXPECT_EQ(del.where.size(), 2u);
  // No WHERE deletes everything.
  ASSERT_OK_AND_ASSIGN(DeleteStatement all, ParseDelete("DELETE FROM R",
                                                        &catalog));
  EXPECT_TRUE(all.where.empty());
}

TEST(DmlParserTest, DeleteRejectsBadShapes) {
  Catalog catalog = OneTableCatalog();
  EXPECT_FALSE(ParseDelete("DELETE FROM NoSuch", &catalog).ok());
  EXPECT_FALSE(ParseDelete("DELETE FROM R WHERE A = 1 extra", &catalog).ok());
  EXPECT_FALSE(ParseDelete("DELETE FROM R WHERE C = 1", &catalog).ok());
  // A catalog is required: DML binds against the target schema.
  EXPECT_FALSE(ParseDelete("DELETE FROM R", nullptr).ok());
}

TEST(DmlParserTest, UpdateParsesAssignmentsAndRejectsDuplicates) {
  Catalog catalog = OneTableCatalog();
  ASSERT_OK_AND_ASSIGN(
      UpdateStatement upd,
      ParseUpdate("UPDATE R SET A = 5, B = B + 1 WHERE A = 2", &catalog));
  EXPECT_EQ(upd.table, "R");
  ASSERT_EQ(upd.sets.size(), 2u);
  EXPECT_EQ(upd.sets[0].column, "A");
  EXPECT_EQ(upd.sets[0].expr.kind, SetExpr::Kind::kLiteral);
  EXPECT_EQ(upd.sets[1].column, "B");
  EXPECT_EQ(upd.sets[1].expr.kind, SetExpr::Kind::kBinary);
  EXPECT_EQ(upd.sets[1].expr.op, '+');
  EXPECT_EQ(upd.where.size(), 1u);

  Result<UpdateStatement> dup =
      ParseUpdate("UPDATE R SET A = 1, A = 2", &catalog);
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.status().ToString().find("assigned twice"), std::string::npos);
  EXPECT_FALSE(ParseUpdate("UPDATE R SET C = 1", &catalog).ok());
  EXPECT_FALSE(ParseUpdate("UPDATE R SET A = B + 'x'", &catalog).ok());
}

// ------------------------------------------------------------- semantics

TEST(DmlServiceTest, DeleteRemovesEveryMatchingOccurrence) {
  std::unique_ptr<QueryService> service = MakeSalesService();
  // (2, 30) appears twice; the predicate matches both occurrences.
  ASSERT_OK_AND_ASSIGN(StatementResult ack,
                       service->Execute("DELETE FROM Sales WHERE Shop = 2"));
  EXPECT_NE(ack.message.find("2 row(s) deleted from Sales"),
            std::string::npos);
  ASSERT_OK_AND_ASSIGN(Table rows,
                       service->Select("SELECT Shop_1, Amount_1 FROM Sales"));
  EXPECT_EQ(rows.num_rows(), 2u);
  ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.rows_deleted, 2u);
}

TEST(DmlServiceTest, DeleteMaintainsCountBearingViewIncrementally) {
  std::unique_ptr<QueryService> service = MakeSalesService();
  uint64_t before = service->Stats().views_maintained;
  EXPECT_OK(service->Execute("DELETE FROM Sales WHERE Amount = 10").status());
  // The SUM+COUNT view supports delete differencing (group liveness is
  // count-tracked), so the write folds incrementally — no recompute.
  ServiceStats stats = service->Stats();
  EXPECT_GT(stats.views_maintained, before);
  ASSERT_OK_AND_ASSIGN(
      Table totals, service->Select("SELECT Shop_1, SUM(Amount_1) AS T, "
                                    "COUNT(Amount_1) AS N "
                                    "FROM Sales GROUPBY Shop_1"));
  EXPECT_EQ(CellForShop(totals, 1, 1), 20);
  EXPECT_EQ(CellForShop(totals, 1, 2), 1);
}

TEST(DmlServiceTest, DeleteEmptyingAGroupDropsItFromTheView) {
  std::unique_ptr<QueryService> service = MakeSalesService();
  EXPECT_OK(service->Execute("DELETE FROM Sales WHERE Shop = 1").status());
  ASSERT_OK_AND_ASSIGN(
      Table totals, service->Select("SELECT Shop_1, SUM(Amount_1) AS T "
                                    "FROM Sales GROUPBY Shop_1"));
  EXPECT_EQ(totals.num_rows(), 1u);
  EXPECT_EQ(CellForShop(totals, 1, 1), -1);
  EXPECT_EQ(CellForShop(totals, 2, 1), 60);
}

TEST(DmlServiceTest, ExtremumDeleteWithoutCoveringInsertRecomputes) {
  std::unique_ptr<QueryService> service = MakeSalesService();
  EXPECT_OK(service
                ->Execute("CREATE MATERIALIZED VIEW Peaks AS "
                          "SELECT Shop_1, MAX(Amount_1) AS Mx "
                          "FROM Sales GROUPBY Shop_1")
                .status());
  uint64_t before = service->Stats().views_recomputed;
  // Deleting the maximum with no covering insert cannot be folded (the new
  // max is not derivable from the delta) — the write path must fall back
  // to full recompute and still publish a fresh view.
  EXPECT_OK(service->Execute("DELETE FROM Sales WHERE Amount = 20").status());
  ServiceStats stats = service->Stats();
  EXPECT_GT(stats.views_recomputed, before);
  ASSERT_OK_AND_ASSIGN(
      Table peaks, service->Select("SELECT Shop_1, MAX(Amount_1) AS Mx "
                                   "FROM Sales GROUPBY Shop_1"));
  EXPECT_EQ(CellForShop(peaks, 1, 1), 10);
}

TEST(DmlServiceTest, UpdateIsDeletePlusInsertAtOneEpoch) {
  std::unique_ptr<QueryService> service = MakeSalesService();
  ServiceSnapshotPtr pinned = service->PinSnapshot();
  ASSERT_OK_AND_ASSIGN(
      StatementResult ack,
      service->Execute("UPDATE Sales SET Amount = Amount + 5 WHERE Shop = 1"));
  EXPECT_NE(ack.message.find("2 row(s) updated in Sales"), std::string::npos);
  ASSERT_OK_AND_ASSIGN(
      Table totals, service->Select("SELECT Shop_1, SUM(Amount_1) AS T "
                                    "FROM Sales GROUPBY Shop_1"));
  EXPECT_EQ(CellForShop(totals, 1, 1), 40);  // 15 + 25
  // Base and dependent view were published at ONE shared epoch; the pinned
  // snapshot saw neither side of the update.
  ServiceSnapshotPtr after = service->PinSnapshot();
  EXPECT_EQ(after->db.VersionOf("Sales"), after->db.VersionOf("Totals"));
  EXPECT_LT(pinned->db.VersionOf("Sales"), after->db.VersionOf("Sales"));
  ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.rows_inserted, 2u + 4u);  // bootstrap 4 + update 2
  EXPECT_EQ(stats.rows_deleted, 2u);
}

TEST(DmlServiceTest, UpdateAssignmentsReadTheOldRow) {
  QueryService service;
  EXPECT_OK(service.Execute("CREATE TABLE P(X, Y)").status());
  EXPECT_OK(service.Execute("INSERT INTO P VALUES (1, 2)").status());
  // SQL semantics: both sources are the pre-update row, so this swaps.
  EXPECT_OK(service.Execute("UPDATE P SET X = Y, Y = X").status());
  ASSERT_OK_AND_ASSIGN(Table rows, service.Select("SELECT X_1, Y_1 FROM P"));
  ASSERT_EQ(rows.num_rows(), 1u);
  EXPECT_EQ(rows.rows()[0][0], Value::Int64(2));
  EXPECT_EQ(rows.rows()[0][1], Value::Int64(1));
}

TEST(DmlServiceTest, UpdateArithmeticOnNullYieldsNullAndOnStringFails) {
  QueryService service;
  EXPECT_OK(service.Execute("CREATE TABLE P(X, Y)").status());
  EXPECT_OK(
      service.Execute("INSERT INTO P VALUES (1, NULL), (2, 'abc')").status());
  // NULL + 1 is NULL; the string row is untouched by the predicate.
  EXPECT_OK(
      service.Execute("UPDATE P SET Y = Y + 1 WHERE X = 1").status());
  ASSERT_OK_AND_ASSIGN(Table rows, service.Select("SELECT X_1, Y_1 FROM P"));
  for (const Row& row : rows.rows()) {
    if (row[0] == Value::Int64(1)) {
      EXPECT_TRUE(row[1].is_null());
    }
  }
  // Arithmetic on a string value is an execution-time error; the statement
  // fails cleanly and publishes nothing.
  uint64_t epoch_before = service.PinSnapshot()->epoch;
  Result<StatementResult> bad =
      service.Execute("UPDATE P SET Y = Y * 2 WHERE X = 2");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("numeric"), std::string::npos);
  EXPECT_EQ(service.PinSnapshot()->epoch, epoch_before);
}

TEST(DmlServiceTest, MutationMatchingNothingBumpsNoEpoch) {
  std::unique_ptr<QueryService> service = MakeSalesService();
  uint64_t epoch_before = service->PinSnapshot()->epoch;
  ASSERT_OK_AND_ASSIGN(StatementResult ack,
                       service->Execute("DELETE FROM Sales WHERE Shop = 99"));
  EXPECT_NE(ack.message.find("0 row(s) deleted"), std::string::npos);
  EXPECT_OK(
      service->Execute("UPDATE Sales SET Amount = 0 WHERE Shop = 99").status());
  EXPECT_EQ(service->PinSnapshot()->epoch, epoch_before);
}

// -------------------------------------------------- verb-accurate errors

TEST(DmlServiceTest, WritesAimedAtViewsNameTheRightVerb) {
  std::unique_ptr<QueryService> service = MakeSalesService();
  Result<StatementResult> del = service->Execute("DELETE FROM Totals");
  ASSERT_FALSE(del.ok());
  EXPECT_NE(del.status().ToString().find("cannot DELETE from view 'Totals'"),
            std::string::npos);
  Result<StatementResult> upd = service->Execute("UPDATE Totals SET T = 0");
  ASSERT_FALSE(upd.ok());
  EXPECT_NE(upd.status().ToString().find("cannot UPDATE view 'Totals'"),
            std::string::npos);
  Result<StatementResult> ins =
      service->Execute("INSERT INTO Totals VALUES (1, 2, 3)");
  ASSERT_FALSE(ins.ok());
  EXPECT_NE(ins.status().ToString().find("cannot INSERT into view 'Totals'"),
            std::string::npos);
  Result<StatementResult> load =
      service->Execute("LOAD Totals FROM 'nope.csv'");
  ASSERT_FALSE(load.ok());
  EXPECT_NE(load.status().ToString().find("cannot LOAD into view 'Totals'"),
            std::string::npos);

  // Inside BEGIN WRITE the same writes are refused when they are buffered,
  // not at COMMIT; so are an unknown table and a row of the wrong arity.
  // None of the refusals costs the batch the row buffered before them.
  ASSERT_OK(service->Execute("BEGIN WRITE").status());
  ASSERT_OK(service->Execute("INSERT INTO Sales VALUES (2, 20)").status());
  const struct {
    const char* stmt;
    const char* error;
  } kRefused[] = {
      {"INSERT INTO Totals VALUES (9, 9, 9)",
       "cannot INSERT into view 'Totals'"},
      {"DELETE FROM Totals", "cannot DELETE from view 'Totals'"},
      {"UPDATE Totals SET T = 0", "cannot UPDATE view 'Totals'"},
      {"INSERT INTO Nope VALUES (1)", "table 'Nope' not in database"},
      {"INSERT INTO Sales VALUES (3)", "row arity 1 != arity 2"},
  };
  for (const auto& refused : kRefused) {
    Result<StatementResult> r = service->Execute(refused.stmt);
    ASSERT_FALSE(r.ok()) << refused.stmt;
    EXPECT_NE(r.status().ToString().find(refused.error), std::string::npos)
        << r.status().ToString();
  }
  ASSERT_OK_AND_ASSIGN(StatementResult committed, service->Execute("COMMIT"));
  EXPECT_NE(committed.message.find("1 row(s) inserted / 0 deleted"),
            std::string::npos);
  ServiceSnapshotPtr snap = service->PinSnapshot();
  ASSERT_OK_AND_ASSIGN(const Table* totals, snap->db.Get("Totals"));
  EXPECT_EQ(CellForShop(*totals, 2, 1), 80);  // 30 + 30 + the buffered 20
}

// A write names each view it recomputed and why, in its reply and in its
// write_apply span; a view it folded is not named.
TEST(DmlServiceTest, RecomputeReplyNamesTheViewAndItsReason) {
  std::unique_ptr<QueryService> service = MakeSalesService();
  ASSERT_OK(service
                ->Execute("CREATE MATERIALIZED VIEW Peaks AS SELECT Shop_1, "
                          "MAX(Amount_1) AS M, COUNT(Amount_1) AS N FROM "
                          "Sales GROUPBY Shop_1")
                .status());
  // Below shop 1's maximum (20): both views fold.
  ASSERT_OK_AND_ASSIGN(StatementResult folded,
                       service->Execute("DELETE FROM Sales WHERE Amount = 10"));
  EXPECT_EQ(folded.message,
            "1 row(s) deleted from Sales; 2 view(s) maintained, 0 "
            "recomputed\n");
  ASSERT_OK(service->Execute("INSERT INTO Sales VALUES (1, 15)").status());

  // Shop 1's maximum itself: Peaks is recomputed, and says so.
  const std::string reason =
      "Peaks: a delete removes the current extremum of a group; recompute";
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  tracer.Enable();
  Result<StatementResult> ack =
      service->Execute("DELETE FROM Sales WHERE Amount = 20");
  tracer.Disable();
  ASSERT_OK(ack.status());
  EXPECT_EQ(ack->message, "1 row(s) deleted from Sales; 1 view(s) "
                          "maintained, 1 recomputed (" + reason + ")\n");
  std::string recompute_attr;
  for (const TraceEvent& e : tracer.Snapshot()) {
    if (e.name != "write_apply") continue;
    for (const auto& [key, value] : e.attributes) {
      if (key == "recompute") recompute_attr = value;
    }
  }
  tracer.Clear();
  EXPECT_EQ(recompute_attr, reason);
  ServiceSnapshotPtr snap = service->PinSnapshot();
  ASSERT_OK_AND_ASSIGN(const Table* peaks, snap->db.Get("Peaks"));
  EXPECT_EQ(CellForShop(*peaks, 1, 1), 15);

  // REFRESH recomputes by definition and says that instead.
  ASSERT_OK_AND_ASSIGN(StatementResult refreshed,
                       service->Execute("REFRESH Peaks"));
  EXPECT_NE(refreshed.message.find("1 recomputed (Peaks: REFRESH)"),
            std::string::npos)
      << refreshed.message;
}

// A LOAD that replaces a table is one more write request: Stats() counts
// it the way its WAL record carries it — every old row deleted, every
// loaded row inserted — and every dependent view recomputed, not folded.
TEST(DmlServiceTest, LoadReplacementCountsLikeItsWalRecord) {
  std::unique_ptr<QueryService> service = MakeSalesService();
  Table replacement({"Shop", "Amount"});
  replacement.AddRowOrDie({Value::Int64(3), Value::Int64(5)});
  replacement.AddRowOrDie({Value::Int64(3), Value::Int64(6)});
  replacement.AddRowOrDie({Value::Int64(4), Value::Int64(7)});
  std::string csv = FreshPath("load_stats.csv");
  ASSERT_OK(WriteCsvFile(replacement, csv));
  ServiceStats before = service->Stats();
  ASSERT_OK_AND_ASSIGN(StatementResult ack,
                       service->Execute("LOAD Sales FROM '" + csv + "'"));
  EXPECT_NE(ack.message.find("3 row(s) loaded into Sales"), std::string::npos);
  ServiceStats after = service->Stats();
  EXPECT_EQ(after.rows_deleted - before.rows_deleted, 4u);
  EXPECT_EQ(after.rows_inserted - before.rows_inserted, 3u);
  EXPECT_EQ(after.views_recomputed - before.views_recomputed, 1u);
  EXPECT_EQ(after.views_maintained, before.views_maintained);
  ServiceSnapshotPtr snap = service->PinSnapshot();
  ASSERT_OK_AND_ASSIGN(const Table* totals, snap->db.Get("Totals"));
  EXPECT_EQ(totals->num_rows(), 2u);
  EXPECT_EQ(CellForShop(*totals, 3, 1), 11);
  EXPECT_EQ(CellForShop(*totals, 4, 1), 7);
  std::remove(csv.c_str());
}

// NaN compares equal to every number, so it is refused wherever it could
// enter: an unquoted CSV field that parses to NaN, and UPDATE arithmetic
// whose DOUBLE result is NaN. Either write is kInvalidArgument and
// publishes nothing. (ROADMAP item 1, Repro B: with NaN stored,
// `WHERE X_1 = 2.0` also returned the NaN row.)
TEST(DmlServiceTest, NanIsRefusedAtIngress) {
  QueryService service;
  std::string csv = FreshPath("nan.csv");
  auto write_csv = [&](const char* text) {
    std::ofstream out(csv, std::ios::trunc);
    out << text;
  };
  const uint64_t epoch_before = service.PinSnapshot()->epoch;
  write_csv("X,Y\nnan,1\n1.0,2\n2.0,3\n");
  Result<StatementResult> load = service.Execute("LOAD N FROM '" + csv + "'");
  ASSERT_FALSE(load.ok());
  EXPECT_EQ(load.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(load.status().ToString().find("NaN"), std::string::npos);
  EXPECT_EQ(service.PinSnapshot()->epoch, epoch_before);
  EXPECT_FALSE(service.Select("SELECT X_1 FROM N").ok());  // not created

  // Without the NaN the load goes through, and equality is exact; inf is
  // an ordinary value.
  write_csv("X,Y\ninf,1\n1.0,2\n2.0,3\n");
  ASSERT_OK(service.Execute("LOAD N FROM '" + csv + "'").status());
  ASSERT_OK_AND_ASSIGN(Table two,
                       service.Select("SELECT X_1 FROM N WHERE X_1 = 2.0"));
  ASSERT_EQ(two.num_rows(), 1u);
  EXPECT_EQ(two.rows()[0][0], Value::Double(2.0));
  write_csv("X,Y\n1.0,2\nnan,3\n");
  const uint64_t loaded = service.PinSnapshot()->epoch;
  EXPECT_EQ(service.Execute("LOAD N FROM '" + csv + "'").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.PinSnapshot()->epoch, loaded);

  // inf * 0 is NaN: the UPDATE is refused and the row keeps its value.
  Result<StatementResult> update =
      service.Execute("UPDATE N SET X = X * 0 WHERE Y = 1");
  ASSERT_FALSE(update.ok());
  EXPECT_EQ(update.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(update.status().ToString().find("NaN"), std::string::npos);
  EXPECT_EQ(service.PinSnapshot()->epoch, loaded);
  ASSERT_OK_AND_ASSIGN(Table rows, service.Select("SELECT X_1 FROM N"));
  EXPECT_EQ(rows.num_rows(), 3u);
  ASSERT_OK_AND_ASSIGN(Table inf,
                       service.Select("SELECT Y_1 FROM N WHERE X_1 > 2.0"));
  EXPECT_EQ(inf.num_rows(), 1u);
  std::remove(csv.c_str());
}

// --------------------------------------------------- containment checking

TEST(DmlServiceTest, PhantomDeleteIsRejectedBeforePublishing) {
  std::unique_ptr<QueryService> service = MakeSalesService();
  // Stage the same single-occurrence row for deletion twice: each DELETE
  // matches committed state, but the base holds only one (1, 10), so the
  // combined batch delta is not contained and must be refused wholesale.
  EXPECT_OK(service->Execute("BEGIN WRITE").status());
  EXPECT_OK(service->Execute("DELETE FROM Sales WHERE Amount = 10").status());
  EXPECT_OK(service->Execute("DELETE FROM Sales WHERE Amount = 10").status());
  uint64_t epoch_before = service->PinSnapshot()->epoch;
  Result<StatementResult> committed = service->Execute("COMMIT");
  ASSERT_FALSE(committed.ok());
  EXPECT_EQ(committed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(committed.status().ToString().find("not present"),
            std::string::npos);
  // Nothing was published and the failed batch is discarded.
  EXPECT_EQ(service->PinSnapshot()->epoch, epoch_before);
  ASSERT_OK_AND_ASSIGN(Table rows, service->Select("SELECT Amount_1 FROM "
                                                   "Sales"));
  EXPECT_EQ(rows.num_rows(), 4u);
  EXPECT_FALSE(service->Execute("COMMIT").ok());  // batch is gone
}

TEST(DmlServiceTest, SameBatchInsertCoversDeleteOfIdenticalRow) {
  std::unique_ptr<QueryService> service = MakeSalesService();
  // Inserts land before deletes, so a batch may insert (7, 70) and delete
  // it again — a net no-op that must pass containment.
  EXPECT_OK(service->Execute("BEGIN WRITE").status());
  EXPECT_OK(service->Execute("INSERT INTO Sales VALUES (7, 70)").status());
  ASSERT_OK_AND_ASSIGN(StatementResult committed, service->Execute("COMMIT"));
  EXPECT_OK(service->Execute("BEGIN WRITE").status());
  EXPECT_OK(service->Execute("INSERT INTO Sales VALUES (7, 70)").status());
  EXPECT_OK(service->Execute("DELETE FROM Sales WHERE Shop = 7").status());
  ASSERT_OK_AND_ASSIGN(committed, service->Execute("COMMIT"));
  ASSERT_OK_AND_ASSIGN(
      Table rows, service->Select("SELECT Shop_1 FROM Sales WHERE Shop_1 = 7"));
  EXPECT_EQ(rows.num_rows(), 1u);
}

// ----------------------------------------------------------- batch DML

TEST(DmlServiceTest, BatchedDmlBuffersAndRollsBack) {
  std::unique_ptr<QueryService> service = MakeSalesService();
  EXPECT_OK(service->Execute("BEGIN WRITE").status());
  ASSERT_OK_AND_ASSIGN(StatementResult buffered,
                       service->Execute("DELETE FROM Sales WHERE Shop = 1"));
  EXPECT_NE(buffered.message.find("2 row(s) buffered to delete from Sales"),
            std::string::npos);
  ASSERT_OK_AND_ASSIGN(
      buffered,
      service->Execute("UPDATE Sales SET Amount = Amount - 1 WHERE Shop = 2"));
  EXPECT_NE(buffered.message.find("buffered to update in Sales"),
            std::string::npos);
  // Reads inside the batch still see committed state.
  ASSERT_OK_AND_ASSIGN(Table mid, service->Select("SELECT Amount_1 FROM "
                                                  "Sales"));
  EXPECT_EQ(mid.num_rows(), 4u);
  ASSERT_OK_AND_ASSIGN(StatementResult rolled,
                       service->Execute("ROLLBACK"));
  // 2 deletes + 2 update-deletes + 2 update-inserts.
  EXPECT_NE(rolled.message.find("6 buffered row(s)"), std::string::npos);
  ASSERT_OK_AND_ASSIGN(Table after, service->Select("SELECT Amount_1 FROM "
                                                    "Sales"));
  EXPECT_EQ(after.num_rows(), 4u);
}

TEST(DmlServiceTest, BatchedDmlCommitsAtomicallyWithViewMaintenance) {
  std::unique_ptr<QueryService> service = MakeSalesService();
  EXPECT_OK(service->Execute("BEGIN WRITE").status());
  EXPECT_OK(service->Execute("INSERT INTO Sales VALUES (3, 5)").status());
  EXPECT_OK(service->Execute("DELETE FROM Sales WHERE Shop = 1").status());
  ASSERT_OK_AND_ASSIGN(StatementResult committed, service->Execute("COMMIT"));
  EXPECT_NE(committed.message.find("1 row(s) inserted / 2 deleted"),
            std::string::npos);
  ASSERT_OK_AND_ASSIGN(
      Table totals, service->Select("SELECT Shop_1, SUM(Amount_1) AS T "
                                    "FROM Sales GROUPBY Shop_1"));
  EXPECT_EQ(CellForShop(totals, 1, 1), -1);
  EXPECT_EQ(CellForShop(totals, 3, 1), 5);
}

TEST(DmlServiceTest, DmlRejectedInsideSnapshotButAllowedInBatch) {
  std::unique_ptr<QueryService> service = MakeSalesService();
  EXPECT_OK(service->Execute("BEGIN SNAPSHOT").status());
  EXPECT_FALSE(service->Execute("DELETE FROM Sales WHERE Shop = 1").ok());
  EXPECT_FALSE(
      service->Execute("UPDATE Sales SET Amount = 0 WHERE Shop = 1").ok());
  EXPECT_OK(service->Execute("COMMIT").status());
}

// ----------------------------------------------------------- durability

TEST(DmlDurabilityTest, DeleteAndUpdateSurviveRestart) {
  std::string path = FreshPath("dml_restart");
  ServiceOptions opts;
  opts.storage_path = path;
  {
    std::unique_ptr<QueryService> service = MakeSalesService(opts);
    EXPECT_OK(service->Execute("DELETE FROM Sales WHERE Shop = 2").status());
    EXPECT_OK(service
                  ->Execute("UPDATE Sales SET Amount = Amount + 1 "
                            "WHERE Shop = 1")
                  .status());
  }
  // Reopen: the delete-carrying WAL deltas replay into a consistent state,
  // views recomputed to match.
  QueryService reopened(opts);
  ASSERT_OK(reopened.storage_status());
  ASSERT_OK_AND_ASSIGN(Table rows,
                       reopened.Select("SELECT Shop_1, Amount_1 FROM Sales"));
  EXPECT_EQ(rows.num_rows(), 2u);
  ASSERT_OK_AND_ASSIGN(
      Table totals, reopened.Select("SELECT Shop_1, SUM(Amount_1) AS T "
                                    "FROM Sales GROUPBY Shop_1"));
  EXPECT_EQ(CellForShop(totals, 1, 1), 32);  // 11 + 21
  EXPECT_EQ(CellForShop(totals, 2, 1), -1);
}

// ------------------------------------------------------- MVCC accounting

TEST(MvccAccountingTest, ChurnWithNoPinnedSnapshotStaysBounded) {
  std::unique_ptr<QueryService> service = MakeSalesService();
  size_t max_versions = 0;
  for (int i = 0; i < 40; ++i) {
    EXPECT_OK(service
                  ->Execute("INSERT INTO Sales VALUES (9, " +
                            std::to_string(i) + ")")
                  .status());
    // A SELECT builds the current version's columnar images, so each
    // retired version carries one — the bytes the ledger must see die.
    EXPECT_OK(service->Select("SELECT Shop_1, SUM(Amount_1) AS T "
                              "FROM Sales GROUPBY Shop_1")
                  .status());
    EXPECT_OK(service->Execute("DELETE FROM Sales WHERE Shop = 9").status());
    for (const TableMvcc& m : service->Stats().mvcc) {
      max_versions = std::max(max_versions, m.versions_alive);
    }
  }
  // No snapshot pins anything: retired versions die with the write that
  // replaced them, so the ledger never accumulates.
  ServiceStats stats = service->Stats();
  for (const TableMvcc& m : stats.mvcc) {
    EXPECT_LE(m.versions_alive, 2u) << m.table;
    EXPECT_EQ(m.bytes_pinned, 0u) << m.table;
  }
  EXPECT_EQ(stats.mvcc_oldest_pinned_epoch, 0u);
  EXPECT_LE(max_versions, 3u);
}

TEST(MvccAccountingTest, PinnedSnapshotShowsUpInTheLedgerAndDrains) {
  std::unique_ptr<QueryService> service = MakeSalesService();
  ServiceSnapshotPtr pinned = service->PinSnapshot();
  uint64_t pin_epoch = pinned->epoch;
  for (int i = 0; i < 3; ++i) {
    EXPECT_OK(service
                  ->Execute("INSERT INTO Sales VALUES (8, " +
                            std::to_string(i) + ")")
                  .status());
  }
  ServiceStats held = service->Stats();
  bool sales_pinned = false;
  for (const TableMvcc& m : held.mvcc) {
    if (m.table != "Sales") continue;
    sales_pinned = true;
    EXPECT_GE(m.versions_alive, 2u);
    EXPECT_GT(m.bytes_pinned, 0u);
    EXPECT_GT(m.oldest_pinned_epoch, 0u);
    EXPECT_LE(m.oldest_pinned_epoch, pin_epoch);
  }
  EXPECT_TRUE(sales_pinned);
  EXPECT_GT(held.mvcc_oldest_pinned_epoch, 0u);
  // STATS and PROM surface the ledger.
  ASSERT_OK_AND_ASSIGN(StatementResult text, service->Execute("STATS"));
  EXPECT_NE(text.message.find("mvcc"), std::string::npos);
  std::string prom = service->StatsPromText();
  EXPECT_NE(prom.find("aqv_mvcc_versions_alive{table=\"Sales\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("aqv_mvcc_bytes_pinned{table=\"Sales\"}"),
            std::string::npos);
  // Releasing the pin is the reclamation: the weak ledger drains to zero.
  pinned.reset();
  ServiceStats released = service->Stats();
  for (const TableMvcc& m : released.mvcc) {
    EXPECT_EQ(m.bytes_pinned, 0u) << m.table;
    EXPECT_LE(m.versions_alive, 1u) << m.table;
  }
  EXPECT_EQ(released.mvcc_oldest_pinned_epoch, 0u);
}

// A pinned snapshot of a multi-chunk table costs, after a single-row
// INSERT, only the one chunk the write replaced: the other chunks are
// shared by the current version and are not "pinned" garbage.
TEST(MvccAccountingTest, PinnedSnapshotOfAChunkedTableCountsUnsharedBytes) {
  Catalog catalog;
  ASSERT_OK(catalog.AddTable(TableDef("Big", {"K", "V"})));
  Table big({"K", "V"});
  std::vector<Row> rows;
  for (size_t i = 0; i < 3 * kChunkRows + 50; ++i) {
    rows.push_back(Row{Value::Int64(static_cast<int64_t>(i)),
                       Value::Int64(static_cast<int64_t>(i % 10))});
  }
  ASSERT_OK(big.AddRows(std::move(rows)));
  ASSERT_GE(big.chunks().size(), 3u);
  Database db;
  db.Put("Big", std::move(big));
  QueryService service;
  ASSERT_OK(service.Bootstrap(catalog, std::move(db), ViewRegistry()));
  // A read builds every chunk's columnar image first.
  ASSERT_OK(service.Select("SELECT V_1, COUNT(K_1) AS N FROM Big GROUPBY V_1")
                .status());
  ServiceSnapshotPtr pinned = service.PinSnapshot();
  ASSERT_OK(service.Execute("INSERT INTO Big VALUES (-1, 0)").status());

  TablePtr old_version = pinned->db.GetShared("Big");
  size_t largest_chunk = 0;
  for (const ChunkPtr& chunk : old_version->chunks()) {
    largest_chunk = std::max(largest_chunk, chunk->ApproxBytes());
  }
  bool seen = false;
  for (const TableMvcc& m : service.Stats().mvcc) {
    if (m.table != "Big") continue;
    seen = true;
    EXPECT_EQ(m.versions_alive, 2u);
    EXPECT_GT(m.bytes_pinned, 0u);
    EXPECT_LE(m.bytes_pinned, largest_chunk);
    EXPECT_LT(m.bytes_pinned, old_version->ApproxBytes() / 3);
  }
  EXPECT_TRUE(seen);
}

// ---------------------------------------------------------------- SUM range

// Repro C through the service: an INT64 SUM whose exact value leaves the
// INT64 range is a clean kOutOfRange on every engine, never a wrapped row.
TEST(SumOverflowTest, ReadsRefuseAnInt64SumThatLeavesItsRange) {
  for (bool vectorized : {true, false}) {
    SCOPED_TRACE(vectorized ? "vectorized" : "row engine");
    ServiceOptions options;
    options.vectorized = vectorized;
    QueryService service(options);
    ASSERT_OK(service.Execute("CREATE TABLE D(G, X)").status());
    ASSERT_OK(service
                  .Execute("INSERT INTO D VALUES (1, 4611686018427387904), "
                           "(1, 4611686018427387904)")
                  .status());
    for (const char* sql : {"SELECT G_1, SUM(X_1) FROM D GROUPBY G_1",
                            "SELECT SUM(X_1) FROM D"}) {
      Result<Table> r = service.Select(sql);
      EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange) << sql;
    }
    // Back in range: the exact sum, not an overflowed intermediate.
    ASSERT_OK(service.Execute("INSERT INTO D VALUES (1, -4611686018427387904)")
                  .status());
    ASSERT_OK_AND_ASSIGN(Table t, service.Select("SELECT SUM(X_1) FROM D"));
    ASSERT_EQ(t.num_rows(), 1u);
    EXPECT_EQ(t.rows()[0][0], Value::Int64(int64_t{1} << 62));
  }
}

// The maintained path: folding a write into a view whose SUM would leave
// the INT64 range falls back to a recompute, which refuses the write with
// kOutOfRange before anything is published.
TEST(SumOverflowTest, MaintainedViewRefusesAWriteThatWouldWrapItsSum) {
  QueryService service;
  ASSERT_OK(service.Execute("CREATE TABLE D(G, X)").status());
  ASSERT_OK(service.Execute("INSERT INTO D VALUES (1, 4611686018427387904)")
                .status());
  ASSERT_OK(service
                .Execute("CREATE MATERIALIZED VIEW DV AS SELECT G_1, "
                         "SUM(X_1) AS S, COUNT(X_1) AS N FROM D GROUPBY G_1")
                .status());
  Result<StatementResult> wrapped =
      service.Execute("INSERT INTO D VALUES (1, 4611686018427387904)");
  EXPECT_EQ(wrapped.status().code(), StatusCode::kOutOfRange);
  ASSERT_OK_AND_ASSIGN(Table base, service.Select("SELECT COUNT(X_1) FROM D"));
  EXPECT_EQ(base.rows()[0][0], Value::Int64(1));
  // A write that stays in range still folds.
  ASSERT_OK(service.Execute("INSERT INTO D VALUES (1, -5)").status());
  ServiceSnapshotPtr snap = service.PinSnapshot();
  ASSERT_OK_AND_ASSIGN(const Table* dv, snap->db.Get("DV"));
  ASSERT_EQ(dv->num_rows(), 1u);
  EXPECT_EQ(dv->rows()[0][1], Value::Int64((int64_t{1} << 62) - 5));
  EXPECT_GE(service.Stats().views_maintained, 1u);
}

// A delta whose running INT64 SUM leaves the range part-way but whose total
// fits is folded exactly in 128 bits: the view is maintained, not handed to
// a recompute, and a read rewritten onto it equals the base read.
TEST(SumOverflowTest, DeltaSumFoldsInOneHundredTwentyEightBits) {
  QueryService service;
  ASSERT_OK(service.Execute("CREATE TABLE D(G, X)").status());
  ASSERT_OK(service.Execute("INSERT INTO D VALUES (1, 0), (2, 5)").status());
  ASSERT_OK(service
                .Execute("CREATE MATERIALIZED VIEW DV AS SELECT G_1, "
                         "SUM(X_1) AS S, COUNT(X_1) AS C FROM D GROUPBY G_1")
                .status());
  ASSERT_OK_AND_ASSIGN(
      StatementResult ack,
      service.Execute("INSERT INTO D VALUES (1, 4611686018427387904), "
                      "(1, 4611686018427387904), (1, -4611686018427387904)"));
  EXPECT_NE(ack.message.find("1 view(s) maintained, 0 recomputed"),
            std::string::npos)
      << ack.message;

  const std::string sql = "SELECT G_1, SUM(X_1) FROM D GROUPBY G_1";
  ASSERT_OK_AND_ASSIGN(StatementResult read, service.Execute(sql));
  EXPECT_TRUE(read.used_materialized_view);
  ASSERT_TRUE(read.table.has_value());
  ServiceSnapshotPtr snap = service.PinSnapshot();
  ASSERT_OK_AND_ASSIGN(Query q, ParseQuery(sql, snap->catalog.get()));
  Evaluator base(&snap->db, nullptr);
  ASSERT_OK_AND_ASSIGN(Table want, base.Execute(q));
  EXPECT_TRUE(MultisetEqual(*read.table, want))
      << DescribeMultisetDifference(*read.table, want);
  EXPECT_EQ(CellForShop(want, 1, 1), int64_t{1} << 62);
}

// A scaled argument's INT64 product is checked like the sum: out of range
// fails the statement with kOutOfRange on both engines, never a wrapped row.
TEST(SumOverflowTest, ReadsRefuseAnInt64ProductThatLeavesItsRange) {
  for (bool vectorized : {true, false}) {
    SCOPED_TRACE(vectorized ? "vectorized" : "row engine");
    ServiceOptions options;
    options.vectorized = vectorized;
    QueryService service(options);
    ASSERT_OK(service.Execute("CREATE TABLE D(G, X, N)").status());
    // Enough rows that the vectorized aggregation engages.
    std::string rows = "INSERT INTO D VALUES (1, 3, 5)";
    for (int i = 0; i < 3000; ++i) rows += ", (1, 3, 5)";
    ASSERT_OK(service.Execute(rows).status());
    ASSERT_OK(service
                  .Execute("INSERT INTO D VALUES (2, 4611686018427387904, 2)")
                  .status());
    for (const char* sql :
         {"SELECT G_1, SUM(X_1 * N_1) FROM D GROUPBY G_1",
          "SELECT MAX(X_1 * N_1) FROM D",
          "SELECT G_1, COUNT(X_1 * N_1) FROM D GROUPBY G_1"}) {
      Result<Table> r = service.Select(sql);
      EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange) << sql;
    }
    // The product of 2^62 and -2 is INT64's minimum: in range, exact.
    ASSERT_OK(service.Execute("DELETE FROM D WHERE G = 2").status());
    ASSERT_OK(service
                  .Execute("INSERT INTO D VALUES (2, 4611686018427387904, -2)")
                  .status());
    ASSERT_OK_AND_ASSIGN(
        Table t, service.Select("SELECT MIN(X_1 * N_1) FROM D WHERE G_1 = 2"));
    ASSERT_EQ(t.num_rows(), 1u);
    EXPECT_EQ(t.rows()[0][0],
              Value::Int64(std::numeric_limits<int64_t>::min()));
  }
}

// A view folding a scaled SUM refuses a write whose product overflows:
// the maintainer hands it to the recompute, which fails with kOutOfRange
// before anything is published.
TEST(SumOverflowTest, MaintainedViewRefusesAWriteWhoseProductOverflows) {
  QueryService service;
  ASSERT_OK(service.Execute("CREATE TABLE D(G, X, N)").status());
  ASSERT_OK(service.Execute("INSERT INTO D VALUES (1, 3, 5)").status());
  ASSERT_OK(service
                .Execute("CREATE MATERIALIZED VIEW DV AS SELECT G_1, "
                         "SUM(X_1 * N_1) AS S, COUNT(X_1) AS C FROM D "
                         "GROUPBY G_1")
                .status());
  Result<StatementResult> wrapped =
      service.Execute("INSERT INTO D VALUES (1, 4611686018427387904, 4)");
  EXPECT_EQ(wrapped.status().code(), StatusCode::kOutOfRange);
  ASSERT_OK_AND_ASSIGN(Table base, service.Select("SELECT COUNT(X_1) FROM D"));
  EXPECT_EQ(base.rows()[0][0], Value::Int64(1));
  ASSERT_OK(service.Execute("INSERT INTO D VALUES (1, 2, 7)").status());
  ServiceSnapshotPtr snap = service.PinSnapshot();
  ASSERT_OK_AND_ASSIGN(const Table* dv, snap->db.Get("DV"));
  ASSERT_EQ(dv->num_rows(), 1u);
  EXPECT_EQ(dv->rows()[0][1], Value::Int64(15 + 14));
}

// UPDATE's INT64 SET arithmetic is checked: a result outside INT64 refuses
// the statement and leaves the table as it was.
TEST(SumOverflowTest, UpdateArithmeticRefusesToWrap) {
  for (bool vectorized : {true, false}) {
    SCOPED_TRACE(vectorized ? "vectorized" : "row engine");
    ServiceOptions options;
    options.vectorized = vectorized;
    QueryService service(options);
    ASSERT_OK(service.Execute("CREATE TABLE D(G, X)").status());
    ASSERT_OK(service
                  .Execute("INSERT INTO D VALUES (1, 9223372036854775807), "
                           "(2, -9223372036854775807), "
                           "(3, 4611686018427387904)")
                  .status());
    for (const char* sql : {"UPDATE D SET X = X + 1 WHERE G = 1",
                            "UPDATE D SET X = X - 2 WHERE G = 2",
                            "UPDATE D SET X = X * 2 WHERE G = 3"}) {
      Result<StatementResult> r = service.Execute(sql);
      EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange) << sql;
    }
    ASSERT_OK_AND_ASSIGN(
        Table t, service.Select("SELECT G_1, X_1 FROM D WHERE G_1 = 1"));
    ASSERT_EQ(t.num_rows(), 1u);
    EXPECT_EQ(t.rows()[0][1],
              Value::Int64(std::numeric_limits<int64_t>::max()));
    // In range stays exact: 2^62 * -2 is INT64's minimum.
    ASSERT_OK(service.Execute("UPDATE D SET X = X * -2 WHERE G = 3").status());
    ASSERT_OK_AND_ASSIGN(Table u,
                         service.Select("SELECT X_1 FROM D WHERE G_1 = 3"));
    ASSERT_EQ(u.num_rows(), 1u);
    EXPECT_EQ(u.rows()[0][0],
              Value::Int64(std::numeric_limits<int64_t>::min()));
  }
}

// INT64 values beyond 2^53 share a double; WHERE, DELETE and MIN/MAX must
// still tell them apart (both engines).
TEST(Int64ExactTest, ComparisonsBeyondTwoToThe53AreExact) {
  for (bool vectorized : {true, false}) {
    SCOPED_TRACE(vectorized ? "vectorized" : "row engine");
    ServiceOptions options;
    options.vectorized = vectorized;
    QueryService service(options);
    ASSERT_OK(service.Execute("CREATE TABLE T (Id, V)").status());
    ASSERT_OK(service
                  .Execute("INSERT INTO T VALUES (9007199254740992, 1), "
                           "(9007199254740993, 2)")
                  .status());
    ASSERT_OK_AND_ASSIGN(
        Table eq, service.Select("SELECT Id_1, V_1 FROM T "
                                 "WHERE Id_1 = 9007199254740993"));
    ASSERT_EQ(eq.num_rows(), 1u);
    EXPECT_EQ(eq.rows()[0][1], Value::Int64(2));
    ASSERT_OK_AND_ASSIGN(
        Table gt,
        service.Select("SELECT V_1 FROM T WHERE Id_1 > 9007199254740992"));
    ASSERT_EQ(gt.num_rows(), 1u);
    EXPECT_EQ(gt.rows()[0][0], Value::Int64(2));
    ASSERT_OK_AND_ASSIGN(Table mx,
                         service.Select("SELECT MAX(Id_1), MIN(Id_1) FROM T"));
    ASSERT_EQ(mx.num_rows(), 1u);
    EXPECT_EQ(mx.rows()[0][0], Value::Int64(9007199254740993));
    EXPECT_EQ(mx.rows()[0][1], Value::Int64(9007199254740992));
    ASSERT_OK(
        service.Execute("DELETE FROM T WHERE Id = 9007199254740993").status());
    ASSERT_OK_AND_ASSIGN(Table left, service.Select("SELECT Id_1, V_1 FROM T"));
    ASSERT_EQ(left.num_rows(), 1u);
    EXPECT_EQ(left.rows()[0][0], Value::Int64(9007199254740992));
  }
}

// An INT64 and an integral DOUBLE that compare equal hash equal across the
// whole INT64 range, so GROUP BY and DISTINCT put them in one class (both
// engines). Still open: a mixed INT64/DOUBLE pair compares through the
// double, which rounds above 2^53, so 2^63-1 equals 2^63.0 without sharing
// its hash; and NaN compares equal to every number. Both need one total
// value order.
TEST(Int64ExactTest, IntegralDoubleHashesLikeTheEqualInt64) {
  for (bool vectorized : {true, false}) {
    SCOPED_TRACE(vectorized ? "vectorized" : "row engine");
    ServiceOptions options;
    options.vectorized = vectorized;
    QueryService service(options);
    ASSERT_OK(service.Execute("CREATE TABLE H (K, V)").status());
    ASSERT_OK(service
                  .Execute("INSERT INTO H VALUES (9000000000000000000, 1), "
                           "(9e18, 1), (-9223372036854775808, 2), "
                           "(-9.223372036854775808e18, 2)")
                  .status());
    ASSERT_OK_AND_ASSIGN(
        Table groups,
        service.Select("SELECT K_1, COUNT(V_1) AS N FROM H GROUPBY K_1"));
    ASSERT_EQ(groups.num_rows(), 2u);
    for (const Row& row : groups.rows()) EXPECT_EQ(row[1], Value::Int64(2));
    ASSERT_OK_AND_ASSIGN(Table distinct,
                         service.Select("SELECT DISTINCT K_1 FROM H"));
    EXPECT_EQ(distinct.num_rows(), 2u);
  }
  EXPECT_EQ(Value::Double(-0x1p63).Hash(),
            Value::Int64(std::numeric_limits<int64_t>::min()).Hash());
  EXPECT_EQ(Value::Double(9e18).Hash(),
            Value::Int64(9000000000000000000).Hash());
}

// Literals the lexer cannot hold are clean errors, never a crash; INT64
// min is writable because a sign folds into its literal.
TEST(Int64ExactTest, OutOfRangeLiteralsAreCleanErrors) {
  QueryService service;
  ASSERT_OK(service.Execute("CREATE TABLE T (A, B)").status());
  for (const char* stmt :
       {"SELECT A_1 FROM T WHERE A_1 = 99999999999999999999",
        "INSERT INTO T VALUES (99999999999999999999, 1)",
        "INSERT INTO T VALUES (1e999, 1)",
        "SELECT A_1 FROM T WHERE A_1 = -1e999",
        "UPDATE T SET B = B + 99999999999999999999 WHERE A = 1",
        "DELETE FROM T WHERE A = 9223372036854775808"}) {
    SCOPED_TRACE(stmt);
    Result<StatementResult> r = service.Execute(stmt);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().ToString().find("out of range at offset"),
              std::string::npos)
        << r.status().ToString();
  }
  ASSERT_OK(service
                .Execute("INSERT INTO T VALUES (-9223372036854775808, 1), "
                         "(9223372036854775807, 2)")
                .status());
  ASSERT_OK_AND_ASSIGN(
      Table min, service.Select("SELECT B_1 FROM T WHERE A_1 = "
                                "-9223372036854775808"));
  ASSERT_EQ(min.num_rows(), 1u);
  EXPECT_EQ(min.rows()[0][0], Value::Int64(1));
  ASSERT_OK_AND_ASSIGN(Table all,
                       service.Select("SELECT MIN(A_1), MAX(A_1) FROM T"));
  ASSERT_EQ(all.num_rows(), 1u);
  EXPECT_EQ(all.rows()[0][0],
            Value::Int64(std::numeric_limits<int64_t>::min()));
  EXPECT_EQ(all.rows()[0][1],
            Value::Int64(std::numeric_limits<int64_t>::max()));
}

}  // namespace
}  // namespace aqv
