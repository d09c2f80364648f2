// Chunked, structurally shared table versions: chunk layout, copy-on-write
// per chunk (a write replaces only the chunks it touches; every other chunk
// of the new version is pointer-equal to its predecessor's), zone-map
// pruning (a key-equality delete scans one chunk), multiset delete
// semantics across chunk boundaries, and MVCC accounting that charges a
// pinned version only for the chunks the current version no longer shares.

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/operators.h"
#include "exec/table.h"
#include "exec/vectorized.h"
#include "tests/test_util.h"

namespace aqv {
namespace {

/// K(i) = i (unique, ascending, so each chunk covers one K range), G = i % 7.
Table KeyedTable(size_t rows) {
  std::vector<Row> data;
  data.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    data.push_back(Row{Value::Int64(static_cast<int64_t>(i)),
                       Value::Int64(static_cast<int64_t>(i % 7))});
  }
  Table t({"K", "G"});
  EXPECT_OK(t.AddRows(std::move(data)));
  return t;
}

Row KeyRow(int64_t k) { return Row{Value::Int64(k), Value::Int64(k % 7)}; }

/// Chunk ordinals whose pointer differs between two versions (compared up
/// to the shorter chunk list).
std::vector<size_t> ChangedChunks(const Table& before, const Table& after) {
  std::vector<size_t> changed;
  size_t n = std::min(before.chunks().size(), after.chunks().size());
  for (size_t c = 0; c < n; ++c) {
    if (before.chunks()[c] != after.chunks()[c]) changed.push_back(c);
  }
  return changed;
}

const size_t kRows = 3 * kChunkRows + 100;  // three full chunks and a tail

TEST(TableChunkTest, RowsAreChunkedInOrder) {
  Table t = KeyedTable(kRows);
  ASSERT_EQ(t.chunks().size(), 4u);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(t.chunks()[c]->num_rows(), kChunkRows);
  }
  EXPECT_EQ(t.chunks()[3]->num_rows(), 100u);
  EXPECT_EQ(t.num_rows(), kRows);
  EXPECT_EQ(t.rows().size(), kRows);
  int64_t expect = 0;
  for (const Row& row : t.rows()) {
    ASSERT_EQ(row[0], Value::Int64(expect));
    ++expect;
  }
  EXPECT_EQ(expect, static_cast<int64_t>(kRows));
  EXPECT_EQ(t.rows()[kChunkRows][0], Value::Int64(kChunkRows));
  std::vector<Row> copy = t.rows();
  EXPECT_EQ(copy.size(), kRows);
  // Zone maps bound each chunk's key range.
  const ZoneMap& z = t.chunks()[1]->zone(0);
  EXPECT_EQ(z.num_min, static_cast<double>(kChunkRows));
  EXPECT_EQ(z.num_max, static_cast<double>(2 * kChunkRows - 1));
  EXPECT_EQ(z.null_count, 0u);
}

TEST(TableChunkTest, SingleRowInsertRewritesOnlyTheTail) {
  Table before = KeyedTable(kRows);
  Table after = before;
  ASSERT_OK(after.AddRow(KeyRow(-1)));
  ASSERT_EQ(after.chunks().size(), before.chunks().size());
  EXPECT_EQ(ChangedChunks(before, after), std::vector<size_t>{3});
  // The old version still reads as it did.
  EXPECT_EQ(before.num_rows(), kRows);
  EXPECT_EQ(before.chunks()[3]->num_rows(), 100u);
  EXPECT_EQ(after.chunks()[3]->num_rows(), 101u);
}

TEST(TableChunkTest, InsertIntoAFullTailStartsANewChunk) {
  Table before = KeyedTable(2 * kChunkRows);
  Table after = before;
  ASSERT_OK(after.AddRow(KeyRow(-1)));
  ASSERT_EQ(after.chunks().size(), 3u);
  EXPECT_TRUE(ChangedChunks(before, after).empty());
  EXPECT_EQ(after.chunks()[2]->num_rows(), 1u);
}

TEST(TableChunkTest, KeyEqualityDeleteScansAndRewritesOneChunk) {
  Table before = KeyedTable(kRows);
  Table after = before;
  size_t scanned = 0;
  const int64_t victim = kChunkRows + 5;  // in chunk 1
  ASSERT_OK(after.RemoveRows({KeyRow(victim)}, &scanned));
  EXPECT_EQ(scanned, 1u);
  EXPECT_EQ(ChangedChunks(before, after), std::vector<size_t>{1});
  EXPECT_EQ(after.num_rows(), kRows - 1);
  EXPECT_EQ(after.chunks()[1]->num_rows(), kChunkRows - 1);
  // The chunk's first and last keys sit on its zone bounds.
  for (int64_t edge : {static_cast<int64_t>(kChunkRows),
                       static_cast<int64_t>(2 * kChunkRows) - 1}) {
    ASSERT_OK(after.RemoveRows({KeyRow(edge)}, &scanned));
    EXPECT_EQ(scanned, 1u);
  }
  EXPECT_EQ(after.chunks()[1]->num_rows(), kChunkRows - 3);

  // The WHERE that finds the victim visits that one chunk too.
  size_t where_scanned = 0;
  std::vector<Predicate> where = {{Operand::Column("K"), CmpOp::kEq,
                                   Operand::Constant(Value::Int64(victim))}};
  auto hits = SelectRows(before, where, {{"K", 0}, {"G", 1}}, &where_scanned);
  EXPECT_EQ(where_scanned, 1u);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].first, 1u);
  EXPECT_EQ(hits[0].second, SelVector{5});
}

TEST(TableChunkTest, UpdateInAMiddleChunkRewritesThatChunkAndTheTail) {
  // UPDATE is delete + insert: the row leaves its chunk and lands in the
  // tail; the chunks in between keep their pointers.
  Table before = KeyedTable(kRows);
  Table after = before;
  const int64_t victim = kChunkRows + 9;
  Row updated = KeyRow(victim);
  updated[1] = Value::Int64(100);
  ASSERT_OK(after.AddRow(updated));
  ASSERT_OK(after.RemoveRows({KeyRow(victim)}));
  EXPECT_EQ(ChangedChunks(before, after), (std::vector<size_t>{1, 3}));
  EXPECT_EQ(after.num_rows(), kRows);
  EXPECT_EQ(after.rows()[after.num_rows() - 1], updated);
}

TEST(TableChunkTest, DeletingAWholeChunkDropsIt) {
  Table before = KeyedTable(kRows);
  Table after = before;
  std::vector<Row> chunk1;
  for (size_t i = kChunkRows; i < 2 * kChunkRows; ++i) {
    chunk1.push_back(KeyRow(static_cast<int64_t>(i)));
  }
  ASSERT_OK(after.RemoveRows(chunk1));
  ASSERT_EQ(after.chunks().size(), 3u);
  EXPECT_EQ(after.chunks()[0], before.chunks()[0]);
  EXPECT_EQ(after.chunks()[1], before.chunks()[2]);
  EXPECT_EQ(after.chunks()[2], before.chunks()[3]);
  EXPECT_EQ(after.num_rows(), kRows - kChunkRows);
  EXPECT_EQ(after.rows()[kChunkRows][0], Value::Int64(2 * kChunkRows));
}

TEST(TableChunkTest, RemoveRowsKeepsBagSemanticsAcrossChunks) {
  // Duplicates in different chunks: each delete row removes one occurrence,
  // the first in row order; SQL-equal values (1 and 1.0) match.
  Table t({"A"});
  for (size_t i = 0; i < 2 * kChunkRows + 10; ++i) {
    t.AddRowOrDie(Row{Value::Int64(static_cast<int64_t>(i % 3))});
  }
  Table after = t;
  ASSERT_OK(after.RemoveRows({Row{Value::Double(1.0)}, Row{Value::Int64(1)}}));
  EXPECT_EQ(after.num_rows(), t.num_rows() - 2);
  EXPECT_EQ(ChangedChunks(t, after), std::vector<size_t>{0});
  // Missing rows are refused and leave the table untouched.
  Table refused = t;
  Status s = refused.RemoveRows({Row{Value::Int64(1)}, Row{Value::Int64(9)}});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(refused.num_rows(), t.num_rows());
  EXPECT_TRUE(ChangedChunks(t, refused).empty());
  // Asking for more copies than exist is refused too.
  std::vector<Row> too_many(t.num_rows(), Row{Value::Int64(2)});
  EXPECT_FALSE(refused.RemoveRows(too_many).ok());
}

TEST(TableChunkTest, ZoneMapsAnswerConservatively) {
  ZoneMap z;
  z.Add(Value::Int64(5));
  z.Add(Value::Double(7.5));
  z.Add(Value::Null());
  z.Add(Value::String("m"));
  EXPECT_TRUE(z.MayContain(Value::Double(5.0)));
  EXPECT_TRUE(z.MayContain(Value::Int64(6)));
  EXPECT_FALSE(z.MayContain(Value::Int64(8)));
  EXPECT_TRUE(z.MayContain(Value::Null()));
  EXPECT_TRUE(z.MayContain(Value::String("m")));
  EXPECT_FALSE(z.MayContain(Value::String("z")));
  // NaN compares equal to every number in the row engine: a zone holding
  // one may contain anything numeric, and a NaN probe fits any number.
  ZoneMap nan;
  nan.Add(Value::Int64(1));
  nan.Add(Value::Double(std::nan("")));
  EXPECT_TRUE(nan.MayContain(Value::Int64(1000)));
  EXPECT_TRUE(z.MayContain(Value::Double(std::nan(""))));
  ZoneMap strings_only;
  strings_only.Add(Value::String("a"));
  EXPECT_FALSE(strings_only.MayContain(Value::Int64(1)));
  EXPECT_FALSE(strings_only.MayContain(Value::Null()));
}

TEST(TableChunkTest, SelectRowsPrunesByZoneAndFallsBackOnMixedChunks) {
  // Chunk 0 is typed INT64; chunk 1 mixes INT64 and strings in column A
  // (a kMixed image), so it runs on the row engine; both report matches.
  Table t({"A", "B"});
  for (size_t i = 0; i < kChunkRows; ++i) {
    t.AddRowOrDie(Row{Value::Int64(static_cast<int64_t>(i)), Value::Int64(0)});
  }
  for (size_t i = 0; i < 10; ++i) {
    t.AddRowOrDie(Row{i % 2 == 0 ? Value::Int64(static_cast<int64_t>(i))
                                 : Value::String("s"),
                      Value::Int64(1)});
  }
  ColumnIndexMap layout{{"A", 0}, {"B", 1}};
  size_t scanned = 0;
  auto eq4 = SelectRows(t, {{Operand::Column("A"), CmpOp::kEq,
                             Operand::Constant(Value::Int64(4))}},
                        layout, &scanned);
  EXPECT_EQ(scanned, 2u);
  ASSERT_EQ(eq4.size(), 2u);
  EXPECT_EQ(eq4[1].second, SelVector{4});
  // B = 1 only holds in chunk 1: chunk 0's zone (B in [0, 0]) is skipped.
  auto b1 = SelectRows(t, {{Operand::Column("B"), CmpOp::kEq,
                            Operand::Constant(Value::Int64(1))}},
                       layout, &scanned);
  EXPECT_EQ(scanned, 1u);
  ASSERT_EQ(b1.size(), 1u);
  EXPECT_EQ(b1[0].second.size(), 10u);
  // A NULL constant matches nothing and scans nothing.
  auto none = SelectRows(t, {{Operand::Column("A"), CmpOp::kEq,
                              Operand::Constant(Value::Null())}},
                         layout, &scanned);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(scanned, 0u);
}

// Zone-map pruning must never drop a row: at every chunk boundary and for
// every comparison, SelectRows returns exactly the rows FilterRows keeps.
TEST(TableChunkTest, SelectRowsMatchesTheRowEngineAtChunkBoundaries) {
  Table t = KeyedTable(kRows);
  ColumnIndexMap layout{{"K", 0}, {"G", 1}};
  const std::vector<Row> all = t.rows();
  const int64_t edges[] = {0,
                           static_cast<int64_t>(kChunkRows) - 1,
                           static_cast<int64_t>(kChunkRows),
                           static_cast<int64_t>(2 * kChunkRows) - 1,
                           static_cast<int64_t>(kRows) - 1,
                           static_cast<int64_t>(kRows)};
  for (int64_t edge : edges) {
    for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe,
                     CmpOp::kGt, CmpOp::kGe}) {
      for (Value c : {Value::Int64(edge),
                      Value::Double(static_cast<double>(edge) + 0.5)}) {
        std::vector<Predicate> where = {
            {Operand::Column("K"), op, Operand::Constant(c)}};
        SCOPED_TRACE("K " + std::string(CmpOpToString(op)) + " " +
                     c.ToString());
        std::vector<Row> got;
        for (const auto& [chunk, sel] : SelectRows(t, where, layout)) {
          for (uint32_t r : sel) got.push_back(t.chunks()[chunk]->rows()[r]);
        }
        EXPECT_EQ(got, FilterRows(all, where, layout));
      }
    }
  }
}

TEST(TableChunkTest, PinnedVersionCostsOnlyItsUnsharedChunks) {
  Database db;
  db.Put("T", KeyedTable(kRows));
  TablePtr pinned = db.GetShared("T");  // a snapshot reader holds it
  for (const ChunkPtr& chunk : pinned->chunks()) chunk->columnar();
  Table next = *pinned;
  ASSERT_OK(next.AddRow(KeyRow(-1)));
  Database after = db;
  after.Put("T", std::move(next));
  VersionLedger ledger;
  ledger.Retire(db, after);
  db = std::move(after);

  std::vector<TableMvcc> stats = ledger.Stats(db);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].versions_alive, 2u);
  // Only the retired tail chunk is unshared.
  EXPECT_EQ(stats[0].bytes_pinned, pinned->chunks()[3]->ApproxBytes());
  EXPECT_LE(stats[0].bytes_pinned, pinned->chunks()[0]->ApproxBytes());
  EXPECT_LT(stats[0].bytes_pinned, pinned->ApproxBytes() / 10);
  pinned.reset();
  EXPECT_EQ(ledger.Stats(db)[0].bytes_pinned, 0u);
}

}  // namespace
}  // namespace aqv
