// Chunked, structurally shared table versions: chunk layout, copy-on-write
// per chunk (a write replaces only the chunks it touches; every other chunk
// of the new version is pointer-equal to its predecessor's), zone-map
// pruning (a key-equality delete scans one chunk), multiset delete
// semantics across chunk boundaries, and MVCC accounting that charges a
// pinned version only for the chunks the current version no longer shares.
// The last two tests are randomized oracles: writes against a plain
// vector<Row> model, with every chunk's columns, zone maps and INT64 bounds
// checked exact after each step; the second keeps every column typed and
// NULL-free.

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <set>
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
          for (uint32_t r : sel) got.push_back(t.chunks()[chunk]->RowAt(r));
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

// ---------------------------------------------------------------------------
// Randomized oracle: a chunked table against a plain vector<Row> model.

/// Same type and same bits: INT64 1 is not DOUBLE 1.0, -0.0 is not 0.0.
bool Identical(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt64:
      return a.int64() == b.int64();
    case ValueType::kDouble:
      return std::bit_cast<uint64_t>(a.dbl()) ==
             std::bit_cast<uint64_t>(b.dbl());
    case ValueType::kString:
      return a.str() == b.str();
  }
  return false;
}

std::string Show(const Row& row) {
  std::string out;
  for (const Value& v : row) {
    out += (v.is_null() ? std::string("NULL")
                        : std::string(ValueTypeToString(v.type())) + ":" +
                              v.ToString()) +
           " ";
  }
  return out;
}

/// Column `got` is exactly the column FromRows built (`want`).
void ExpectSameColumn(const Column& got, const Column& want) {
  EXPECT_EQ(got.type, want.type);
  EXPECT_EQ(got.typed, want.typed);
  EXPECT_EQ(got.has_nulls, want.has_nulls);
  EXPECT_EQ(got.null_words, want.null_words);
  EXPECT_EQ(got.i64, want.i64);
  ASSERT_EQ(got.f64.size(), want.f64.size());
  for (size_t i = 0; i < got.f64.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got.f64[i]),
              std::bit_cast<uint64_t>(want.f64[i]));
  }
  EXPECT_EQ(got.codes, want.codes);
  EXPECT_EQ(got.dict, want.dict);
  ASSERT_EQ(got.mixed.size(), want.mixed.size());
  for (size_t i = 0; i < got.mixed.size(); ++i) {
    EXPECT_TRUE(Identical(got.mixed[i], want.mixed[i]));
  }
  EXPECT_EQ(got.i64_min, want.i64_min);
  EXPECT_EQ(got.i64_max, want.i64_max);
}

/// A chunk ExpectHolds has checked, where it sat and how many rows it
/// held then. Holding the pointer keeps its address from being reused.
struct CheckedChunk {
  ChunkPtr chunk;
  size_t offset = 0;
  size_t rows = 0;
};

/// `t` holds exactly `model`, in order; every chunk is non-empty and at
/// most kChunkRows, its columns are the image FromRows builds from its
/// rows, and its zone maps and INT64 bounds are exact. With `checked`
/// given, a chunk found there at the same offset and size is not checked
/// again (a shared chunk never changes; an owned tail only grows), and
/// `checked` is left holding the chunks of `t`.
void ExpectHolds(const Table& t, const std::vector<Row>& model,
                 std::vector<CheckedChunk>* checked = nullptr) {
  ASSERT_EQ(t.num_rows(), model.size());
  std::vector<CheckedChunk> now;
  size_t at = 0;
  for (size_t c = 0; c < t.chunks().size(); ++c) {
    SCOPED_TRACE("chunk " + std::to_string(c));
    const ChunkPtr& ptr = t.chunks()[c];
    const Chunk& chunk = *ptr;
    ASSERT_GT(chunk.num_rows(), 0u);
    ASSERT_LE(chunk.num_rows(), kChunkRows);
    ASSERT_LE(at + chunk.num_rows(), model.size());
    now.push_back(CheckedChunk{ptr, at, chunk.num_rows()});
    if (checked != nullptr &&
        std::any_of(checked->begin(), checked->end(),
                    [&](const CheckedChunk& seen) {
                      return seen.chunk == ptr && seen.offset == at &&
                             seen.rows == chunk.num_rows();
                    })) {
      at += chunk.num_rows();
      continue;
    }
    std::vector<Row> slice(model.begin() + at,
                           model.begin() + at + chunk.num_rows());
    for (size_t r = 0; r < slice.size(); ++r) {
      Row got = chunk.RowAt(r);
      bool same = got.size() == slice[r].size();
      for (size_t i = 0; same && i < got.size(); ++i) {
        same = Identical(got[i], slice[r][i]);
      }
      ASSERT_TRUE(same) << "row " << at + r << ": got " << Show(got)
                        << "want " << Show(slice[r]);
    }
    ColumnarTable want = ColumnarTable::FromRows(slice, t.num_columns());
    for (int col = 0; col < t.num_columns(); ++col) {
      SCOPED_TRACE("column " + std::to_string(col));
      ExpectSameColumn(chunk.columnar().col(col), want.col(col));
      // Zone maps: the NULL count is the real one, the bounds are tight.
      ZoneMap exact;
      int64_t lo = std::numeric_limits<int64_t>::max();
      int64_t hi = std::numeric_limits<int64_t>::min();
      for (const Row& row : slice) {
        const Value& v = row[static_cast<size_t>(col)];
        exact.Add(v);
        if (v.type() == ValueType::kInt64) {
          lo = std::min(lo, v.int64());
          hi = std::max(hi, v.int64());
        }
      }
      const ZoneMap& zone = chunk.zone(col);
      EXPECT_EQ(zone.null_count, exact.null_count);
      EXPECT_EQ(zone.has_num, exact.has_num);
      if (exact.has_num) {
        EXPECT_EQ(zone.num_min, exact.num_min);
        EXPECT_EQ(zone.num_max, exact.num_max);
      }
      EXPECT_EQ(zone.has_str, exact.has_str);
      if (exact.has_str) {
        EXPECT_EQ(zone.str_min, exact.str_min);
        EXPECT_EQ(zone.str_max, exact.str_max);
      }
      if (chunk.columnar().col(col).type == ColumnType::kInt64) {
        EXPECT_EQ(chunk.columnar().col(col).i64_min, lo);
        EXPECT_EQ(chunk.columnar().col(col).i64_max, hi);
      }
    }
    at += chunk.num_rows();
  }
  EXPECT_EQ(at, model.size());
  if (checked != nullptr) *checked = std::move(now);
}

/// The positions the model's delete removes: one occurrence per deleted
/// row, the first in row order, matched with RowEq as Table::LocateRows
/// matches (directly for up to four distinct wanted rows, by hash beyond).
/// Fewer positions than `rows` if some row is not present.
std::vector<size_t> ModelLocate(const std::vector<Row>& rows,
                                const std::vector<Row>& model) {
  RowCounts needed;
  for (const Row& row : rows) ++needed[row];
  std::vector<size_t> gone;
  int64_t remaining = static_cast<int64_t>(rows.size());
  for (size_t i = 0; i < model.size() && remaining > 0; ++i) {
    auto it = needed.end();
    if (needed.size() <= 4) {
      for (auto w = needed.begin(); w != needed.end(); ++w) {
        if (w->second > 0 && RowEq()(w->first, model[i])) {
          it = w;
          break;
        }
      }
    } else {
      it = needed.find(model[i]);
    }
    if (it == needed.end() || it->second <= 0) continue;
    --it->second;
    --remaining;
    gone.push_back(i);
  }
  return gone;
}

/// The model's delete (see ModelLocate). False, leaving `model` unchanged,
/// if some row is not present.
bool ModelRemove(const std::vector<Row>& rows, std::vector<Row>* model) {
  const std::vector<size_t> gone = ModelLocate(rows, *model);
  if (gone.size() != rows.size()) return false;
  std::vector<Row> kept;
  kept.reserve(model->size() - rows.size());
  size_t next = 0;
  for (size_t i = 0; i < model->size(); ++i) {
    if (next < gone.size() && gone[next] == i) {
      ++next;
    } else {
      kept.push_back(std::move((*model)[i]));
    }
  }
  *model = std::move(kept);
  return true;
}

// The typed probe in LocateRows finds the rows Column::Equals finds, on the
// values where a typed compare could differ from it: INT64 against DOUBLE
// (1 and 1.0; 2^53 and 2^53 + 1, one double apart), -0.0 against 0.0, the
// infinities, a NaN (stored or wanted; the C++ API does not refuse it) and
// NULL. A stored row that equals two wanted rows is taken once.
TEST(TableChunkTest, TypedProbeFindsWhatEqualsFinds) {
  const int64_t two53 = int64_t{1} << 53;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto i = [](int64_t x) { return Value::Int64(x); };
  auto d = [](double x) { return Value::Double(x); };
  // Each table: column 0 holds the edge values (its type set by them), and
  // column 1 a small tag.
  const std::vector<std::vector<Value>> stored = {
      {i(0), i(1), i(two53), i(two53 + 1), i(-1), i(1), i(two53),
       i(std::numeric_limits<int64_t>::min()),
       i(std::numeric_limits<int64_t>::max())},
      {i(0), Value::Null(), i(1), Value::Null(), i(two53 + 1)},
      {d(0.0), d(-0.0), d(1.0), d(inf), d(-inf), d(2.5), d(0.0),
       d(9007199254740992.0), d(inf)},
      {d(2.0), d(nan), d(1.0), d(2.0), d(nan), d(1.0)},
      {d(1.0), Value::Null(), d(-0.0), Value::Null()},
      {i(1), d(1.0), Value::String("1"), Value::Null(), i(two53 + 1)},
  };
  const std::vector<Value> wanted_values = {
      i(0),       i(1),           d(1.0),          i(two53),
      i(two53 + 1), d(9007199254740992.0), d(0.0), d(-0.0),
      d(inf),     d(-inf),        d(nan),          d(2.0),
      d(2.5),     Value::Null(),  Value::String("1"), i(7)};
  size_t compared = 0;
  for (size_t s = 0; s < stored.size(); ++s) {
    for (bool edge_first : {true, false}) {
      std::vector<Row> model;
      for (size_t r = 0; r < stored[s].size(); ++r) {
        Row row{stored[s][r], Value::Int64(static_cast<int64_t>(r % 2))};
        if (!edge_first) std::swap(row[0], row[1]);
        model.push_back(std::move(row));
      }
      Table t({"A", "B"});
      ASSERT_OK(t.AddRows(model));
      // The typed loop marks exactly the rows Equals accepts.
      const ColumnarTable& cols = t.chunks()[0]->columnar();
      for (int col = 0; col < 2; ++col) {
        for (const Value& v : wanted_values) {
          std::vector<uint64_t> bits((cols.num_rows() + 63) / 64, 0);
          cols.col(col).MarkEquals(cols.num_rows(), v, bits.data());
          for (size_t r = 0; r < cols.num_rows(); ++r) {
            EXPECT_EQ((bits[r >> 6] >> (r & 63)) & 1,
                      cols.col(col).Equals(r, v) ? 1u : 0u)
                << "table " << s << " column " << col << " row " << r
                << " value " << v.ToString();
          }
        }
      }
      auto wanted_row = [&](const Value& v, int64_t tag) {
        Row row{v, Value::Int64(tag)};
        if (!edge_first) std::swap(row[0], row[1]);
        return row;
      };
      // One wanted row; two that one stored row may both equal; and a
      // batch of four distinct ones (the direct path's limit).
      std::vector<std::vector<Row>> deletes;
      for (size_t a = 0; a < wanted_values.size(); ++a) {
        for (int64_t tag : {0, 1}) {
          deletes.push_back({wanted_row(wanted_values[a], tag)});
          const Value& b = wanted_values[(a + 1 + static_cast<size_t>(tag)) %
                                         wanted_values.size()];
          deletes.push_back(
              {wanted_row(wanted_values[a], tag), wanted_row(b, tag)});
          deletes.push_back({wanted_row(wanted_values[a], tag),
                             wanted_row(b, tag), wanted_row(d(1.0), 1 - tag),
                             wanted_row(i(two53), tag)});
        }
      }
      for (const std::vector<Row>& rows : deletes) {
        SCOPED_TRACE("table " + std::to_string(s) +
                     (edge_first ? "" : " swapped") + ", delete " +
                     Show(rows[0]) + "...");
        const std::vector<size_t> want = ModelLocate(rows, model);
        RowCounts needed;
        for (const Row& row : rows) ++needed[row];
        std::vector<size_t> got;
        for (const auto& [chunk, hits] : t.LocateRows(&needed, {0, 1})) {
          ASSERT_EQ(chunk, 0u);
          got.insert(got.end(), hits.begin(), hits.end());
        }
        EXPECT_EQ(got, want);
        if (want.size() == rows.size()) ++compared;
      }
    }
  }
  EXPECT_GT(compared, 100u);
}

TEST(TableChunkOracleTest, RandomWritesMatchARowVectorModel) {
  const uint64_t seed = TestSeed(31000);
  SCOPED_TRACE(SeedTrace(seed));
  std::mt19937_64 rng(seed);
  auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };
  const int64_t two53 = int64_t{1} << 53;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  int64_t unique = 0;
  // The phase decides how mixed the columns are, so chunks go typed,
  // degrade to kMixed, and (once a delete drops the odd values) come back.
  int phase = 0;
  auto random_row = [&]() {
    Value k;
    switch (pick(phase == 0 ? 8 : 12)) {
      case 0:
        k = Value::Int64(two53);
        break;
      case 1:
        k = Value::Int64(two53 + 1);
        break;
      case 2:
        k = Value::Int64(std::numeric_limits<int64_t>::min());
        break;
      case 8:
      case 9:
        k = phase == 1 ? Value::Double(static_cast<double>(pick(40)))
                       : Value::Null();
        break;
      default:
        k = Value::Int64(static_cast<int64_t>(pick(40)));
    }
    static const double kDoubles[] = {1.0, -0.0, 0.0, 2.5, 9007199254740992.0};
    Value n;
    switch (pick(phase == 0 ? 6 : 10)) {
      case 0:
        n = Value::Double(nan);
        break;
      case 6:
        n = Value::Int64(1);
        break;
      case 7:
        n = Value::Int64(two53 + 1);
        break;
      case 8:
        n = Value::Null();
        break;
      case 9:
        n = Value::String("n");
        break;
      default:
        n = Value::Double(kDoubles[pick(5)]);
    }
    static const char* kStrings[] = {"a", "b", "c", ""};
    Value s = pick(10) == 0   ? Value::Null()
              : pick(3) == 0  ? Value::String("u" + std::to_string(unique++))
                              : Value::String(kStrings[pick(4)]);
    Value z = pick(20) == 0 ? Value::Int64(static_cast<int64_t>(pick(3)))
                            : Value::Null();
    return Row{std::move(k), std::move(n), std::move(s), std::move(z)};
  };
  auto random_rows = [&](size_t count) {
    std::vector<Row> rows;
    for (size_t i = 0; i < count; ++i) rows.push_back(random_row());
    return rows;
  };
  // Up to `count` distinct rows of `model`, some with a numeric value
  // swapped for an equal one of the other type (DOUBLE 1.0 for INT64 1).
  auto sample = [&](const std::vector<Row>& model, size_t count) {
    std::set<size_t> at;
    while (at.size() < std::min(count, model.size())) {
      at.insert(pick(model.size()));
    }
    std::vector<Row> rows;
    for (size_t i : at) {
      Row row = model[i];
      Value& k = row[0];
      if (pick(4) == 0 && k.type() == ValueType::kInt64 &&
          k.int64() > -1000 && k.int64() < 1000) {
        k = Value::Double(static_cast<double>(k.int64()));
      }
      rows.push_back(std::move(row));
    }
    return rows;
  };

  Table t({"K", "N", "S", "Z"});
  std::vector<Row> model = random_rows(kChunkRows - 40);  // near a boundary
  ASSERT_OK(t.AddRows(model));
  ExpectHolds(t, model);

  // Removes `rows` from the table and from the model; they must agree on
  // whether every row was present, and a refused delete changes nothing.
  size_t removals = 0;
  auto remove = [&](const std::vector<Row>& rows) {
    std::vector<ChunkPtr> before = t.chunks();
    const bool removed = ModelRemove(rows, &model);
    Status st = t.RemoveRows(rows);
    EXPECT_EQ(st.ok(), removed) << st.ToString();
    if (removed) {
      ++removals;
    } else {
      EXPECT_EQ(t.chunks(), before);
    }
  };

  struct Pin {
    TablePtr table;
    std::vector<Row> rows;
    std::vector<CheckedChunk> checked;
  };
  std::vector<CheckedChunk> checked;
  std::vector<Pin> pins;
  const int kSteps = 120;
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    phase = (step / 20) % 3;
    // Bias toward deletes once the table spans a few chunks.
    const bool big = t.num_rows() > 3 * kChunkRows;
    switch (pick(7)) {
      case 0: {  // one row, in place when this version owns its tail
        Row row = random_row();
        ASSERT_OK(t.AddRow(row));
        model.push_back(std::move(row));
        break;
      }
      case 1: {  // an INSERT batch, now and then one spanning chunks
        if (big) break;
        std::vector<Row> rows =
            random_rows(pick(8) == 0 ? 1 + pick(kChunkRows) : 1 + pick(60));
        ASSERT_OK(t.AddRows(rows));
        model.insert(model.end(), rows.begin(), rows.end());
        break;
      }
      case 2:
      case 3: {  // a DELETE: a few rows, or many, or a whole chunk
        std::vector<Row> rows;
        const size_t kind = pick(6);
        if (kind == 0 && !t.chunks().empty()) {
          const size_t c = pick(t.chunks().size());
          size_t start = 0;
          for (size_t i = 0; i < c; ++i) start += t.chunks()[i]->num_rows();
          rows.assign(model.begin() + start,
                      model.begin() + start + t.chunks()[c]->num_rows());
        } else {
          rows = sample(model, kind == 1 ? 5 + pick(500) : 1 + pick(4));
        }
        if (big && kind == 2) rows = sample(model, kChunkRows / 2);
        if (pick(8) == 0) {
          rows.push_back(Row{Value::Int64(-7), Value::Null(),
                             Value::String("absent"), Value::Null()});
        }
        remove(rows);
        break;
      }
      case 4: {  // an UPDATE: the new rows in, then the old rows out
        std::vector<Row> old = sample(model, 1 + pick(pick(3) == 0 ? 300 : 4));
        std::vector<Row> updated = old;
        for (Row& row : updated) {
          row[1] = pick(3) == 0 ? Value::Null() : Value::Double(1.25);
          if (pick(2) == 0) row[2] = Value::String("upd");
        }
        ASSERT_OK(t.AddRows(updated));
        model.insert(model.end(), updated.begin(), updated.end());
        remove(old);
        break;
      }
      default: {  // pin this version (its tail is shared from now on), or
                  // let an older pin go
        if (pins.size() < 3 && pick(2) == 0) {
          pins.push_back(Pin{std::make_shared<const Table>(t), model, {}});
        } else if (!pins.empty()) {
          pins.erase(pins.begin() + static_cast<std::ptrdiff_t>(
                                         pick(pins.size())));
        }
      }
    }
    ExpectHolds(t, model, &checked);
    for (Pin& pin : pins) {
      SCOPED_TRACE("pinned version");
      ExpectHolds(*pin.table, pin.rows, &pin.checked);
    }
    if (HasFailure()) return;
  }
  ExpectHolds(t, model);
  for (const Pin& pin : pins) ExpectHolds(*pin.table, pin.rows);
  // Most deletes found their rows (a NaN, equal to every number, can make
  // one wanted row take another's match).
  EXPECT_GT(removals, static_cast<size_t>(kSteps / 8));
}

// The NULL-free typed arm: a Calls-shaped table (a clustered INT64 key,
// INT64 and DOUBLE columns, no NULL anywhere), so the typed chunk-rewrite
// kernels run on every write. Deletes hit chunk ends and the rows that hold
// a column's minimum or maximum (its bounds must be rescanned) as well as
// rows strictly inside them (its bounds are kept); UPDATEs are delete plus
// append; appends often land in a tail another version shares.
TEST(TableChunkOracleTest, NullFreeTypedWritesMatchARowVectorModel) {
  const uint64_t seed = TestSeed(32000);
  SCOPED_TRACE(SeedTrace(seed));
  std::mt19937_64 rng(seed);
  auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };
  int64_t next_key = 0;
  auto call = [&]() {
    const int64_t key = next_key++;
    const auto cust = static_cast<int64_t>(pick(200));
    const auto day = static_cast<int64_t>(1 + pick(28));
    const double charge = static_cast<double>(pick(20000)) / 100.0 - 50.0;
    return Row{Value::Int64(key), Value::Int64(cust), Value::Int64(day),
               Value::Double(charge)};
  };

  Table t({"Call_Id", "Cust", "Day", "Charge"});
  std::vector<Row> model;
  for (size_t r = 0; r < 2 * kChunkRows - 60; ++r) model.push_back(call());
  ASSERT_OK(t.AddRows(model));
  ExpectHolds(t, model);

  // Chunk `c`'s first row in the model.
  auto start_of = [&](size_t c) {
    size_t start = 0;
    for (size_t i = 0; i < c; ++i) start += t.chunks()[i]->num_rows();
    return start;
  };
  auto remove = [&](const std::vector<Row>& rows) {
    ASSERT_TRUE(ModelRemove(rows, &model));
    ASSERT_OK(t.RemoveRows(rows));
  };
  auto append = [&](size_t count) {
    std::vector<Row> rows;
    for (size_t i = 0; i < count; ++i) rows.push_back(call());
    ASSERT_OK(count == 1 ? t.AddRow(rows[0]) : t.AddRows(rows));
    model.insert(model.end(), rows.begin(), rows.end());
  };

  std::vector<CheckedChunk> checked;
  std::vector<TablePtr> pins;
  std::vector<std::vector<Row>> pinned_rows;
  const int kSteps = 150;
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const size_t c = pick(t.chunks().size());
    const size_t start = start_of(c);
    const size_t rows = t.chunks()[c]->num_rows();
    switch (pick(6)) {
      case 0:  // a single-row INSERT, or a small batch
        append(pick(3) == 0 ? 2 + pick(40) : 1);
        break;
      case 1: {  // one or two rows at the chunk's ends
        std::vector<Row> victims;
        const size_t kind = pick(3);
        if (kind != 1) victims.push_back(model[start]);
        if (kind != 0 && rows > 1) victims.push_back(model[start + rows - 1]);
        remove(victims);
        break;
      }
      case 2: {  // the row holding a column's minimum or maximum, and maybe a
                 // few more
        const size_t col = 1 + pick(3);
        const bool want_max = pick(2) == 0;
        size_t at = start;
        for (size_t r = start; r < start + rows; ++r) {
          const int cmp = model[r][col].Compare(model[at][col]);
          if (want_max ? cmp > 0 : cmp < 0) at = r;
        }
        std::set<size_t> victims{at};
        for (size_t extra = pick(3); extra > 0; --extra) {
          victims.insert(start + pick(rows));
        }
        std::vector<Row> doomed;
        for (size_t r : victims) doomed.push_back(model[r]);
        remove(doomed);
        break;
      }
      case 3: {  // a few rows from anywhere in the chunk
        std::set<size_t> victims;
        for (size_t n = 1 + pick(4); n > 0; --n) {
          victims.insert(start + pick(rows));
        }
        std::vector<Row> doomed;
        for (size_t r : victims) doomed.push_back(model[r]);
        remove(doomed);
        break;
      }
      case 4: {  // UPDATE ... SET Charge = Charge + 1.25 WHERE Call_Id = k
        const Row old = model[start + pick(rows)];
        Row updated = old;
        updated[3] = Value::Double(old[3].dbl() + 1.25);
        ASSERT_OK(t.AddRow(updated));
        model.push_back(updated);
        remove({old});
        break;
      }
      default:  // pin this version, so the next append copies its tail
        if (pins.size() == 3) {
          pins.erase(pins.begin());
          pinned_rows.erase(pinned_rows.begin());
        }
        pins.push_back(std::make_shared<const Table>(t));
        pinned_rows.push_back(model);
        append(1 + pick(2) * pick(20));
    }
    ExpectHolds(t, model, &checked);
    for (const ChunkPtr& chunk : t.chunks()) {
      const ColumnarTable& cols = chunk->columnar();
      for (int col = 0; col < cols.num_columns(); ++col) {
        ASSERT_FALSE(cols.col(col).has_nulls);
        ASSERT_EQ(cols.col(col).type,
                  col == 3 ? ColumnType::kDouble : ColumnType::kInt64);
      }
    }
    if (HasFailure()) return;
  }
  ASSERT_GT(t.chunks().size(), 2u);  // the appends crossed a chunk boundary
  for (size_t p = 0; p < pins.size(); ++p) {
    ExpectHolds(*pins[p], pinned_rows[p]);
  }
}

}  // namespace
}  // namespace aqv
