// Unit tests for the durable-storage building blocks: the serde
// primitives, slotted pages, the disk manager, the WAL
// (including torn-tail handling), the row/delta codecs, the catalog
// image round-trip, and the StorageEngine checkpoint/recover cycle in
// isolation from the query service. Crash-at-failpoint chaos lives in
// recovery_test.cc.

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/failpoint.h"
#include "base/metrics.h"
#include "base/serde.h"
#include "catalog/catalog.h"
#include "exec/table.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "storage/storage_engine.h"
#include "storage/wal.h"
#include "tests/test_util.h"

namespace aqv {
namespace {

// A per-test db path under gtest's temp dir, with any previous run's
// files removed so every test starts from a fresh (empty) database.
std::string FreshPath(const std::string& stem) {
  std::string path = ::testing::TempDir() + "/aqv_" + stem;
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  return path;
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
// Returns the number of occurrences hit.
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

// ---------------------------------------------------------------- serde

TEST(SerdeTest, FixedAndVarintRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeefu);
  PutFixed64(&buf, 0x0123456789abcdefull);
  PutVarint64(&buf, 0);
  PutVarint64(&buf, 127);
  PutVarint64(&buf, 128);
  PutVarint64(&buf, UINT64_MAX);
  PutDoubleBits(&buf, -2.5);
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");

  ByteReader r(buf);
  ASSERT_OK_AND_ASSIGN(uint32_t f32, r.ReadFixed32());
  EXPECT_EQ(f32, 0xdeadbeefu);
  ASSERT_OK_AND_ASSIGN(uint64_t f64, r.ReadFixed64());
  EXPECT_EQ(f64, 0x0123456789abcdefull);
  for (uint64_t want : {uint64_t{0}, uint64_t{127}, uint64_t{128},
                        UINT64_MAX}) {
    ASSERT_OK_AND_ASSIGN(uint64_t v, r.ReadVarint64());
    EXPECT_EQ(v, want);
  }
  ASSERT_OK_AND_ASSIGN(double d, r.ReadDoubleBits());
  EXPECT_EQ(d, -2.5);
  ASSERT_OK_AND_ASSIGN(std::string_view s, r.ReadLengthPrefixed());
  EXPECT_EQ(s, "hello");
  ASSERT_OK_AND_ASSIGN(std::string_view empty, r.ReadLengthPrefixed());
  EXPECT_EQ(empty, "");
  EXPECT_TRUE(r.empty());
}

TEST(SerdeTest, TruncationIsInvalidArgumentNotUb) {
  std::string buf;
  PutFixed64(&buf, 42);
  ByteReader r(std::string_view(buf).substr(0, 3));
  EXPECT_EQ(r.ReadFixed64().status().code(), StatusCode::kInvalidArgument);

  std::string lp;
  PutLengthPrefixed(&lp, "abcdef");
  ByteReader r2(std::string_view(lp).substr(0, 4));  // length says 6
  EXPECT_EQ(r2.ReadLengthPrefixed().status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SerdeTest, ChecksumDetectsSingleBitFlip) {
  std::string data = "the quick brown fox";
  uint64_t sum = Checksum64(data);
  data[3] ^= 1;
  EXPECT_NE(Checksum64(data), sum);
}

// ----------------------------------------------------------------- page

TEST(PageTest, InsertAndGetRecords) {
  Page page;
  page.Init(7);
  EXPECT_EQ(page.page_id(), 7u);
  EXPECT_EQ(page.slot_count(), 0u);

  auto s0 = page.InsertRecord("alpha");
  auto s1 = page.InsertRecord("");
  auto s2 = page.InsertRecord("gamma-gamma");
  ASSERT_TRUE(s0 && s1 && s2);
  EXPECT_EQ(page.slot_count(), 3u);
  ASSERT_OK_AND_ASSIGN(std::string_view r0, page.GetRecord(*s0));
  ASSERT_OK_AND_ASSIGN(std::string_view r1, page.GetRecord(*s1));
  ASSERT_OK_AND_ASSIGN(std::string_view r2, page.GetRecord(*s2));
  EXPECT_EQ(r0, "alpha");
  EXPECT_EQ(r1, "");
  EXPECT_EQ(r2, "gamma-gamma");
  EXPECT_FALSE(page.GetRecord(3).ok());
}

TEST(PageTest, RejectsRecordThatCannotFit) {
  Page page;
  page.Init(1);
  std::string big(Page::kMaxRecordSize, 'x');
  ASSERT_TRUE(page.InsertRecord(big).has_value());  // exactly fills the page
  EXPECT_FALSE(page.InsertRecord("y").has_value());

  Page page2;
  page2.Init(2);
  std::string too_big(Page::kMaxRecordSize + 1, 'x');
  EXPECT_FALSE(page2.InsertRecord(too_big).has_value());
}

TEST(PageTest, FillsUntilFullThenRefuses) {
  Page page;
  page.Init(3);
  std::string rec(100, 'r');
  size_t inserted = 0;
  while (page.InsertRecord(rec).has_value()) ++inserted;
  // 100 bytes of record + 4 of slot each; the page must be near-full.
  EXPECT_GT(inserted, (Page::kPageSize - Page::kHeaderSize) / 110);
  EXPECT_LT(page.FreeSpace(), rec.size() + Page::kSlotSize);
  // Existing records are intact after the failed insert.
  ASSERT_OK_AND_ASSIGN(std::string_view r0, page.GetRecord(0));
  EXPECT_EQ(r0, rec);
}

TEST(PageTest, ChecksumRoundTripAndCorruptionDetection) {
  Page page;
  page.Init(9);
  ASSERT_TRUE(page.InsertRecord("payload").has_value());
  page.UpdateChecksum();
  EXPECT_TRUE(page.VerifyChecksum());
  page.data()[Page::kPageSize - 1] ^= 0x40;  // rot inside the record area
  EXPECT_FALSE(page.VerifyChecksum());
}

// --------------------------------------------------------- disk manager

TEST(DiskManagerTest, WriteReadRoundTripAndEofIsNotFound) {
  std::string path = FreshPath("disk_test.db");
  ASSERT_OK_AND_ASSIGN(auto disk, DiskManager::Open(path));

  Page page;
  page.Init(4);
  ASSERT_TRUE(page.InsertRecord("persist me").has_value());
  page.UpdateChecksum();
  ASSERT_OK(disk->WritePage(4, page));
  ASSERT_OK(disk->Sync());
  EXPECT_EQ(disk->page_count(), 5u);  // file extended through page 4

  Page back;
  ASSERT_OK(disk->ReadPage(4, &back));
  EXPECT_TRUE(back.VerifyChecksum());
  ASSERT_OK_AND_ASSIGN(std::string_view rec, back.GetRecord(0));
  EXPECT_EQ(rec, "persist me");

  EXPECT_EQ(disk->ReadPage(99, &back).code(), StatusCode::kNotFound);
}

// ------------------------------------------------------------------ wal

TEST(WalTest, AppendReadRoundTrip) {
  std::string path = FreshPath("wal_test.wal");
  {
    ASSERT_OK_AND_ASSIGN(auto wal, LogWriter::Open(path, /*fsync=*/true));
    ASSERT_OK(wal->AppendCommit("commit-1"));
    ASSERT_OK(wal->AppendCommit("commit-2"));
    ASSERT_OK(wal->AppendCommit(std::string(1000, 'z')));
  }
  ASSERT_OK_AND_ASSIGN(WalContents contents, ReadLog(path));
  ASSERT_EQ(contents.payloads.size(), 3u);
  EXPECT_EQ(contents.payloads[0], "commit-1");
  EXPECT_EQ(contents.payloads[1], "commit-2");
  EXPECT_EQ(contents.payloads[2], std::string(1000, 'z'));
  EXPECT_EQ(contents.valid_bytes,
            3 * LogWriter::kRecordHeaderSize + 8 + 8 + 1000);
}

TEST(WalTest, MissingFileReadsAsEmpty) {
  ASSERT_OK_AND_ASSIGN(WalContents contents,
                       ReadLog(FreshPath("wal_missing.wal")));
  EXPECT_TRUE(contents.payloads.empty());
  EXPECT_EQ(contents.valid_bytes, 0u);
}

TEST(WalTest, TornTailIsDroppedNotFatal) {
  std::string path = FreshPath("wal_torn.wal");
  {
    ASSERT_OK_AND_ASSIGN(auto wal, LogWriter::Open(path, true));
    ASSERT_OK(wal->AppendCommit("good"));
    // The wal.append failpoint fires after a partial prefix of the record
    // hits the file — the on-disk state of a kill mid-pwrite.
    FailpointScope torn("wal.append", "error");
    ASSERT_TRUE(torn.armed());
    EXPECT_EQ(wal->AppendCommit("torn-away").code(),
              StatusCode::kUnavailable);
  }
  ASSERT_OK_AND_ASSIGN(WalContents contents, ReadLog(path));
  ASSERT_EQ(contents.payloads.size(), 1u);
  EXPECT_EQ(contents.payloads[0], "good");
}

TEST(WalTest, FailStopAfterInjectedFailure) {
  std::string path = FreshPath("wal_failstop.wal");
  ASSERT_OK_AND_ASSIGN(auto wal, LogWriter::Open(path, true));
  {
    FailpointScope fp("wal.fsync", "error");
    ASSERT_TRUE(fp.armed());
    EXPECT_FALSE(wal->AppendCommit("unacked").ok());
  }
  // Failpoint disarmed, but the writer stays poisoned: appending after a
  // possibly-torn tail would hide the new record from ReadLog.
  EXPECT_TRUE(wal->failed());
  EXPECT_EQ(wal->AppendCommit("after").code(), StatusCode::kUnavailable);
}

TEST(WalTest, ReopenWithValidPrefixTruncatesTornTail) {
  std::string path = FreshPath("wal_reopen.wal");
  {
    ASSERT_OK_AND_ASSIGN(auto wal, LogWriter::Open(path, true));
    ASSERT_OK(wal->AppendCommit("first"));
    FailpointScope torn("wal.append", "error");
    EXPECT_FALSE(wal->AppendCommit("torn").ok());
  }
  ASSERT_OK_AND_ASSIGN(WalContents before, ReadLog(path));
  ASSERT_EQ(before.payloads.size(), 1u);

  // Reopen at the clean prefix (what recovery does), then keep appending:
  // the torn bytes are chopped, so the new record is visible.
  {
    ASSERT_OK_AND_ASSIGN(
        auto wal, LogWriter::Open(path, true, before.valid_bytes));
    ASSERT_OK(wal->AppendCommit("second"));
  }
  ASSERT_OK_AND_ASSIGN(WalContents after, ReadLog(path));
  ASSERT_EQ(after.payloads.size(), 2u);
  EXPECT_EQ(after.payloads[0], "first");
  EXPECT_EQ(after.payloads[1], "second");
}

TEST(WalTest, TruncateEmptiesTheLog) {
  std::string path = FreshPath("wal_trunc.wal");
  ASSERT_OK_AND_ASSIGN(auto wal, LogWriter::Open(path, true));
  ASSERT_OK(wal->AppendCommit("doomed"));
  EXPECT_GT(wal->size_bytes(), 0u);
  ASSERT_OK(wal->Truncate());
  EXPECT_EQ(wal->size_bytes(), 0u);
  ASSERT_OK_AND_ASSIGN(WalContents contents, ReadLog(path));
  EXPECT_TRUE(contents.payloads.empty());
  // Truncate failure must not poison the writer (replay skips stale
  // records by sequence anyway).
  {
    FailpointScope fp("wal.truncate", "error");
    ASSERT_OK(wal->AppendCommit("kept"));
    EXPECT_FALSE(wal->Truncate().ok());
  }
  EXPECT_FALSE(wal->failed());
  ASSERT_OK(wal->AppendCommit("still-works"));
}

TEST(WalTest, MidLogCorruptionIsFlaggedWithSuspects) {
  std::string path = FreshPath("wal_midlog.wal");
  {
    ASSERT_OK_AND_ASSIGN(auto wal, LogWriter::Open(path, true));
    ASSERT_OK(wal->AppendCommit("first-record-payload"));
    ASSERT_OK(wal->AppendCommit("second-record"));
  }
  // Rot a byte inside the FIRST record's payload: the reader's clean
  // prefix ends before it, but resyncing on the magic finds the intact
  // second record — that is mid-log corruption, not a torn tail.
  FlipByteAt(path, LogWriter::kRecordHeaderSize + 3);
  ASSERT_OK_AND_ASSIGN(WalContents contents, ReadLog(path));
  EXPECT_TRUE(contents.payloads.empty());
  EXPECT_EQ(contents.valid_bytes, 0u);
  EXPECT_TRUE(contents.mid_log_corruption);
  ASSERT_EQ(contents.suspect_payloads.size(), 1u);
  EXPECT_EQ(contents.suspect_payloads[0], "second-record");
}

TEST(WalTest, TailRotIsTornTailNotMidLog) {
  std::string path = FreshPath("wal_tailrot.wal");
  uint64_t first_end = 0;
  {
    ASSERT_OK_AND_ASSIGN(auto wal, LogWriter::Open(path, true));
    ASSERT_OK(wal->AppendCommit("kept"));
    first_end = wal->size_bytes();
    ASSERT_OK(wal->AppendCommit("rotted-away"));
  }
  // Rot inside the LAST record: indistinguishable from a kill mid-append,
  // so it is dropped silently and nothing is suspect.
  FlipByteAt(path, first_end + LogWriter::kRecordHeaderSize + 3);
  ASSERT_OK_AND_ASSIGN(WalContents contents, ReadLog(path));
  ASSERT_EQ(contents.payloads.size(), 1u);
  EXPECT_EQ(contents.payloads[0], "kept");
  EXPECT_EQ(contents.valid_bytes, first_end);
  EXPECT_FALSE(contents.mid_log_corruption);
  EXPECT_TRUE(contents.suspect_payloads.empty());
}

// ------------------------------------------------------------ row codec

TEST(RowCodecTest, AllValueTypesRoundTrip) {
  Row row = {Value::Null(), Value::Int64(-5), Value::Int64(int64_t{1} << 40),
             Value::Double(3.25), Value::String("text ' with\nnoise"),
             Value::String("")};
  std::string buf;
  EncodeRow(row, &buf);
  ByteReader r(buf);
  ASSERT_OK_AND_ASSIGN(Row back, DecodeRow(&r));
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(back, row);
}

TEST(RowCodecTest, CorruptTypeTagFails) {
  std::string buf;
  EncodeRow({Value::Int64(1)}, &buf);
  buf[1] = static_cast<char>(0x7f);  // clobber the value's type tag
  ByteReader r(buf);
  EXPECT_FALSE(DecodeRow(&r).ok());
}

// ---------------------------------------------------------- delta codec

TEST(DeltaCodecTest, InsertsAndDeletesRoundTrip) {
  Delta delta;
  delta.inserts["R"] = {{Value::Int64(1), Value::String("a")},
                        {Value::Int64(2), Value::Null()}};
  delta.inserts["S"] = {{Value::Double(4.5)}};
  delta.deletes["R"] = {{Value::Int64(9), Value::String("gone")}};
  std::string buf;
  EncodeDelta(delta, &buf);
  ByteReader r(buf);
  ASSERT_OK_AND_ASSIGN(Delta back, DecodeDelta(&r));
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(back.inserts, delta.inserts);
  EXPECT_EQ(back.deletes, delta.deletes);
}

// -------------------------------------------------------- catalog image

TEST(CatalogImageTest, RoundTripPreservesKeysFdsAndVersion) {
  Catalog catalog;
  TableDef r("R", {"A", "B", "C"});
  ASSERT_OK(r.AddKey({0}));
  ASSERT_OK(r.AddFunctionalDependency({1}, {2}));
  ASSERT_OK(catalog.AddTable(r));
  ASSERT_OK(catalog.AddTable(TableDef("S", {"X"})));

  std::string buf;
  catalog.SerializeTo(&buf);
  Catalog back;
  ByteReader reader(buf);
  ASSERT_OK(back.DeserializeFrom(&reader));

  EXPECT_EQ(back.version(), catalog.version());
  ASSERT_OK_AND_ASSIGN(const TableDef* rb, back.GetTable("R"));
  EXPECT_EQ(rb->columns(), (std::vector<std::string>{"A", "B", "C"}));
  ASSERT_EQ(rb->keys().size(), 1u);
  EXPECT_EQ(rb->keys()[0], (std::vector<int>{0}));
  // Exactly the original FDs — the key-derived FD must not be re-derived
  // (doubled) on load.
  ASSERT_OK_AND_ASSIGN(const TableDef* ro, catalog.GetTable("R"));
  EXPECT_EQ(rb->fds().size(), ro->fds().size());
  EXPECT_TRUE(back.HasTable("S"));

  // Serialize the deserialized catalog again: byte-identical images.
  std::string buf2;
  back.SerializeTo(&buf2);
  EXPECT_EQ(buf, buf2);
}

// -------------------------------------------------------- storage engine

Delta OneTableDelta(const std::string& table, int64_t from, int64_t count) {
  Delta d;
  for (int64_t i = 0; i < count; ++i) {
    d.inserts[table].push_back(
        {Value::Int64(from + i), Value::Double((from + i) * 2.0)});
  }
  return d;
}

TEST(StorageEngineTest, FreshFileRecoversEmpty) {
  StorageOptions opts;
  opts.path = FreshPath("engine_fresh.db");
  ASSERT_OK_AND_ASSIGN(auto engine, StorageEngine::Open(opts, nullptr));
  EXPECT_FALSE(engine->recovered().from_checkpoint);
  EXPECT_EQ(engine->recovered().replayed_commits, 0u);
  EXPECT_EQ(engine->last_commit_seq(), 0u);
}

TEST(StorageEngineTest, CheckpointThenRecoverWithZeroReplay) {
  StorageOptions opts;
  opts.path = FreshPath("engine_ckpt.db");

  Catalog catalog;
  TableDef r("R", {"A", "B"});
  ASSERT_OK(r.AddKey({0}));
  ASSERT_OK(catalog.AddTable(r));
  Database db;
  Table rt({"A", "B"});
  rt.AddRowOrDie({Value::Int64(1), Value::Double(2.0)});
  rt.AddRowOrDie({Value::Int64(3), Value::Double(4.0)});
  db.Put("R", std::move(rt));
  ViewRegistry views;

  {
    ASSERT_OK_AND_ASSIGN(auto engine, StorageEngine::Open(opts, nullptr));
    ASSERT_OK(engine->LogCommit(OneTableDelta("R", 1, 1)));
    ASSERT_OK(engine->Checkpoint(catalog, views, db, {}));
    EXPECT_EQ(engine->checkpoint_seq(), 1u);
    EXPECT_EQ(engine->wal_bytes(), 0u);  // truncated by the checkpoint
  }
  {
    ASSERT_OK_AND_ASSIGN(auto engine, StorageEngine::Open(opts, nullptr));
    RecoveredState& rec = engine->recovered();
    EXPECT_TRUE(rec.from_checkpoint);
    EXPECT_EQ(rec.replayed_commits, 0u);
    EXPECT_EQ(rec.last_commit_seq, 1u);
    EXPECT_TRUE(rec.catalog.HasTable("R"));
    ASSERT_OK_AND_ASSIGN(const Table* rb, rec.db.Get("R"));
    EXPECT_EQ(rb->num_rows(), 2u);
  }
}

TEST(StorageEngineTest, WalReplayOnTopOfCheckpoint) {
  StorageOptions opts;
  opts.path = FreshPath("engine_replay.db");

  Catalog catalog;
  ASSERT_OK(catalog.AddTable(TableDef("R", {"A", "B"})));
  Database db;
  db.Put("R", Table({"A", "B"}));
  ViewRegistry views;

  {
    ASSERT_OK_AND_ASSIGN(auto engine, StorageEngine::Open(opts, nullptr));
    ASSERT_OK(engine->Checkpoint(catalog, views, db, {}));
    // Two commits after the checkpoint, never checkpointed.
    ASSERT_OK(engine->LogCommit(OneTableDelta("R", 10, 2)));
    ASSERT_OK(engine->LogCommit(OneTableDelta("R", 20, 3)));
  }
  {
    ASSERT_OK_AND_ASSIGN(auto engine, StorageEngine::Open(opts, nullptr));
    RecoveredState& rec = engine->recovered();
    EXPECT_EQ(rec.replayed_commits, 2u);
    EXPECT_EQ(rec.last_commit_seq, 2u);
    ASSERT_OK_AND_ASSIGN(const Table* rb, rec.db.Get("R"));
    EXPECT_EQ(rb->num_rows(), 5u);
  }
}

TEST(StorageEngineTest, MultiPageTableSurvivesRestart) {
  StorageOptions opts;
  opts.path = FreshPath("engine_big.db");

  Catalog catalog;
  ASSERT_OK(catalog.AddTable(TableDef("Big", {"A", "B"})));
  Database db;
  Table big({"A", "B"});
  // ~2000 rows with fat strings: many pages worth of data.
  for (int64_t i = 0; i < 2000; ++i) {
    big.AddRowOrDie(
        {Value::Int64(i), Value::String(std::string(64, 'a' + (i % 26)))});
  }
  db.Put("Big", big);
  ViewRegistry views;

  {
    ASSERT_OK_AND_ASSIGN(auto engine, StorageEngine::Open(opts, nullptr));
    ASSERT_OK(engine->Checkpoint(catalog, views, db, {}));
  }
  {
    ASSERT_OK_AND_ASSIGN(auto engine, StorageEngine::Open(opts, nullptr));
    ASSERT_OK_AND_ASSIGN(const Table* back, engine->recovered().db.Get("Big"));
    EXPECT_TRUE(MultisetEqual(*back, big));
  }
}

// A checkpoint writes each data and directory page once, plus one meta
// page; a reopen reads each of them once, plus both meta pages. The table
// spans more than 64 pages, so any page cache of that size would have to
// evict and re-read or re-write to break these counts.
TEST(StorageEngineTest, CheckpointAndRecoveryTouchEachPageOnce) {
  StorageOptions opts;
  opts.path = FreshPath("engine_touch_once.db");

  Catalog catalog;
  ASSERT_OK(catalog.AddTable(TableDef("Big", {"A", "B"})));
  Database db;
  Table big({"A", "B"});
  for (int64_t i = 0; i < 8000; ++i) {
    big.AddRowOrDie(
        {Value::Int64(i), Value::String(std::string(80, 'a' + (i % 26)))});
  }
  db.Put("Big", big);
  ViewRegistry views;

  uint64_t pages_checked = 0;
  {
    MetricsRegistry metrics;
    ASSERT_OK_AND_ASSIGN(auto engine, StorageEngine::Open(opts, &metrics));
    uint64_t written_before = metrics.CounterValue("storage.pages_written");
    ASSERT_OK(engine->Checkpoint(catalog, views, db, {}));
    uint64_t written =
        metrics.CounterValue("storage.pages_written") - written_before;
    ASSERT_OK_AND_ASSIGN(StorageEngine::ScrubReport scrub, engine->Scrub());
    pages_checked = scrub.pages_checked;
    EXPECT_GT(scrub.tables["Big"].pages, 64u);
    EXPECT_EQ(written, pages_checked + 1);
  }
  {
    MetricsRegistry metrics;
    ASSERT_OK_AND_ASSIGN(auto engine, StorageEngine::Open(opts, &metrics));
    EXPECT_EQ(metrics.CounterValue("storage.pages_read"), pages_checked + 2);
    ASSERT_OK_AND_ASSIGN(const Table* back, engine->recovered().db.Get("Big"));
    EXPECT_TRUE(MultisetEqual(*back, big));
  }
}

TEST(StorageEngineTest, RepeatedCheckpointsReuseFileSpace) {
  StorageOptions opts;
  opts.path = FreshPath("engine_reuse.db");

  Catalog catalog;
  ASSERT_OK(catalog.AddTable(TableDef("R", {"A", "B"})));
  Database db;
  Table rt({"A", "B"});
  for (int64_t i = 0; i < 100; ++i) {
    rt.AddRowOrDie({Value::Int64(i), Value::Double(i * 1.0)});
  }
  db.Put("R", std::move(rt));
  ViewRegistry views;

  ASSERT_OK_AND_ASSIGN(auto engine, StorageEngine::Open(opts, nullptr));
  ASSERT_OK(engine->Checkpoint(catalog, views, db, {}));
  ASSERT_OK_AND_ASSIGN(auto disk, DiskManager::Open(opts.path));
  uint32_t pages_after_first = disk->page_count();
  disk.reset();

  // The same contents checkpointed repeatedly: shadow pages must come from
  // the previous generations' freed ids, not extend the file every time.
  for (int i = 0; i < 6; ++i) {
    ASSERT_OK(engine->Checkpoint(catalog, views, db, {}));
  }
  ASSERT_OK_AND_ASSIGN(auto disk2, DiskManager::Open(opts.path));
  EXPECT_LE(disk2->page_count(), 2 * pages_after_first + 2);
}

TEST(StorageEngineTest, FailedCheckpointKeepsPreviousOneLive) {
  StorageOptions opts;
  opts.path = FreshPath("engine_ckpt_fail.db");

  Catalog catalog;
  ASSERT_OK(catalog.AddTable(TableDef("R", {"A", "B"})));
  Database db1;
  Table t1({"A", "B"});
  t1.AddRowOrDie({Value::Int64(1), Value::Double(1.0)});
  db1.Put("R", std::move(t1));
  ViewRegistry views;

  ASSERT_OK_AND_ASSIGN(auto engine, StorageEngine::Open(opts, nullptr));
  ASSERT_OK(engine->Checkpoint(catalog, views, db1, {}));

  // A second checkpoint dies mid page-flush: the first must stay live.
  Database db2;
  Table t2({"A", "B"});
  t2.AddRowOrDie({Value::Int64(2), Value::Double(2.0)});
  db2.Put("R", std::move(t2));
  {
    FailpointScope fp("page.flush", "error(100,1)");
    ASSERT_TRUE(fp.armed());
    EXPECT_FALSE(engine->Checkpoint(catalog, views, db2, {}).ok());
  }
  engine.reset();

  ASSERT_OK_AND_ASSIGN(auto recovered, StorageEngine::Open(opts, nullptr));
  ASSERT_OK_AND_ASSIGN(const Table* back, recovered->recovered().db.Get("R"));
  ASSERT_EQ(back->num_rows(), 1u);
  EXPECT_EQ(back->rows()[0][0], Value::Int64(1));
}

TEST(StorageEngineTest, LogCommitFailStopsUntilReopen) {
  StorageOptions opts;
  opts.path = FreshPath("engine_failstop.db");
  ASSERT_OK_AND_ASSIGN(auto engine, StorageEngine::Open(opts, nullptr));
  // Checkpoint the (empty) table first — the service always checkpoints at
  // CREATE TABLE, so every WAL delta references a checkpointed table.
  Catalog catalog;
  ASSERT_OK(catalog.AddTable(TableDef("R", {"A", "B"})));
  Database db;
  db.Put("R", Table({"A", "B"}));
  ASSERT_OK(engine->Checkpoint(catalog, ViewRegistry{}, db, {}));
  ASSERT_OK(engine->LogCommit(OneTableDelta("R", 1, 1)));
  {
    FailpointScope fp("wal.append", "error");
    EXPECT_FALSE(engine->LogCommit(OneTableDelta("R", 2, 1)).ok());
  }
  EXPECT_TRUE(engine->failed());
  EXPECT_EQ(engine->LogCommit(OneTableDelta("R", 3, 1)).code(),
            StatusCode::kUnavailable);
  engine.reset();

  // Reopen recovers the one acknowledged commit and accepts writes again.
  ASSERT_OK_AND_ASSIGN(auto reopened, StorageEngine::Open(opts, nullptr));
  EXPECT_EQ(reopened->recovered().replayed_commits, 1u);
  EXPECT_FALSE(reopened->failed());
  ASSERT_OK(reopened->LogCommit(OneTableDelta("R", 2, 1)));
}

// ------------------------------------------------------- overflow pages

// One table whose rows straddle every interesting boundary of the
// overflow chain: just under one chunk, exactly at it, one byte over
// (the first two-record row), and several chunks long.
TEST(StorageEngineTest, OverflowRowsRoundTripAcrossRestart) {
  StorageOptions opts;
  opts.path = FreshPath("engine_overflow.db");

  const size_t chunk = Page::kMaxRecordSize - 1;  // payload per record
  Catalog catalog;
  ASSERT_OK(catalog.AddTable(TableDef("Big", {"A", "B"})));
  Database db;
  Table big({"A", "B"});
  int64_t id = 0;
  for (size_t size : {size_t{64}, chunk - 100, chunk - 1, chunk, chunk + 1,
                      3 * chunk + 5, size_t{100000}}) {
    big.AddRowOrDie(
        {Value::Int64(id),
         Value::String(std::string(
             size, static_cast<char>('a' + (id % 26))))});
    ++id;
  }
  db.Put("Big", big);
  ViewRegistry views;

  {
    ASSERT_OK_AND_ASSIGN(auto engine, StorageEngine::Open(opts, nullptr));
    ASSERT_OK(engine->Checkpoint(catalog, views, db, {}));
  }
  {
    ASSERT_OK_AND_ASSIGN(auto engine, StorageEngine::Open(opts, nullptr));
    ASSERT_OK_AND_ASSIGN(const Table* back, engine->recovered().db.Get("Big"));
    EXPECT_TRUE(MultisetEqual(*back, big));
  }
}

// Shrinking and re-growing a table with overflow rows must reuse the
// freed chain pages, not extend the file on every checkpoint.
TEST(StorageEngineTest, OverflowChainPagesAreReusedAfterDelete) {
  StorageOptions opts;
  opts.path = FreshPath("engine_overflow_reuse.db");

  Catalog catalog;
  ASSERT_OK(catalog.AddTable(TableDef("Big", {"A", "B"})));
  Table with_big({"A", "B"});
  with_big.AddRowOrDie({Value::Int64(1), Value::String(std::string(
                                             50000, 'x'))});
  Table without({"A", "B"});
  without.AddRowOrDie({Value::Int64(2), Value::String("small")});
  ViewRegistry views;

  ASSERT_OK_AND_ASSIGN(auto engine, StorageEngine::Open(opts, nullptr));
  Database db1;
  db1.Put("Big", with_big);
  ASSERT_OK(engine->Checkpoint(catalog, views, db1, {}));
  ASSERT_OK_AND_ASSIGN(auto disk, DiskManager::Open(opts.path));
  uint32_t pages_after_first = disk->page_count();
  disk.reset();

  // Alternate the chain away and back: every generation's overflow pages
  // must come from the previous generation's freed ids.
  for (int i = 0; i < 4; ++i) {
    Database db2;
    db2.Put("Big", without);
    ASSERT_OK(engine->Checkpoint(catalog, views, db2, {}));
    Database db3;
    db3.Put("Big", with_big);
    ASSERT_OK(engine->Checkpoint(catalog, views, db3, {}));
  }
  ASSERT_OK_AND_ASSIGN(auto disk2, DiskManager::Open(opts.path));
  EXPECT_LE(disk2->page_count(), 2 * pages_after_first + 2);
}

TEST(StorageEngineTest, RowAboveOverflowCapIsRefusedCleanly) {
  // The check the service runs at INSERT/LOAD time.
  Row small = {Value::Int64(1), Value::String("fine")};
  ASSERT_OK(StorageEngine::CheckRowSize(small));
  Row huge = {Value::Int64(1),
              Value::String(std::string(StorageEngine::kMaxRowBytes, 'x'))};
  Status refused = StorageEngine::CheckRowSize(huge);
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.message().find("row"), std::string::npos);

  // A checkpoint that trips over one anyway fails cleanly and keeps the
  // previous checkpoint live.
  StorageOptions opts;
  opts.path = FreshPath("engine_rowcap.db");
  Catalog catalog;
  ASSERT_OK(catalog.AddTable(TableDef("R", {"A", "B"})));
  ViewRegistry views;
  ASSERT_OK_AND_ASSIGN(auto engine, StorageEngine::Open(opts, nullptr));
  Database db_ok;
  db_ok.Put("R", Table({"A", "B"}));
  ASSERT_OK(engine->Checkpoint(catalog, views, db_ok, {}));
  Database db_huge;
  Table t({"A", "B"});
  t.AddRowOrDie(huge);
  db_huge.Put("R", t);
  EXPECT_EQ(engine->Checkpoint(catalog, views, db_huge, {}).code(),
            StatusCode::kInvalidArgument);
  engine.reset();
  ASSERT_OK_AND_ASSIGN(auto recovered, StorageEngine::Open(opts, nullptr));
  EXPECT_TRUE(recovered->recovered().from_checkpoint);
}

// --------------------------------------- quarantine, scrub, thresholds

// Bit rot in one table's data page: recovery salvages every clean table
// and quarantines exactly the damaged one (salvaged empty).
TEST(StorageEngineTest, DataPageRotQuarantinesOnlyThatTable) {
  StorageOptions opts;
  opts.path = FreshPath("engine_rot.db");

  const std::string marker = "CORRUPT-ME-MARKER-PAYLOAD";
  Catalog catalog;
  ASSERT_OK(catalog.AddTable(TableDef("Bad", {"A", "B"})));
  ASSERT_OK(catalog.AddTable(TableDef("Good", {"C", "D"})));
  Database db;
  Table bad({"A", "B"});
  bad.AddRowOrDie({Value::Int64(1), Value::String(marker)});
  db.Put("Bad", std::move(bad));
  Table good({"C", "D"});
  good.AddRowOrDie({Value::Int64(7), Value::Double(7.5)});
  db.Put("Good", good);
  ViewRegistry views;
  {
    ASSERT_OK_AND_ASSIGN(auto engine, StorageEngine::Open(opts, nullptr));
    ASSERT_OK(engine->Checkpoint(catalog, views, db, {}));
  }
  ASSERT_GE(FlipMarkerBytes(opts.path, marker), 1u);

  ASSERT_OK_AND_ASSIGN(auto engine, StorageEngine::Open(opts, nullptr));
  RecoveredState& rec = engine->recovered();
  ASSERT_EQ(rec.quarantined_tables.size(), 1u);
  ASSERT_EQ(rec.quarantined_tables.count("Bad"), 1u);
  EXPECT_NE(rec.quarantined_tables["Bad"].find("checksum"),
            std::string::npos);
  // The damaged table is salvaged empty, the clean one fully intact.
  ASSERT_OK_AND_ASSIGN(const Table* bad_back, rec.db.Get("Bad"));
  EXPECT_EQ(bad_back->num_rows(), 0u);
  ASSERT_OK_AND_ASSIGN(const Table* good_back, rec.db.Get("Good"));
  EXPECT_TRUE(MultisetEqual(*good_back, good));
}

// Scrub reads pages straight from disk, so rot that happens while the
// engine is live (clean cached frames) is still reported — and the next
// checkpoint rewrites the pages fresh, healing it.
TEST(StorageEngineTest, ScrubDetectsOnDiskRotAndCheckpointHeals) {
  StorageOptions opts;
  opts.path = FreshPath("engine_scrub.db");

  const std::string marker = "SCRUB-FINDS-THIS-MARKER";
  Catalog catalog;
  ASSERT_OK(catalog.AddTable(TableDef("T", {"A", "B"})));
  Database db;
  Table t({"A", "B"});
  t.AddRowOrDie({Value::Int64(1), Value::String(marker)});
  db.Put("T", t);
  ViewRegistry views;

  ASSERT_OK_AND_ASSIGN(auto engine, StorageEngine::Open(opts, nullptr));
  ASSERT_OK(engine->Checkpoint(catalog, views, db, {}));
  ASSERT_OK_AND_ASSIGN(StorageEngine::ScrubReport clean, engine->Scrub());
  EXPECT_EQ(clean.pages_corrupt, 0u);
  EXPECT_GE(clean.pages_checked, 2u);  // directory + data

  ASSERT_GE(FlipMarkerBytes(opts.path, marker), 1u);
  ASSERT_OK_AND_ASSIGN(StorageEngine::ScrubReport dirty, engine->Scrub());
  EXPECT_GE(dirty.pages_corrupt, 1u);
  ASSERT_EQ(dirty.tables.count("T"), 1u);
  EXPECT_GE(dirty.tables["T"].corrupt_pages, 1u);

  // The in-memory copy is still good: CHECKPOINT rewrites every data page.
  ASSERT_OK(engine->Checkpoint(catalog, views, db, {}));
  ASSERT_OK_AND_ASSIGN(StorageEngine::ScrubReport healed, engine->Scrub());
  EXPECT_EQ(healed.pages_corrupt, 0u);
}

TEST(StorageEngineTest, ScrubFailpointReportsCorruptPages) {
  StorageOptions opts;
  opts.path = FreshPath("engine_scrub_fp.db");
  Catalog catalog;
  ASSERT_OK(catalog.AddTable(TableDef("R", {"A", "B"})));
  Database db;
  Table rt({"A", "B"});
  rt.AddRowOrDie({Value::Int64(1), Value::Double(1.0)});
  db.Put("R", std::move(rt));
  ASSERT_OK_AND_ASSIGN(auto engine, StorageEngine::Open(opts, nullptr));
  ASSERT_OK(engine->Checkpoint(catalog, ViewRegistry{}, db, {}));

  FailpointScope fp("scrub.page", "error");
  ASSERT_TRUE(fp.armed());
  ASSERT_OK_AND_ASSIGN(StorageEngine::ScrubReport report, engine->Scrub());
  EXPECT_EQ(report.pages_corrupt, report.pages_checked);
  EXPECT_GE(report.pages_corrupt, 1u);
}

TEST(StorageEngineTest, AutoCheckpointAndBackpressurePredicates) {
  StorageOptions opts;
  opts.path = FreshPath("engine_thresholds.db");
  opts.auto_checkpoint_commits = 2;
  opts.backpressure_wal_bytes = 1;
  Catalog catalog;
  ASSERT_OK(catalog.AddTable(TableDef("R", {"A", "B"})));
  Database db;
  db.Put("R", Table({"A", "B"}));
  ASSERT_OK_AND_ASSIGN(auto engine, StorageEngine::Open(opts, nullptr));
  ASSERT_OK(engine->Checkpoint(catalog, ViewRegistry{}, db, {}));

  EXPECT_FALSE(engine->NeedsAutoCheckpoint());
  EXPECT_FALSE(engine->OverBackpressureCap());
  ASSERT_OK(engine->LogCommit(OneTableDelta("R", 1, 1)));
  EXPECT_FALSE(engine->NeedsAutoCheckpoint());  // one commit, threshold 2
  EXPECT_TRUE(engine->OverBackpressureCap());   // any WAL byte is over cap 1
  ASSERT_OK(engine->LogCommit(OneTableDelta("R", 2, 1)));
  EXPECT_TRUE(engine->NeedsAutoCheckpoint());

  // A checkpoint truncates the WAL and resets both predicates.
  ASSERT_OK(engine->Checkpoint(catalog, ViewRegistry{}, db, {}));
  EXPECT_FALSE(engine->NeedsAutoCheckpoint());
  EXPECT_FALSE(engine->OverBackpressureCap());
}

// ----------------------------------------- group commit, staged replay

// Hammer LogCommit from several threads with group commit on: every
// acknowledged commit must be durable and replay intact.
TEST(StorageEngineTest, GroupCommitConcurrentWritersAllDurable) {
  StorageOptions opts;
  opts.path = FreshPath("engine_group.db");
  opts.group_commit = true;
  constexpr int kThreads = 4;
  constexpr int kCommitsPerThread = 16;

  Catalog catalog;
  Database db;
  for (int t = 0; t < kThreads; ++t) {
    std::string name = "T" + std::to_string(t);
    ASSERT_OK(catalog.AddTable(TableDef(name, {"A", "B"})));
    db.Put(name, Table({"A", "B"}));
  }
  {
    ASSERT_OK_AND_ASSIGN(auto engine, StorageEngine::Open(opts, nullptr));
    ASSERT_OK(engine->Checkpoint(catalog, ViewRegistry{}, db, {}));
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&engine, t] {
        std::string name = "T" + std::to_string(t);
        for (int i = 0; i < kCommitsPerThread; ++i) {
          ASSERT_OK(engine->LogCommit(OneTableDelta(name, i, 1)));
        }
      });
    }
    for (std::thread& w : writers) w.join();
    EXPECT_EQ(engine->last_commit_seq(),
              static_cast<uint64_t>(kThreads * kCommitsPerThread));
  }
  ASSERT_OK_AND_ASSIGN(auto engine, StorageEngine::Open(opts, nullptr));
  EXPECT_EQ(engine->recovered().replayed_commits,
            static_cast<uint64_t>(kThreads * kCommitsPerThread));
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_OK_AND_ASSIGN(const Table* back,
                         engine->recovered().db.Get("T" + std::to_string(t)));
    EXPECT_EQ(back->num_rows(), static_cast<size_t>(kCommitsPerThread));
  }
}

// Recovery is read-only, so the same files can be recovered under both
// replay strategies — and they must agree exactly.
TEST(StorageEngineTest, StagedAndPerRecordReplayAgree) {
  StorageOptions opts;
  opts.path = FreshPath("engine_replay_modes.db");
  Catalog catalog;
  ASSERT_OK(catalog.AddTable(TableDef("R", {"A", "B"})));
  Database db;
  db.Put("R", Table({"A", "B"}));
  {
    ASSERT_OK_AND_ASSIGN(auto engine, StorageEngine::Open(opts, nullptr));
    ASSERT_OK(engine->Checkpoint(catalog, ViewRegistry{}, db, {}));
    for (int i = 0; i < 20; ++i) {
      Delta d = OneTableDelta("R", i * 10, 2);
      if (i % 3 == 0 && i > 0) {
        // The odd delete too, so replay ordering matters.
        d.deletes["R"].push_back(
            {Value::Int64(i * 10 - 10), Value::Double((i * 10 - 10) * 2.0)});
      }
      ASSERT_OK(engine->LogCommit(d));
    }
  }
  opts.staged_replay = false;
  ASSERT_OK_AND_ASSIGN(auto per_record, StorageEngine::Open(opts, nullptr));
  ASSERT_OK_AND_ASSIGN(const Table* slow, per_record->recovered().db.Get("R"));
  Table slow_copy = *slow;
  per_record.reset();

  opts.staged_replay = true;
  ASSERT_OK_AND_ASSIGN(auto staged, StorageEngine::Open(opts, nullptr));
  ASSERT_OK_AND_ASSIGN(const Table* fast, staged->recovered().db.Get("R"));
  EXPECT_EQ(staged->recovered().replayed_commits, 20u);
  EXPECT_TRUE(MultisetEqual(slow_copy, *fast));
}

}  // namespace
}  // namespace aqv
