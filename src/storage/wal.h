#ifndef AQV_STORAGE_WAL_H_
#define AQV_STORAGE_WAL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/metrics.h"
#include "base/result.h"
#include "base/status.h"

namespace aqv {

/// The write-ahead log: an append-only file of checksummed commit records,
/// one per `Database::PutAll` epoch. A commit is durable once AppendCommit
/// returns OK — the record is fully written and (with fsync_on_commit)
/// fsynced before the in-memory publication happens, so recovery can always
/// replay every acknowledged commit since the last checkpoint.
///
/// Record framing: u32 magic, u32 payload length, u64 payload checksum,
/// payload bytes. ReadLog stops at the first torn or corrupt record (a
/// crash mid-append), dropping it and everything after — exactly the
/// none-or-all contract a half-written commit deserves.
///
/// Failure contract (fail-stop): once any append fails — a real I/O error
/// or the `wal.append`/`wal.fsync` failpoints — the writer refuses all
/// further appends with kUnavailable. A failed append may have left
/// a torn record at the tail; appending after it would put good records
/// beyond the tear where ReadLog never looks. Restart-and-recover is the
/// only way back, which is also what a real fsync failure demands.
///
/// The `wal.append` failpoint fires *after* a partial prefix of the record
/// is written, deliberately manufacturing the torn-tail state a kill mid-
/// pwrite leaves behind; `wal.fsync` fires after the full record is written
/// but before the fsync (commit not acknowledged, may still survive).
class LogWriter {
 public:
  static constexpr uint32_t kRecordMagic = 0x4c575141;  // "AQWL"
  static constexpr size_t kRecordHeaderSize = 16;

  /// Opens (creating if absent) the log at `path`, positioned at its end.
  /// When the file is longer than `valid_prefix_bytes` (the clean prefix
  /// ReadLog reported), the excess — a torn record from a crash mid-append
  /// — is truncated away first; appending after a tear would hide every
  /// later record from the reader.
  static Result<std::unique_ptr<LogWriter>> Open(
      const std::string& path, bool fsync_on_commit,
      uint64_t valid_prefix_bytes = UINT64_MAX);
  ~LogWriter();

  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  /// Appends one commit record and makes it durable (see the class
  /// comment). Thread-compatibility: the engine serializes appends under
  /// its commit mutex.
  Status AppendCommit(std::string_view payload);

  /// The two halves of AppendCommit, split so the engine's group commit can
  /// coalesce many appended records under ONE Sync(): Append writes the
  /// framed record (and evaluates `wal.append`), Sync makes every record
  /// whose Append returned before it started durable (and evaluates
  /// `wal.fsync`). Both fail-stop the writer on error exactly like
  /// AppendCommit. The engine serializes Append calls; a group-commit
  /// leader's Sync runs concurrently with them (the engine's offset
  /// protocol claims only what was appended before the Sync began).
  Status Append(std::string_view payload);
  Status Sync();

  /// Truncates the log to empty — the checkpoint's final step. Failure
  /// here does NOT poison the writer: stale records are skipped at replay
  /// by commit sequence number.
  Status Truncate();

  /// Bytes currently in the log file.
  uint64_t size_bytes() const { return offset_; }

  bool failed() const { return failed_.load(); }

  /// Attaches counters for appended bytes and fsyncs, plus a latency
  /// histogram fed the duration of every commit fsync (each may be null).
  void SetMetrics(Counter* wal_bytes, Counter* wal_fsyncs,
                  Counter* wal_records,
                  LatencyHistogram* fsync_latency = nullptr) {
    wal_bytes_ = wal_bytes;
    wal_fsyncs_ = wal_fsyncs;
    wal_records_ = wal_records;
    fsync_latency_ = fsync_latency;
  }

  /// Bytes the record framing added to the last successful AppendCommit
  /// (header + payload) — what per-statement attribution charges.
  uint64_t last_record_bytes() const { return last_record_bytes_; }

 private:
  LogWriter(std::string path, int fd, uint64_t offset, bool fsync_on_commit)
      : path_(std::move(path)),
        fd_(fd),
        offset_(offset),
        fsync_on_commit_(fsync_on_commit) {}

  Status WriteAll(const char* data, size_t size);

  std::string path_;
  int fd_ = -1;
  uint64_t offset_ = 0;
  bool fsync_on_commit_ = true;
  std::atomic<bool> failed_{false};
  uint64_t last_record_bytes_ = 0;
  Counter* wal_bytes_ = nullptr;
  Counter* wal_fsyncs_ = nullptr;
  Counter* wal_records_ = nullptr;
  LatencyHistogram* fsync_latency_ = nullptr;
};

/// What ReadLog recovered: the intact record payloads plus the byte length
/// of the clean prefix they came from (pass it to LogWriter::Open so a torn
/// tail is chopped before new appends).
///
/// A bad record at the very end of the file is a torn tail — the expected
/// debris of a crash mid-append, handled silently. A bad record *followed
/// by* intact records is something else entirely: bit rot or a torn sector
/// in the middle of the log. Those later records cannot be applied (the
/// commit between them and the clean prefix is lost), so they are returned
/// separately as `suspect_payloads` with `mid_log_corruption` set — the
/// engine quarantines every table the log names rather than serve rows
/// missing an acknowledged commit.
struct WalContents {
  std::vector<std::string> payloads;
  uint64_t valid_bytes = 0;
  bool mid_log_corruption = false;
  std::vector<std::string> suspect_payloads;
};

/// Reads every intact record payload from the log at `path`, oldest first,
/// stopping (without error) at the first torn or corrupt record, then
/// resyncing on the record magic to detect intact records beyond a mid-log
/// tear (see WalContents). A missing file reads as an empty log.
Result<WalContents> ReadLog(const std::string& path);

}  // namespace aqv

#endif  // AQV_STORAGE_WAL_H_
