#ifndef AQV_STORAGE_STORAGE_ENGINE_H_
#define AQV_STORAGE_STORAGE_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "base/metrics.h"
#include "base/query_stats.h"
#include "base/result.h"
#include "catalog/catalog.h"
#include "exec/table.h"
#include "ir/views.h"
#include "maintain/incremental.h"
#include "rewrite/optimizer.h"
#include "storage/disk_manager.h"
#include "storage/wal.h"

namespace aqv {

/// Durable image of one plan-cache entry. The plan itself travels as SQL
/// text (ToSql/ParseQuery round-trip exactly), so the on-disk format never
/// chases the Query struct.
struct PlanImage : PlanRecord {
  std::string key;
  std::string plan_sql;
};

/// Everything recovery reconstructs from the db file and WAL: the state the
/// service resumes from after a crash or clean restart.
struct RecoveredState {
  Catalog catalog;
  ViewRegistry views;
  /// Base tables and stored view contents at the recovered epoch: the
  /// checkpoint image with every pending WAL commit replayed on top.
  Database db;
  /// Stored views whose contents must be recomputed before first use:
  /// their dependency closure intersects a WAL-replayed table (the
  /// checkpointed contents are pre-replay), or their pages were never
  /// checkpointed.
  std::vector<std::string> stale_views;
  std::vector<PlanImage> plans;
  /// Catalog/view-registry versions at checkpoint time, guarding the plan
  /// images: a mismatch after re-registration means DDL drifted and the
  /// cache must be discarded.
  uint64_t plan_catalog_version = 0;
  uint64_t plan_views_version = 0;
  uint64_t last_commit_seq = 0;
  uint64_t replayed_commits = 0;
  /// False when the db file held no valid checkpoint (fresh database).
  bool from_checkpoint = false;
  /// Tables whose durable state failed its checksum (bit-rotted or torn
  /// data pages) or sat beyond a mid-log WAL tear, mapped to a
  /// human-readable reason. Recovery salvages every checksummed-clean
  /// table and quarantines these; the service serves clean errors for them
  /// until they are repaired (a LOAD that fully replaces the contents).
  std::map<std::string, std::string> quarantined_tables;

  /// True when the WAL tore mid-log (not just at the tail): a commit inside
  /// the log is unrecoverable. The service must checkpoint promptly — the
  /// quarantine derived from the torn log has to reach the directory blob
  /// before the evidence (the suspect tail recovery truncated) is gone.
  bool wal_mid_log_corruption = false;
};

/// Serializes `delta` (the WAL commit payload body) / parses it back.
/// Exposed for tests and the durability bench.
void EncodeDelta(const Delta& delta, std::string* out);
Result<Delta> DecodeDelta(ByteReader* reader);

struct StorageOptions {
  std::string path;       // db file; WAL lives at path + ".wal"
  bool fsync_wal = true;  // fsync on every commit (off: bench only)

  /// Group commit: concurrent LogCommit callers coalesce onto one fsync
  /// (leader/follower); the batch is whatever arrived while the previous
  /// fsync was in flight. Off = every commit pays its own fsync, kept as
  /// the bench baseline.
  bool group_commit = true;

  /// Replay the WAL tail into one staging image published at a single COW
  /// epoch, instead of one Database publication per record. Off = the PR 6
  /// per-record path, kept as the bench baseline.
  bool staged_replay = true;

  /// Auto-checkpoint thresholds, polled by the service's background
  /// checkpointer through NeedsAutoCheckpoint(): checkpoint once the WAL
  /// exceeds this many bytes / this many commits since the last
  /// checkpoint. 0 disables that trigger.
  uint64_t auto_checkpoint_wal_bytes = 0;
  uint64_t auto_checkpoint_commits = 0;

  /// Writer backpressure cap: once the WAL exceeds this many bytes
  /// (OverBackpressureCap()), the service stalls writers — bounded
  /// sleep-with-deadline, then a clean SERVER_BUSY-style refusal — until
  /// the checkpointer catches up. 0 disables the cap.
  uint64_t backpressure_wal_bytes = 0;
};

/// The durability subsystem: a shadow-paged single-file checkpoint plus a
/// write-ahead log that makes every PutAll epoch a durable commit.
///
/// ## On-disk layout
///
/// The db file is an array of 8 KiB slotted pages. Pages 0 and 1 are meta
/// pages written alternately (ping-pong by generation); whichever holds the
/// checksummed record with the highest generation is the live checkpoint.
/// The meta record points at a chain of directory pages; the directory blob
/// holds the serialized catalog, view definitions (as SQL), plan images,
/// and for every stored table its schema and data page ids. Data pages pack
/// one encoded row per slot record.
///
/// ## Crash safety
///
/// Checkpoints are shadow-paged: data and directory pages are allocated
/// only from page ids the live meta does NOT reference, all of them are
/// written and fsynced, and only then is the other meta page stamped with
/// generation+1 and fsynced. A kill anywhere before that second fsync
/// leaves the previous checkpoint fully intact — the new pages are orphaned
/// garbage reclaimed by the next successful checkpoint.
///
/// The WAL carries one record per committed write epoch, appended and
/// fsynced BEFORE the in-memory publication, so an acknowledged commit is
/// always recoverable. Checkpoint success truncates the WAL; replay skips
/// records at or below the checkpoint's commit sequence, so a kill between
/// the meta flip and the truncate double-applies nothing.
///
/// Failpoints: `page.flush` (each page write), `wal.append` (torn record),
/// `wal.fsync` (written-not-durable), `wal.truncate`, `recovery.replay`
/// (each replayed commit), `wal.group_leader` (a group-commit leader about
/// to fsync for its whole batch), `scrub.page` (each page checksum
/// verification — an injected error reads as a corrupt page).
///
/// Rows larger than one page record are chained across overflow records:
/// every data-page record starts with a continuation flag byte, and a row
/// is the concatenation of consecutive records up to the first final one.
/// Rows up to kMaxRowBytes round-trip; bigger ones are refused with a
/// clean row-size error (the service rejects them at INSERT/LOAD time).
///
/// Entry points are serialized by one internal mutex: commits from
/// disjoint-table writers (the service's striped latches allow those to
/// race) are ordered here, which is sound because disjoint-table deltas
/// commute under replay. With group commit the mutex covers only the WAL
/// append (sequence assignment stays ordered); the fsync runs outside it
/// under a leader/follower protocol, so acked-implies-durable holds while
/// one fsync covers every record appended before it started.
class StorageEngine {
 public:
  /// Hard cap on one encoded row (the overflow-chain limit, 1 MiB). Rows
  /// above it are refused with kInvalidArgument at WriteRows — and, so the
  /// failure surfaces at INSERT/LOAD time instead of the next CHECKPOINT,
  /// by the service through CheckRowSize.
  static constexpr size_t kMaxRowBytes = 1 << 20;

  /// Per-table result of a scrub pass (see Scrub()).
  struct TableScrub {
    uint64_t pages = 0;
    uint64_t corrupt_pages = 0;
  };
  struct ScrubReport {
    uint64_t pages_checked = 0;
    uint64_t pages_corrupt = 0;
    uint64_t directory_pages_corrupt = 0;
    std::map<std::string, TableScrub> tables;
    uint64_t wal_records = 0;
    bool wal_mid_log_corruption = false;
    uint64_t wal_suspect_records = 0;
  };

  /// Opens (creating if needed) the db file and WAL, and runs recovery:
  /// picks the live checkpoint, loads it, replays the WAL tail. Read-only
  /// with respect to the files, so a failed recovery (an injected
  /// `recovery.replay`, a corrupt directory) can simply be retried.
  static Result<std::unique_ptr<StorageEngine>> Open(StorageOptions options,
                                                     MetricsRegistry* metrics);

  /// The state recovered by Open. The service consumes this once at
  /// attach time (moves out of it).
  RecoveredState& recovered() { return recovered_; }

  /// Appends `delta` to the WAL as the next commit and makes it durable.
  /// Call at the PutAll commit point, after validation, before publication.
  /// On ANY failure the WAL is fail-stopped: every later LogCommit refuses
  /// with kUnavailable until the process restarts and recovers.
  /// When `stats` is non-null the commit's append+fsync time and record
  /// bytes are charged to it (per-statement cost attribution).
  Status LogCommit(const Delta& delta, QueryStats* stats = nullptr);

  /// Writes a full shadow-paged checkpoint of (catalog, views, db, plans)
  /// and truncates the WAL. Must be called with the database quiesced (the
  /// service holds every table latch exclusively). On failure before the
  /// meta flip the previous checkpoint remains live and the engine stays
  /// usable; a failure during WAL truncation leaves a stale-but-skipped
  /// log tail.
  Status Checkpoint(const Catalog& catalog, const ViewRegistry& views,
                    const Database& db, const std::vector<PlanImage>& plans);

  /// Re-verifies the checksum of every live checkpoint page (directory and
  /// data, read from disk) and re-scans the WAL for mid-log corruption.
  /// Reporting only — it never mutates state; the service decides what to
  /// quarantine.
  Result<ScrubReport> Scrub();

  /// Drops `name` from the quarantine map the next checkpoint persists.
  /// Call when a repair (LOAD) replaced the table's contents — and pair it
  /// with a checkpoint, so both the repair and the cleared quarantine
  /// outlive a restart instead of the damaged pages re-deriving it.
  void ClearQuarantinedTable(const std::string& name);

  /// Clean error if `row` encodes beyond kMaxRowBytes — the check the
  /// service runs at INSERT/LOAD time so oversized rows are refused when
  /// they arrive, not when the next CHECKPOINT trips over them.
  static Status CheckRowSize(const Row& row);

  /// True once the WAL has outgrown an armed auto-checkpoint threshold
  /// (bytes or commits since the last checkpoint) — the service's
  /// background checkpointer polls this.
  bool NeedsAutoCheckpoint() const;
  /// True once the WAL exceeds the backpressure cap: the service stalls
  /// writers until a checkpoint shrinks the log.
  bool OverBackpressureCap() const;

  /// Sequence of the last logged commit (recovered ones included).
  uint64_t last_commit_seq() const;
  /// Sequence captured by the last successful checkpoint.
  uint64_t checkpoint_seq() const;
  /// Generation of the live checkpoint. It advances exactly when a
  /// Checkpoint passes its commit point (the meta flip), so a caller can
  /// tell a checkpoint that committed but failed to truncate the WAL from
  /// one that left the previous checkpoint live.
  uint64_t generation() const;
  /// Current WAL size in bytes.
  uint64_t wal_bytes() const;
  /// True once a WAL failure has fail-stopped the engine.
  bool failed() const;

  const StorageOptions& options() const { return options_; }
  const std::string& path() const { return options_.path; }

 private:
  explicit StorageEngine(StorageOptions options)
      : options_(std::move(options)) {}

  Status Recover(MetricsRegistry* metrics);
  Status LoadCheckpoint(const std::string& directory_blob);
  Status ReplayWal();

  /// The group-commit follower/leader protocol: returns once every WAL
  /// byte up to `my_end` is durable (or the writer fail-stopped). Exactly
  /// one caller fsyncs at a time; the rest wait on its result.
  Status SyncWalGroup(uint64_t my_end);

  /// True once a group-commit leader's fsync failed. Part of the fail-stop
  /// surface alongside LogWriter::failed(): the writer itself is not
  /// poisoned by a leader failure (its appended bytes are intact), so every
  /// commit/checkpoint entry point must check both.
  bool GroupFailed() const;

  /// Allocates a page id no live checkpoint page uses (reusing freed ids
  /// before extending the file).
  uint32_t AllocatePage();

  /// Packs the rows of `table` into freshly allocated pages, encoding them
  /// straight from its chunks' columns, and writes each page as it fills
  /// (one page in memory); appends the page ids.
  Status WriteRows(const Table& table, std::vector<uint32_t>* pages);
  Result<std::vector<Row>> ReadRows(const std::vector<uint32_t>& pages,
                                    size_t expected_rows);

  StorageOptions options_;
  mutable std::mutex mu_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<LogWriter> wal_;

  RecoveredState recovered_;

  uint64_t generation_ = 0;      // of the live meta page
  uint64_t last_seq_ = 0;        // last logged commit sequence
  uint64_t checkpoint_seq_ = 0;  // commit seq captured by live checkpoint
  uint64_t wal_valid_prefix_ = 0;  // clean wal bytes found by recovery
  std::set<uint32_t> live_pages_;  // pages the live checkpoint references
  std::set<uint32_t> free_pool_;   // allocatable ids below the file end
  uint32_t next_page_ = 2;         // first never-allocated id

  /// Where every live table's rows (and the directory blob) sit on disk —
  /// what Scrub() walks. Rebuilt by LoadCheckpoint and Checkpoint.
  std::map<std::string, std::vector<uint32_t>> table_pages_;
  std::vector<uint32_t> directory_pages_;

  /// Quarantine as of the last recovery (minus repairs), serialized into
  /// every checkpoint's directory blob. Persisting it is what keeps a
  /// quarantine alive across the cleanup that recovery and checkpoints
  /// perform — WAL-tail truncation and page rewrites both destroy the
  /// on-disk evidence the quarantine was derived from. Guarded by mu_.
  std::map<std::string, std::string> quarantine_;

  /// Group-commit state. Appends publish how far the log extends through
  /// the atomics (store-release after the write syscall completed, so a
  /// leader's acquire-load only ever covers fully written bytes); the
  /// leader/follower handshake and the durable watermark live under
  /// group_mu_.
  mutable std::mutex group_mu_;
  std::condition_variable group_cv_;
  bool group_sync_active_ = false;
  bool group_failed_ = false;
  uint64_t wal_synced_offset_ = 0;
  uint64_t wal_synced_records_ = 0;
  std::atomic<uint64_t> wal_appended_offset_{0};
  std::atomic<uint64_t> wal_appended_records_{0};

  Counter* recoveries_ = nullptr;
  Counter* checkpoints_ = nullptr;
  Counter* wal_replayed_ = nullptr;
  Gauge* recovery_ms_ = nullptr;
  Gauge* recovery_replay_ms_ = nullptr;     // WAL-replay phase of recovery
  LatencyHistogram* checkpoint_latency_ = nullptr;
  Gauge* wal_size_gauge_ = nullptr;  // current WAL file size
  LatencyHistogram* group_commit_batch_ = nullptr;  // records per fsync
  Counter* pages_quarantined_ = nullptr;
};

}  // namespace aqv

#endif  // AQV_STORAGE_STORAGE_ENGINE_H_
