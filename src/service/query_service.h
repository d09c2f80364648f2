#ifndef AQV_SERVICE_QUERY_SERVICE_H_
#define AQV_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/exec_context.h"
#include "base/metrics.h"
#include "base/query_stats.h"
#include "base/result.h"
#include "base/telemetry.h"
#include "catalog/catalog.h"
#include "exec/evaluator.h"
#include "exec/table.h"
#include "ir/views.h"
#include "maintain/incremental.h"
#include "parser/parser.h"
#include "rewrite/rewriter.h"
#include "service/latch_manager.h"
#include "service/plan_cache.h"
#include "storage/storage_engine.h"

namespace aqv {

/// Construction-time knobs of a QueryService.
struct ServiceOptions {
  /// Maximum number of cached plans; 0 disables caching outright.
  size_t plan_cache_capacity = 256;
  /// Number of per-table writer latch stripes. 1 serializes every writer on
  /// one latch (the bench's baseline); more stripes let writes to disjoint
  /// tables proceed in parallel. Reads take no stripes.
  size_t latch_stripes = LatchManager::kDefaultStripes;
  /// SELECTs slower than this end up in the slow-query log (statement,
  /// fingerprint, parse/optimize/execute breakdown; see SLOWLOG). 0 disables.
  uint64_t slow_query_micros = 0;
  /// Bound on the slow-query log; older entries are dropped first.
  size_t slow_query_log_capacity = 64;

  // ---- Resource governance (see README "Resource limits & degradation").
  /// Per-SELECT deadline, microseconds from statement start; 0 disables.
  /// Exceeding it returns kDeadlineExceeded with all latches released.
  uint64_t statement_deadline_micros = 0;
  /// Per-SELECT budget on rows processed across all operators (the work and
  /// intermediate-size proxy); 0 disables. Exceeding it returns
  /// kResourceExhausted.
  size_t statement_row_budget = 0;
  /// Admission control: statements allowed in flight at once; 0 = unlimited.
  /// Over-limit statements wait up to `admission_wait_micros`, then fail
  /// with kUnavailable ("SERVER_BUSY"). Control statements bypass
  /// admission so a busy server stays inspectable: STATS and its forms,
  /// MONITOR, SLOWLOG, TRACE, FAILPOINT, TABLES, VIEWS, SCRUB, ROLLBACK,
  /// and a COMMIT that releases a BEGIN SNAPSHOT. A COMMIT that applies a
  /// BEGIN WRITE batch is admitted like any write; an unrecognized
  /// statement is refused before admission.
  size_t max_concurrent_statements = 0;
  uint64_t admission_wait_micros = 50000;
  /// Hard cap on statement text length in bytes; longer statements are
  /// rejected with kInvalidArgument before parsing. 0 disables.
  size_t max_statement_bytes = 1 << 20;
  /// Rewrite-time failures before a materialized view is quarantined from
  /// rewrite candidacy (visible in STATS, cleared by a successful REFRESH);
  /// 0 disables quarantine.
  uint32_t view_quarantine_threshold = 3;
  /// Auto-unquarantine cooldown: a quarantined view re-enters rewrite
  /// candidacy (with a clean failure slate) once this many statements have
  /// been accepted since it crossed the threshold. The write path refreshes
  /// views itself now, so without a cooldown a transient fault could strand
  /// a view out of candidacy forever on a deployment that never runs a
  /// manual REFRESH. 0 keeps quarantine permanent until REFRESH.
  uint64_t quarantine_cooldown_statements = 4096;
  /// Graceful degradation: when a rewritten or cached plan fails
  /// mid-execution (or the optimizer itself fails), retry once on the
  /// unrewritten query and record the event instead of failing the
  /// statement.
  bool degrade_on_failure = true;

  // ---- Durable storage (see README "Durability contract").
  /// Path of the database file; empty (the default) keeps the service fully
  /// in-memory — no WAL, no checkpoints, no recovery. When set, the service
  /// opens (or creates) the file at construction, recovers the last
  /// consistent commit, and from then on every committed write epoch is
  /// WAL-logged before publication. The WAL lives at storage_path + ".wal".
  std::string storage_path;
  /// fsync the WAL at every commit (the durability guarantee). Turning it
  /// off trades the last few commits for commit latency; the E18 bench
  /// quantifies the gap.
  bool storage_fsync_wal = true;
  /// Auto-checkpoint: a background thread checkpoints once the WAL passes
  /// this many bytes / this many commits since the last checkpoint, so the
  /// log can never grow unbounded. 0 disables that trigger. The commit
  /// threshold deliberately sits above E18's 4096-commit recovery fixture.
  uint64_t storage_auto_checkpoint_wal_bytes = 16ull << 20;
  uint64_t storage_auto_checkpoint_commits = 16384;
  /// Writer backpressure: once the WAL passes this cap, writers that outrun
  /// the auto-checkpointer stall (bounded sleep) until it catches up, then
  /// fail with a clean SERVER_BUSY error at the deadline. 0 disables.
  uint64_t storage_backpressure_wal_bytes = 64ull << 20;
  uint64_t storage_backpressure_wait_micros = 2000000;

  // ---- Time-series telemetry (see README "Observability").
  /// Background sampler interval for the telemetry recorder: every tick
  /// snapshots all registered metrics into a delta-encoded window queryable
  /// via STATS HISTORY / MONITOR. 0 (the default) disables the sampler
  /// thread — MONITOR still cuts windows on demand, so the surface works
  /// without a resident thread.
  uint64_t telemetry_interval_micros = 0;
  /// Telemetry ring capacity in windows; oldest windows are dropped (and
  /// counted) once full.
  size_t telemetry_history_capacity = 240;
  /// Bound on per-fingerprint cost-attribution aggregates (STATS
  /// ATTRIBUTION, FingerprintProfiles()); new fingerprints past the bound
  /// are counted as overflow instead of tracked. 0 disables attribution
  /// aggregation entirely.
  size_t attribution_capacity = 512;

  // ---- Execution engine (see README "Execution engine").
  /// Batch-at-a-time columnar execution for scans, filters and hash-group
  /// aggregation; operators without a vectorized implementation fall back
  /// to the row engine per operator, with identical results (enforced by
  /// the row-vs-batch differential oracle). Applies to every evaluator the
  /// service runs (reads, SAVE, view recompute and REFRESH, incremental
  /// maintenance); set false to force the row engine everywhere.
  bool vectorized = true;

  RewriteOptions rewrite;

  ServiceOptions() { rewrite.use_key_information = true; }
};

/// Outcome of one statement. `table` is set for SELECT; everything else
/// reports through `message` (acks, EXPLAIN text, STATS report, listings).
struct StatementResult {
  StatementResult() = default;
  /// A result that reports through `message` alone.
  explicit StatementResult(std::string text) : message(std::move(text)) {}

  std::string message;
  std::optional<Table> table;
  bool cache_hit = false;
  /// The cached plan was costed on other data versions, so its candidates
  /// were re-priced against this statement's state (a hit all the same).
  bool recosted = false;
  bool used_materialized_view = false;
  /// The statement succeeded on a degraded path: its rewritten/cached plan
  /// (or the optimizer) failed and the unrewritten query was retried.
  bool degraded = false;
};

/// One published state of the service, immutable once published: the
/// catalog, the view registry and the database (table versions of base
/// tables and stored views). The service's head is a pointer to one; a pin
/// is a copy of that pointer, so pinning is O(1), and a later
/// change publishes a new state instead of touching this one. `epoch` is
/// the database's version counter; two states with equal epochs hold
/// identical contents. Every SELECT runs on one. A default-constructed one
/// is the empty state.
struct ServiceSnapshot {
  std::shared_ptr<const Catalog> catalog = std::make_shared<const Catalog>();
  std::shared_ptr<const ViewRegistry> views =
      std::make_shared<const ViewRegistry>();
  Database db;
  uint64_t epoch = 0;
};
using ServiceSnapshotPtr = std::shared_ptr<const ServiceSnapshot>;

/// Point-in-time snapshot of the service's runtime counters, for embedders
/// that want numbers rather than the STATS text.
struct ServiceStats {
  uint64_t statements = 0;         // statements accepted (all kinds)
  uint64_t queries_served = 0;     // SELECTs executed to completion
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  /// Hits whose entry was costed on other data versions and was re-priced
  /// for the reader's state (each also counts as a hit).
  uint64_t plan_cache_recosts = 0;
  /// Cached plans found at lookup to be unusable for the reader's state
  /// (schema or quarantine set changed, or an entry that cannot be
  /// re-costed saw a write), re-costs whose cheapest candidate changed,
  /// and entries erased after failing mid-execution.
  uint64_t plan_cache_invalidated = 0;
  /// SELECT texts served from the statement-text map, not parsed.
  uint64_t statement_cache_hits = 0;
  uint64_t rewrites_applied = 0;   // chosen plan uses a materialized view
  uint64_t rewrites_skipped = 0;   // original plan kept
  uint64_t slow_queries = 0;       // SELECTs over ServiceOptions::slow_query_micros
  /// Explicit pins only: BEGIN SNAPSHOT + PinSnapshot() calls. The pin every
  /// live SELECT takes of the head state is not counted.
  uint64_t snapshots_pinned = 0;
  uint64_t snapshot_reads = 0;     // SELECTs served from an explicit pin
  uint64_t admission_rejects = 0;  // statements rejected SERVER_BUSY
  uint64_t degraded_fallbacks = 0; // retries on the unrewritten plan
  uint64_t rows_inserted = 0;  // INSERT/UPDATE/COMMIT rows + LOAD's new rows
  uint64_t rows_deleted = 0;   // DELETE/UPDATE/COMMIT rows + LOAD's old rows
  uint64_t views_maintained = 0;   // write-path incremental maintenances
  uint64_t views_recomputed = 0;   // write-path full recomputes (fallback)
  /// Per-table MVCC accounting at snapshot time: live versions, bytes pinned
  /// by retired-but-referenced versions, oldest pinned epoch (see
  /// VersionLedger).
  std::vector<TableMvcc> mvcc;
  uint64_t mvcc_oldest_pinned_epoch = 0;  // min across tables, 0 = none pinned
  /// Failed statements by status-code token ("invalid_argument",
  /// "deadline_exceeded", ...), sorted by token.
  std::vector<std::pair<std::string, uint64_t>> errors_by_code;
  /// Materialized views currently excluded from rewrite candidacy.
  std::vector<std::string> quarantined_views;
  size_t plan_cache_size = 0;
  size_t plan_cache_capacity = 0;  // configured bound (0 = caching disabled)
  size_t latch_stripes = 0;        // configured stripe count
  double plan_cache_hit_rate = 0;  // hits / (hits + misses), 0 when no lookups
  double optimize_p50_micros = 0;
  double optimize_p99_micros = 0;
  uint64_t optimize_max_micros = 0;
  double exec_p50_micros = 0;
  double exec_p99_micros = 0;
  uint64_t exec_max_micros = 0;
  double maintain_p50_micros = 0;  // per-statement view-maintenance wall time
  double maintain_p99_micros = 0;
  uint64_t maintain_max_micros = 0;

  // ---- Durable storage (zero / false when no storage_path is configured).
  bool storage_attached = false;
  uint64_t storage_pages_read = 0;
  uint64_t storage_pages_written = 0;
  uint64_t storage_wal_bytes = 0;     // bytes appended since start
  uint64_t storage_wal_records = 0;   // commits logged since start
  uint64_t storage_wal_fsyncs = 0;
  uint64_t storage_checkpoints = 0;
  uint64_t storage_wal_replayed = 0;  // commits replayed by recovery
  int64_t storage_recovery_ms = 0;    // wall time of the last recovery
  uint64_t storage_last_commit_seq = 0;
  uint64_t storage_checkpoint_seq = 0;
  double storage_fsync_p50_micros = 0;  // WAL fsync latency distribution
  double storage_fsync_p99_micros = 0;
  uint64_t storage_fsync_max_micros = 0;
  double storage_checkpoint_p99_micros = 0;  // full-checkpoint duration
  int64_t storage_recovery_replay_ms = 0;    // WAL-replay phase of recovery
  int64_t storage_recovery_recompute_ms = 0;  // stale-view recompute phase
  uint64_t storage_wal_size_bytes = 0;       // current WAL file size (gauge)
  uint64_t storage_auto_checkpoints = 0;     // background checkpoints taken
  uint64_t storage_backpressure_waits = 0;   // writers stalled on the cap
  double storage_group_batch_p50 = 0;        // commits coalesced per fsync
  double storage_group_batch_p99 = 0;
  uint64_t storage_pages_quarantined = 0;    // data pages under quarantine
  /// Tables (and dependent materialized views) quarantined by recovery
  /// after checksum or mid-log WAL corruption, with the reason. Reads and
  /// writes error cleanly; a full LOAD replacement repairs and clears.
  std::vector<std::pair<std::string, std::string>> quarantined_tables;

  // ---- Observability of the observability (PR 7).
  uint64_t trace_dropped_spans = 0;    // spans lost to trace-ring overflow
  uint64_t telemetry_windows = 0;      // windows sampled since start
  uint64_t telemetry_dropped = 0;      // windows evicted from the ring

  std::string ToString() const;
};

/// One statement that exceeded ServiceOptions::slow_query_micros: its
/// QueryStats (fingerprint 0 for a write) and its text.
struct SlowQueryRecord : QueryStats {
  std::string statement;
};

/// An embeddable, thread-safe query service over the aqv library: it owns a
/// Catalog, a Database and a ViewRegistry, executes the same statement
/// dialect as examples/aqvsh.cpp, and caches optimized plans in a bounded
/// LRU keyed by the canonical IR fingerprint (ir/fingerprint.h).
///
/// Concurrency contract (see also README "Concurrency contract"):
///   - The service's state is one immutable ServiceSnapshot, the head.
///     Publish is the only code that replaces it. A pin copies the head
///     pointer and takes no latch, so a read never waits for a writer, DDL
///     or CHECKPOINT. A live SELECT reads a fresh pin; inside BEGIN
///     SNAPSHOT it reads the thread's pin.
///   - Every row write and REFRESH binds against a pin, then runs
///     ApplyWrite, which takes the ddl latch shared plus the latch stripes
///     of what it writes (exclusive) and what a recompute reads (shared),
///     in ascending stripe order, builds its tables and views off the
///     head, and publishes them at one epoch. DDL takes the ddl latch
///     exclusive, builds its whole next state, checkpoints it when storage
///     is attached, and publishes it only once that succeeded.
///   - Plan-cache coherence comes from versions, not hooks: an entry records
///     the catalog, registry and dependency versions it was optimized on,
///     and a lookup from a different state is a miss whose re-optimized
///     entry replaces it.
///
/// Routing: one table of statement forms (kStatementForms) says which
/// statements exist. Each form has its leading keywords, whether they are
/// the whole statement, a class and a handler. Execute and Select(sql,
/// snapshot) enter one router that classifies a statement once, by its
/// leading keywords alone, and lets the class decide admission (control
/// statements skip it) and what an open BEGIN SNAPSHOT (refuses writes) or
/// BEGIN WRITE (buffers DML, refuses other writes) does to it. The members
/// are defined along the routes: the router, lifecycle and Publish in
/// query_service.cc, reads in read_path.cc, writes and DDL in
/// write_path.cc, introspection and storage administration in admin.cc.
///
/// Metrics are exposed three ways: the STATS statement (human-readable),
/// Stats() (struct snapshot), and metrics() (the raw registry).
class QueryService {
 public:
  explicit QueryService(ServiceOptions options = ServiceOptions{});

  /// Stops and joins the auto-checkpoint thread before storage teardown.
  ~QueryService();

  /// Parses and executes one statement (same dialect as aqvsh; see HELP
  /// there). Thread-safe. Statement keywords are matched case-insensitively.
  ///
  /// Beyond the aqvsh dialect, BEGIN SNAPSHOT pins a snapshot for the
  /// calling thread — subsequent SELECTs on that thread read the pinned
  /// epoch until COMMIT releases it. Writes and DDL are rejected on a
  /// thread with an open snapshot.
  ///
  /// BEGIN WRITE opens a per-thread write batch: subsequent INSERT, DELETE
  /// and UPDATE statements are checked against committed state and buffer
  /// their rows instead of applying them, COMMIT applies the whole batch
  /// through the one write path (one COW copy per table, dependent views
  /// maintained, everything published at one epoch), and ROLLBACK discards
  /// it. Only those statements (and SELECT, which reads committed state)
  /// may run inside a batch; a failed COMMIT discards the batch with
  /// nothing published.
  Result<StatementResult> Execute(const std::string& statement);

  /// Typed convenience wrapper: Execute on a SELECT, returning the rows.
  Result<Table> Select(const std::string& sql);

  /// Pins the head state (see ServiceSnapshot): an O(1) pointer copy that
  /// never waits for a writer, DDL or CHECKPOINT, and sees each change
  /// whole or not at all. Thread-safe; the snapshot is independent of the
  /// BEGIN SNAPSHOT statement dialect and may be shared across threads.
  ServiceSnapshotPtr PinSnapshot();

  /// Executes a SELECT against a pinned snapshot, through the same read
  /// path as a live SELECT: a cached plan is used only if it was optimized
  /// on the snapshot's state, and only the pinned table versions are read.
  /// Any number of threads may read one snapshot concurrently. It is
  /// routed like Execute (size cap, admission, error counter) and accepts
  /// only a SELECT.
  Result<Table> Select(const std::string& sql, const ServiceSnapshot& snapshot);

  /// Replaces the service's catalog, database and view registry wholesale
  /// (e.g. with a pre-built workload), published like any DDL. Cached plans
  /// of the old state stop matching and are re-optimized on first use.
  Status Bootstrap(Catalog catalog, Database db, ViewRegistry views);

  ServiceStats Stats() const;
  void ResetStats();
  MetricsRegistry& metrics() { return metrics_; }

  /// Outcome of opening ServiceOptions::storage_path at construction: OK
  /// when storage is attached and recovery succeeded (or no path was
  /// configured). On failure the service still constructs — in-memory and
  /// empty — so the caller can inspect this, fix the cause (e.g. disarm an
  /// injected recovery fault) and build a fresh service to retry; recovery
  /// itself never writes, so retrying is always safe.
  Status storage_status() const { return storage_status_; }

  /// True when a durable storage engine is attached and healthy.
  bool storage_attached() const { return storage_ != nullptr; }

  /// Prometheus text exposition of the service metrics (also available as
  /// the STATS PROM statement). Point-in-time gauges (plan-cache size /
  /// capacity) are refreshed on each call.
  std::string StatsPromText();

  /// Snapshot of the slow-query log, oldest first (see
  /// ServiceOptions::slow_query_micros and the SLOWLOG statement).
  std::vector<SlowQueryRecord> SlowQueries() const;

  /// The time-series recorder behind STATS HISTORY / MONITOR. Always
  /// constructed; its background thread runs only when
  /// ServiceOptions::telemetry_interval_micros is nonzero.
  TelemetryRecorder& telemetry() { return *telemetry_; }

  /// Per-fingerprint cost-attribution aggregates, heaviest total wall time
  /// first — the advisor's ranking signal (also STATS ATTRIBUTION).
  std::vector<FingerprintProfile> FingerprintProfiles() const;

 private:
  /// One state-changing statement as the write path receives it. INSERT
  /// rows and a committed BEGIN WRITE batch arrive as `delta`; a DELETE or
  /// UPDATE arrives as its predicate, materialized against the table version
  /// it applies to; a LOAD into an existing table arrives as the table's
  /// new contents and becomes delete-all-old-rows plus insert-all-new-rows.
  /// A REFRESH names its view and carries nothing.
  struct WriteRequest {
    enum class Kind { kInsert, kDelete, kUpdate, kLoad, kRefresh, kCommit };
    Kind kind = Kind::kInsert;
    std::string table;             // the target (a view for kRefresh)
    Delta delta;                   // kInsert / kCommit
    std::vector<Predicate> where;  // kDelete / kUpdate; empty = all rows
    std::vector<Assignment> sets;  // kUpdate
    std::optional<Table> replacement;  // kLoad
  };
  using Kind = WriteRequest::Kind;

  /// What a statement form's class decides: whether the statement takes
  /// an admission slot, and what an open BEGIN SNAPSHOT or BEGIN WRITE on
  /// the calling thread does to it.
  enum StatementClass {
    kControl,  // skips admission; runs in any session
    kRead,     // admitted; runs in any session, on the thread's pin if any
    kSession,  // admitted; a BEGIN checks the thread's session itself
    kDml,      // admitted; refused in a snapshot, buffered by a batch
    kWrite,    // admitted; refused in a snapshot and in a batch
    kDdl,      // admitted; refused in a snapshot and in a batch
  };

  /// One classified statement, as its handler receives it.
  struct Statement {
    std::string_view text;      // the whole statement, trimmed
    std::string_view args;      // the text after the form's keywords
    Kind kind = Kind::kInsert;  // the form's row-write kind
    /// The class it runs as: the form's, except that a COMMIT applying a
    /// BEGIN WRITE batch is kWrite.
    StatementClass cls = kControl;
    /// Select(sql, snapshot)'s state, or null.
    const ServiceSnapshot* pinned = nullptr;
  };
  using Handler = Result<StatementResult> (QueryService::*)(const Statement&);

  /// One entry of the statement table.
  struct StatementForm {
    std::string_view keywords;  // upper case, single-spaced, whole tokens
    bool whole;                 // the keywords must be the whole statement
    StatementClass cls;
    Handler handler;
    Kind kind = Kind::kInsert;  // row writes
  };
  /// Every statement form, longer keyword sequences before their prefixes
  /// (STATS HISTORY before STATS); the first form whose keywords lead
  /// a statement is its form.
  static const StatementForm kStatementForms[];

  /// The router behind Execute and Select(sql, snapshot), once for every
  /// statement: the size cap, trim, classification, admission, the
  /// session gates, the root span and the error counter. With `pinned`
  /// only the SELECT form is accepted, and it reads that state.
  Result<StatementResult> Route(const std::string& statement,
                                const ServiceSnapshot* pinned);
  /// Runs a routed statement's handler under the root span, once the
  /// thread's session allows its form.
  Result<StatementResult> Dispatch(const StatementForm& form,
                                   const Statement& s);

  /// What the one read path produces from a SELECT: its rows, its plan
  /// (EXPLAIN), or its plan annotated with a profiled execution.
  enum class ReadKind { kSelect, kExplain, kExplainAnalyze };

  /// The one read path behind SELECT, EXPLAIN [ANALYZE] and
  /// Select(sql, snapshot): parse, quarantine check, plan through the cache,
  /// execute — degrading a failed rewritten or cached plan to the
  /// unrewritten query — all on one pinned state. `pinned` is an explicit
  /// snapshot; when null the thread's BEGIN SNAPSHOT pin is read, else the
  /// head state is pinned now.
  Result<StatementResult> Read(std::string_view stmt, ReadKind kind,
                               const ServiceSnapshot* pinned);
  /// SELECT reads its whole text, EXPLAIN [ANALYZE] the SELECT after it.
  template <ReadKind kKind>
  Result<StatementResult> HandleRead(const Statement& s) {
    return Read(kKind == ReadKind::kSelect ? s.text : s.args, kKind, s.pinned);
  }
  Result<StatementResult> HandleWhy(const Statement& s);
  Result<StatementResult> HandleSave(const Statement& s);

  // Introspection and storage administration.
  Result<StatementResult> HandleStats(const Statement& s);
  Result<StatementResult> HandleStatsProm(const Statement& s);
  /// STATS HISTORY [JSON] [n]: the last n telemetry windows (default all),
  /// oldest first, as a text table or the JSON artifact.
  Result<StatementResult> HandleStatsHistory(const Statement& s);
  /// STATS ATTRIBUTION [n]: top-n per-fingerprint cost aggregates.
  Result<StatementResult> HandleAttribution(const Statement& s);
  /// MONITOR [n]: cuts a window now and renders a dashboard over the last
  /// n windows (throughput, cache hit rate, latency means, WAL activity).
  Result<StatementResult> HandleMonitor(const Statement& s);
  Result<StatementResult> HandleSlowLog(const Statement& s);
  Result<StatementResult> HandleTrace(const Statement& s);
  Result<StatementResult> HandleFailpoint(const Statement& s);
  Result<StatementResult> HandleListTables(const Statement& s);
  Result<StatementResult> HandleListViews(const Statement& s);

  /// The one statement shell of every row-changing statement: INSERT,
  /// DELETE, UPDATE, LOAD, REFRESH and the COMMIT of a BEGIN WRITE batch. It
  /// binds the statement against a pin (BindWrite), then either buffers the
  /// request's delta, materialized against that pin, into the thread's open
  /// batch, or runs it through ApplyWrite; phase accounting, the slow-log
  /// record and the ack happen here once. A LOAD whose table does not
  /// exist yet is DDL instead: it creates the table through PublishDdl.
  Result<StatementResult> HandleWrite(const Statement& s);

  /// Parses `s` into a WriteRequest of its form's kind and checks it
  /// against `state`: a target that is a view is refused with the
  /// statement's verb, a missing table with kNotFound (except LOAD, which
  /// then creates it), a REFRESH of no view with kNotFound, and incoming
  /// rows of the wrong arity with kInvalidArgument. COMMIT takes the
  /// thread's batch, whose statements were checked as they were buffered.
  Result<WriteRequest> BindWrite(const Statement& s,
                                 const ServiceSnapshot& state);

  /// The delta `request` makes against `db`: the rows it carries, the rows
  /// its predicate matches (plus their updated images), or every old row
  /// replaced by every loaded one. Moves the rows out of `request->delta`.
  Result<Delta> MaterializeWrite(WriteRequest* request,
                                 const Database& db) const;

  /// Appends `delta` to the calling thread's open BEGIN WRITE batch; the
  /// only code that grows a batch.
  Status BufferWrite(Delta delta);

  /// CHECKPOINT: flushes a full shadow-paged checkpoint and truncates the
  /// WAL, under the exclusive ddl latch.
  Result<StatementResult> HandleCheckpoint(const Statement& s);

  /// SCRUB: re-verifies every live checkpoint page's checksum straight from
  /// disk plus the WAL framing, and reports per-table health alongside the
  /// current quarantine set. Reporting only — data-page rot in the
  /// checkpoint heals at the next CHECKPOINT (pages are rewritten from the
  /// live in-memory copy), so SCRUB recommends rather than quarantines.
  Result<StatementResult> HandleScrub(const Statement& s);

  /// Background auto-checkpoint loop (storage attached only): polls
  /// StorageEngine::NeedsAutoCheckpoint, quiesces under the exclusive ddl
  /// latch and checkpoints. `checkpoint.auto` fires per attempt, so chaos
  /// runs can error or kill exactly at the trigger point.
  void AutoCheckpointLoop();

  /// Bounded writer stall while the WAL sits over the backpressure cap:
  /// sleeps (kicking the checkpointer) until the cap clears or the deadline
  /// passes, then returns a clean SERVER_BUSY-style kUnavailable. Called
  /// before any latch is taken — stalling while holding stripes would
  /// deadlock against the checkpointer's exclusive ddl acquisition.
  Status WaitOutBackpressure();

  /// kUnavailable with the stored reason if any of `names` is quarantined.
  Status CheckTableQuarantine(const std::vector<std::string>& names) const;

  /// Repair hook: a LOAD that fully replaced `name` lifts its quarantine,
  /// and any dependent view of `views` whose closure no longer touches a
  /// quarantined base table re-enters service (its contents were just
  /// recomputed). Every lift is mirrored into the engine's persisted
  /// quarantine map. Returns true when `name` itself was quarantined — the
  /// caller must then checkpoint, or the repair dies with the process
  /// (recovery re-derives the quarantine from the still-corrupt pages and
  /// discards the repair delta as suspect).
  bool ClearTableQuarantine(const std::string& name, const ViewRegistry& views);

  /// Current table quarantine, name-sorted, for STATS/SCRUB.
  std::vector<std::pair<std::string, std::string>> QuarantinedTables() const;

  /// Opens ServiceOptions::storage_path and publishes the recovered state:
  /// catalog, views, base tables, surviving view contents (stale ones
  /// recomputed upstream-first), and the persisted plan cache when the
  /// schema versions still match. Called from the constructor only.
  Status AttachStorage();

  /// Checkpoints `state`, with the plan cache entries optimized on it, when
  /// storage is attached. The engine needs a quiesced database, so the
  /// caller holds the ddl latch exclusive and `state` is the head or the
  /// next state it is about to publish.
  Status CheckpointIfDurable(const ServiceSnapshot& state);

  /// The only code that replaces the head. Under publish_mutex_ it copies
  /// the then-current head, lets `change` edit the copy (so two writers on
  /// disjoint stripes never drop each other's tables), records the table
  /// versions the copy replaced in the MVCC ledger, and stores it. Returns
  /// the published epoch.
  uint64_t Publish(const std::function<void(ServiceSnapshot*)>& change);

  /// Commits a schema change (CREATE TABLE, CREATE [MATERIALIZED] VIEW, a
  /// table-creating LOAD, Bootstrap): checkpoints `next` when storage is
  /// attached — the WAL logs row deltas, not DDL — and publishes it only
  /// once that checkpoint committed, so a DDL is visible once it is durable
  /// and one that failed before the commit point changes nothing. A
  /// checkpoint that committed but could not truncate the WAL publishes and
  /// still returns the truncate error. Caller holds the ddl latch exclusive
  /// and built `next` from the head.
  Status PublishDdl(ServiceSnapshot next);

  /// What one ApplyWrite call changed, for acks and metrics. Inserted and
  /// deleted rows are counted separately (an UPDATE of n rows is n deletes
  /// plus n inserts).
  struct WriteApplied {
    size_t rows_inserted = 0;     // rows added across all tables
    size_t rows_deleted = 0;      // rows removed across all tables
    size_t tables = 0;            // base tables written
    size_t views_maintained = 0;  // dependents folded incrementally
    size_t views_recomputed = 0;  // dependents fully recomputed
    /// "VIEW: reason" per recomputed dependent, ", "-separated.
    std::string recomputes;
    bool repaired = false;        // a LOAD lifted its table's quarantine
    /// The epoch Publish gave the write; when nothing changed, the epoch
    /// of the state it ran against.
    uint64_t epoch = 0;
  };

  /// The only code that runs the write sequence: the backpressure gate
  /// (before any latch), the latch footprint (ddl shared; written tables
  /// and every dependent materialized view exclusive, the dependents'
  /// closures shared), the request materialized under those latches
  /// against the head, the row-size check, one COW copy per written table
  /// (which refuses a delete it cannot cover), every dependent view brought
  /// up to date upstream-first — folded by IncrementalMaintainer where its
  /// shape allows, recomputed otherwise — the WAL record, and base tables plus
  /// views published by Publish at a single epoch, so snapshot readers
  /// never see a table/view mismatch. Any failure before Publish leaves
  /// the head untouched. A LOAD recomputes its dependents instead of
  /// folding, and is accepted on a quarantined table: it replaces the
  /// salvaged contents wholesale and lifts the quarantine. A REFRESH
  /// writes no base table: it recomputes its view and every stored view
  /// over it, upstream-first.
  Result<WriteApplied> ApplyWrite(WriteRequest request, QueryStats* stats);

  /// A materialized view whose stored contents must follow writes to any
  /// table in `closure`.
  struct DependentView {
    std::string name;
    std::vector<std::string> closure;  // the view's transitive FROM closure
  };

  /// Materialized (stored) views of `state` whose definition closure
  /// touches any of `tables`, plus any view `tables` names itself, ordered
  /// upstream-first. Found by walking the registry downstream from
  /// `tables` (ViewRegistry::ReadersOf), so the cost follows the
  /// dependents, not the registry size.
  static Result<std::vector<DependentView>> DependentViewsOf(
      const ServiceSnapshot& state, const std::vector<std::string>& tables);

  /// `views` reordered upstream-first: a view whose closure names another
  /// entry comes after it, so it recomputes from refreshed inputs.
  static Result<std::vector<DependentView>> UpstreamFirst(
      std::vector<DependentView> views);

  /// The one view-recompute primitive (write path, REFRESH, CREATE
  /// MATERIALIZED VIEW, recovery): evaluates `name`'s definition against
  /// `state` — a next state being built, holding the post-write base tables
  /// and any already-refreshed upstream views — and stores the result
  /// there. Returns its row count.
  Result<size_t> RecomputeViewInto(const std::string& name,
                                   ServiceSnapshot* state) const;

  // Schema-change statements: ddl exclusive, published through PublishDdl
  // (LOAD only when the table is new; see HandleWrite).
  Result<StatementResult> HandleCreateTable(const Statement& s);
  /// Adds table `def`, holding `contents`, to the catalog and publishes
  /// the new state: the schema change CREATE TABLE and a LOAD that creates
  /// its table share. With `created_elsewhere` given, a table another
  /// statement created first is reported there (nothing is published)
  /// instead of failing as a duplicate.
  Status PublishNewTable(TableDef def, Table contents,
                         bool* created_elsewhere);
  template <bool kMaterialized>
  Result<StatementResult> HandleCreateView(const Statement& s) {
    return CreateView(s, kMaterialized);
  }
  Result<StatementResult> CreateView(const Statement& s, bool materialized);

  // Snapshot / write-batch statement dialect (per calling thread).
  Result<StatementResult> HandleBeginSnapshot(const Statement& s);
  Result<StatementResult> HandleBeginWrite(const Statement& s);
  /// COMMIT: applies the thread's BEGIN WRITE batch through HandleWrite
  /// (when routed as kWrite), else releases its BEGIN SNAPSHOT pin.
  Result<StatementResult> HandleCommit(const Statement& s);
  Result<StatementResult> HandleRollback(const Statement& s);
  /// The snapshot pinned by BEGIN SNAPSHOT on the calling thread, or null.
  ServiceSnapshotPtr ThreadSnapshot() const;
  /// True if the calling thread has an open BEGIN WRITE batch.
  bool ThreadHasWriteBatch() const;

  /// The head state: one pointer copy under head_mutex_, no latch. Counts
  /// nothing (PinSnapshot counts explicit pins).
  ServiceSnapshotPtr Head() const {
    std::lock_guard<std::mutex> lock(head_mutex_);
    return head_;
  }
  /// The state a read statement runs on: the thread's pin, else Head().
  ServiceSnapshotPtr ReadState() const;

  /// Parses and binds SELECT `text` on `state`'s schema through the
  /// statement-text map: a repeated text on the same schema is neither
  /// parsed nor re-keyed. Parse errors are not stored.
  Result<PlanCache::StatementPtr> ParseThroughCache(
      std::string_view text, const ServiceSnapshot& state);

  /// Optimizes `stmt` on `state` through the plan cache (see PlanCache for
  /// when an entry is current, re-costed or stale). A stale entry or a
  /// miss runs the optimizer and inserts the entry, replacing the old one;
  /// a re-costed entry replaces the old one only when `at_head` (a reader
  /// on an older pinned snapshot re-costs for itself, and the head's next
  /// reader would only re-cost it back). `ctx` bounds candidate
  /// enumeration by the statement deadline. When the optimizer itself
  /// fails and degradation is enabled, returns an uncached entry holding
  /// the unrewritten query and sets `out->degraded`. Sets
  /// `out->cache_hit` and `out->recosted`.
  Result<PlanCache::EntryPtr> PlanThroughCache(
      const PlanCache::Statement& stmt, const ServiceSnapshot& state,
      bool at_head, ExecContext* ctx, StatementResult* out);

  /// True when a failed plan or optimization should be retried on the
  /// unrewritten query: degradation is on and `s` is not a governance
  /// verdict (deadline or row budget), which must surface as-is.
  bool ShouldDegrade(const Status& s) const;

  /// Admission control (ServiceOptions::max_concurrent_statements): blocks
  /// up to admission_wait_micros for a slot, then kUnavailable.
  Status AdmitStatement();
  void ReleaseStatement();

  /// Bumps service.errors_total{code="<token>"} for a failed statement.
  void RecordError(const Status& status);

  /// Quarantine bookkeeping: failure charging, candidacy exclusion list
  /// (names over the threshold, sorted), and the REFRESH-time reset.
  /// QuarantinedViews' `generation`, when given, receives the quarantine
  /// generation the returned set belongs to.
  void ChargeViewFailure(const std::string& view);
  std::vector<std::string> QuarantinedViews(
      uint64_t* generation = nullptr) const;
  void ClearViewFailures(const std::string& view);
  /// The current quarantine generation, after a cooldown sweep if one is
  /// due: what a cached plan's stamp is compared with.
  uint64_t QuarantineGeneration() const;

  /// Folds one statement's QueryStats into its fingerprint aggregate
  /// (thread-safe; bounded by ServiceOptions::attribution_capacity).
  void RecordStatementProfile(std::string_view stmt, const QueryStats& qs);

  /// Appends the statement's record to the bounded slow-query log when it
  /// is over the threshold (no-op when slow_query_micros is 0 or the
  /// statement was fast enough). Thread-safe.
  void MaybeRecordSlowStatement(std::string_view stmt, const QueryStats& qs);

  ServiceOptions options_;
  /// Evaluator options derived from options_ (the engine setting).
  EvalOptions eval_options_;

  /// The ddl latch and writers' stripes (see the class comment). Readers
  /// take neither: they need only a pin. The plan cache and metrics have
  /// their own internal synchronization.
  mutable LatchManager latches_;
  /// The published state. Stored only by Publish; copied by every pin.
  /// head_mutex_ is held only to copy or swap the pointer, never while a
  /// state is built, so a pin waits for no writer, DDL or CHECKPOINT.
  /// (libstdc++ 12's std::atomic<std::shared_ptr> would do the same with
  /// a lock bit, but its load unlocks relaxed, which TSan reports as a
  /// race with the next store.)
  mutable std::mutex head_mutex_;
  ServiceSnapshotPtr head_ = std::make_shared<const ServiceSnapshot>();
  /// Serializes Publish, and guards ledger_.
  mutable std::mutex publish_mutex_;
  /// The versions Publish retired, held weakly (Stats().mvcc).
  VersionLedger ledger_;

  PlanCache plan_cache_;

  /// Durable storage engine (null when ServiceOptions::storage_path is
  /// empty or opening it failed; see storage_status()). The engine carries
  /// its own mutex — LogCommit from disjoint-table writers is ordered
  /// there, under whatever stripes each writer holds.
  std::unique_ptr<StorageEngine> storage_;
  Status storage_status_;

  /// A thread's open session: the pin of a BEGIN SNAPSHOT or the rows a
  /// BEGIN WRITE buffered (grown only by BufferWrite), never both. COMMIT
  /// ends either and ROLLBACK discards a batch; a thread that exits with a
  /// session open leaks it until the service dies.
  struct Session {
    ServiceSnapshotPtr pin;
    std::optional<Delta> batch;
  };
  mutable std::mutex session_mutex_;
  std::unordered_map<std::thread::id, Session> sessions_;

  /// Bounded slow-query log; its own lock so recording never contends with
  /// the data latches.
  mutable std::mutex slow_log_mutex_;
  std::deque<SlowQueryRecord> slow_log_;

  /// Admission control state (its own lock, taken before any data latch;
  /// Route releases a statement's slot once its handler returns).
  std::mutex admission_mutex_;
  std::condition_variable admission_cv_;
  size_t inflight_statements_ = 0;

  /// Per-view rewrite-failure counts behind quarantine (own lock; touched
  /// only on failure paths, REFRESH, and the cooldown sweep). `quarantined_at`
  /// is the accepted-statement count when `failures` crossed the threshold;
  /// QuarantinedViews() lazily erases records whose cooldown has elapsed.
  struct ViewFailureRecord {
    uint32_t failures = 0;
    uint64_t quarantined_at = 0;  // 0 = not (yet) quarantined
  };
  mutable std::mutex quarantine_mutex_;
  mutable std::unordered_map<std::string, ViewFailureRecord> view_failures_;
  /// Bumped (under quarantine_mutex_) whenever the set QuarantinedViews()
  /// returns changes: a view crosses the threshold, a cooldown sweep frees
  /// one, or a quarantined view's record is cleared. Cached plans record
  /// it, so a plan chosen around another set is re-optimized.
  mutable std::atomic<uint64_t> quarantine_generation_{0};
  /// The statement count at which the earliest cooldown ends (max when
  /// none is pending), so that the plan-cache probe knows when to sweep.
  mutable std::atomic<uint64_t> quarantine_sweep_due_{UINT64_MAX};
  /// Tables (and dependent materialized views) whose durable state failed
  /// recovery's checksum/WAL validation, mapped to the reason. Reads and
  /// writes of these names error cleanly; LOAD replacement clears. Shares
  /// quarantine_mutex_ with the view-failure records above. In-memory only:
  /// quarantine is re-derived from the files at every recovery.
  std::map<std::string, std::string> table_quarantine_;

  /// Auto-checkpoint thread state: the thread runs only when storage is
  /// attached with a nonzero threshold; stop is flagged under the mutex and
  /// the condvar gives prompt shutdown and backpressure kicks.
  std::mutex checkpoint_mutex_;
  std::condition_variable checkpoint_cv_;
  bool stop_checkpointer_ = false;
  std::thread checkpointer_;

  /// Per-fingerprint cost attribution (own lock; one map update per SELECT,
  /// never under a data latch). Bounded by attribution_capacity; overflow
  /// fingerprints are counted, not tracked.
  mutable std::mutex profile_mutex_;
  std::unordered_map<uint64_t, FingerprintProfile> profiles_;
  uint64_t profile_overflow_ = 0;  // under profile_mutex_

  MetricsRegistry metrics_;
  Counter& statements_;
  Counter& queries_served_;
  Counter& cache_hits_;
  Counter& cache_misses_;
  Counter& cache_invalidated_;
  Counter& cache_recosts_;
  Counter& statement_cache_hits_;
  Counter& rewrites_applied_;
  Counter& rewrites_skipped_;
  Counter& slow_queries_;
  Counter& snapshots_pinned_;
  Counter& snapshot_reads_;
  Counter& admission_rejects_;
  Counter& degraded_fallbacks_;
  Counter& rows_inserted_;
  Counter& rows_deleted_;
  Counter& views_maintained_;
  Counter& views_recomputed_;
  Gauge& cache_size_gauge_;
  Gauge& cache_capacity_gauge_;
  LatencyHistogram& optimize_latency_;
  LatencyHistogram& exec_latency_;
  LatencyHistogram& maintain_latency_;

  /// Time-series recorder over metrics_ (always constructed; see
  /// ServiceOptions::telemetry_interval_micros). Declared after metrics_ so
  /// it is destroyed — and its sampler joined — before the registry.
  std::unique_ptr<TelemetryRecorder> telemetry_;
};

}  // namespace aqv

#endif  // AQV_SERVICE_QUERY_SERVICE_H_
