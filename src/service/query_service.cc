#include "service/query_service.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

#include "base/failpoint.h"
#include "base/strings.h"
#include "base/trace.h"
#include "ir/printer.h"
#include "service/service_util.h"

namespace aqv {

std::string ServiceStats::ToString() const {
  char buf[1280];
  std::snprintf(
      buf, sizeof(buf),
      "statements          %llu\n"
      "queries served      %llu\n"
      "plan cache          %llu hit / %llu miss (%.1f%% hit rate, "
      "%zu/%zu entries, %llu re-costed, %llu invalidated)\n"
      "statement texts     %llu reused unparsed\n"
      "rewrites            %llu applied / %llu skipped\n"
      "snapshots           %llu pinned / %llu reads\n"
      "latch stripes       %zu\n"
      "slow queries        %llu\n"
      "optimize latency    p50=%.1fus p99=%.1fus max=%lluus\n"
      "execute latency     p50=%.1fus p99=%.1fus max=%lluus\n",
      static_cast<unsigned long long>(statements),
      static_cast<unsigned long long>(queries_served),
      static_cast<unsigned long long>(plan_cache_hits),
      static_cast<unsigned long long>(plan_cache_misses),
      plan_cache_hit_rate * 100.0, plan_cache_size, plan_cache_capacity,
      static_cast<unsigned long long>(plan_cache_recosts),
      static_cast<unsigned long long>(plan_cache_invalidated),
      static_cast<unsigned long long>(statement_cache_hits),
      static_cast<unsigned long long>(rewrites_applied),
      static_cast<unsigned long long>(rewrites_skipped),
      static_cast<unsigned long long>(snapshots_pinned),
      static_cast<unsigned long long>(snapshot_reads), latch_stripes,
      static_cast<unsigned long long>(slow_queries), optimize_p50_micros,
      optimize_p99_micros,
      static_cast<unsigned long long>(optimize_max_micros), exec_p50_micros,
      exec_p99_micros, static_cast<unsigned long long>(exec_max_micros));
  std::string out = buf;
  out += "rows written        " + std::to_string(rows_inserted) +
         " inserted / " + std::to_string(rows_deleted) + " deleted\n";
  out += "view maintenance    " + std::to_string(views_maintained) +
         " maintained / " + std::to_string(views_recomputed) + " recomputed\n";
  char mbuf[128];
  std::snprintf(mbuf, sizeof(mbuf),
                "maintain latency    p50=%.1fus p99=%.1fus max=%lluus\n",
                maintain_p50_micros, maintain_p99_micros,
                static_cast<unsigned long long>(maintain_max_micros));
  out += mbuf;
  out += "admission rejects   " + std::to_string(admission_rejects) + "\n";
  out += "degraded fallbacks  " + std::to_string(degraded_fallbacks) + "\n";
  if (!mvcc.empty()) {
    size_t versions = 0, bytes = 0;
    for (const auto& m : mvcc) {
      versions += m.versions_alive;
      bytes += m.bytes_pinned;
    }
    out += "mvcc                " + std::to_string(versions) +
           " version(s) alive, " + std::to_string(bytes) +
           " unshared bytes pinned by retired versions";
    if (mvcc_oldest_pinned_epoch > 0) {
      out += " (oldest pinned epoch " +
             std::to_string(mvcc_oldest_pinned_epoch) + ")";
    }
    out += "\n";
    for (const auto& m : mvcc) {
      if (m.versions_alive <= 1 && m.bytes_pinned == 0) continue;
      out += "  mvcc " + m.table + "  " + std::to_string(m.versions_alive) +
             " version(s), " + std::to_string(m.bytes_pinned) +
             " unshared bytes pinned\n";
    }
  }
  if (!errors_by_code.empty()) {
    out += "errors              ";
    for (size_t i = 0; i < errors_by_code.size(); ++i) {
      if (i > 0) out += " ";
      out += errors_by_code[i].first + "=" +
             std::to_string(errors_by_code[i].second);
    }
    out += "\n";
  }
  if (!quarantined_views.empty()) {
    out += "quarantined views   " + Join(quarantined_views, ", ") + "\n";
  }
  if (storage_attached) {
    char sbuf[512];
    std::snprintf(
        sbuf, sizeof(sbuf),
        "storage pages       %llu read / %llu written\n"
        "storage wal         %llu bytes / %llu records / %llu fsyncs\n"
        "storage checkpoints %llu (checkpoint seq %llu, last commit seq "
        "%llu)\n"
        "storage recovery    %llu records replayed, %lldms\n",
        static_cast<unsigned long long>(storage_pages_read),
        static_cast<unsigned long long>(storage_pages_written),
        static_cast<unsigned long long>(storage_wal_bytes),
        static_cast<unsigned long long>(storage_wal_records),
        static_cast<unsigned long long>(storage_wal_fsyncs),
        static_cast<unsigned long long>(storage_checkpoints),
        static_cast<unsigned long long>(storage_checkpoint_seq),
        static_cast<unsigned long long>(storage_last_commit_seq),
        static_cast<unsigned long long>(storage_wal_replayed),
        static_cast<long long>(storage_recovery_ms));
    out += sbuf;
    std::snprintf(
        sbuf, sizeof(sbuf),
        "storage fsync       p50=%.1fus p99=%.1fus max=%lluus\n"
        "storage checkpoint  p99=%.1fus\n"
        "recovery phases     replay=%lldms view-recompute=%lldms\n",
        storage_fsync_p50_micros, storage_fsync_p99_micros,
        static_cast<unsigned long long>(storage_fsync_max_micros),
        storage_checkpoint_p99_micros,
        static_cast<long long>(storage_recovery_replay_ms),
        static_cast<long long>(storage_recovery_recompute_ms));
    out += sbuf;
    std::snprintf(
        sbuf, sizeof(sbuf),
        "storage wal size    %llu bytes (%llu auto-checkpoint(s), %llu "
        "backpressure wait(s))\n"
        "storage group batch p50=%.1f p99=%.1f commits/fsync\n",
        static_cast<unsigned long long>(storage_wal_size_bytes),
        static_cast<unsigned long long>(storage_auto_checkpoints),
        static_cast<unsigned long long>(storage_backpressure_waits),
        storage_group_batch_p50, storage_group_batch_p99);
    out += sbuf;
    if (!quarantined_tables.empty()) {
      out += "quarantined tables  ";
      for (size_t i = 0; i < quarantined_tables.size(); ++i) {
        if (i > 0) out += ", ";
        out += quarantined_tables[i].first;
      }
      out += " (" + std::to_string(storage_pages_quarantined) +
             " page(s); repair with LOAD)\n";
    }
  }
  char obuf[160];
  std::snprintf(obuf, sizeof(obuf),
                "trace dropped spans %llu\n"
                "telemetry           %llu window(s) sampled, %llu dropped\n",
                static_cast<unsigned long long>(trace_dropped_spans),
                static_cast<unsigned long long>(telemetry_windows),
                static_cast<unsigned long long>(telemetry_dropped));
  out += obuf;
  return out;
}

QueryService::QueryService(ServiceOptions options)
    : options_(options),
      latches_(options.latch_stripes),
      plan_cache_(options.plan_cache_capacity),
      statements_(metrics_.GetCounter("service.statements")),
      queries_served_(metrics_.GetCounter("service.queries_served")),
      cache_hits_(metrics_.GetCounter("service.plan_cache.hits")),
      cache_misses_(metrics_.GetCounter("service.plan_cache.misses")),
      cache_invalidated_(metrics_.GetCounter("service.plan_cache.invalidated")),
      cache_recosts_(metrics_.GetCounter("service.plan_cache.recosts")),
      statement_cache_hits_(
          metrics_.GetCounter("service.statement_cache.hits")),
      rewrites_applied_(metrics_.GetCounter("service.rewrites.applied")),
      rewrites_skipped_(metrics_.GetCounter("service.rewrites.skipped")),
      slow_queries_(metrics_.GetCounter("service.slow_queries")),
      snapshots_pinned_(metrics_.GetCounter("service.snapshots.pinned")),
      snapshot_reads_(metrics_.GetCounter("service.snapshots.reads")),
      admission_rejects_(metrics_.GetCounter("service.admission_rejects_total")),
      degraded_fallbacks_(
          metrics_.GetCounter("service.degraded_fallbacks_total")),
      rows_inserted_(metrics_.GetCounter("service.rows_inserted_total")),
      rows_deleted_(metrics_.GetCounter("service.rows_deleted_total")),
      views_maintained_(
          metrics_.GetCounter("service.views_maintained_total")),
      views_recomputed_(
          metrics_.GetCounter("service.views_recomputed_total")),
      cache_size_gauge_(metrics_.GetGauge("service.plan_cache.size")),
      cache_capacity_gauge_(metrics_.GetGauge("service.plan_cache.capacity")),
      optimize_latency_(metrics_.GetHistogram("service.optimize_latency")),
      exec_latency_(metrics_.GetHistogram("service.exec_latency")),
      maintain_latency_(metrics_.GetHistogram("service.maintain_latency")) {
  eval_options_.vectorized = options_.vectorized;
  cache_capacity_gauge_.Set(static_cast<int64_t>(plan_cache_.capacity()));
  metrics_.SetHelp("service.statements", "Statements accepted (all kinds)");
  metrics_.SetHelp("service.queries_served", "SELECTs executed to completion");
  metrics_.SetHelp("service.errors_total",
                   "Failed statements by status-code token");
  metrics_.SetHelp("service.exec_latency",
                   "SELECT execution wall time, microseconds");
  metrics_.SetHelp("service.optimize_latency",
                   "Rewrite-search wall time per planned statement, "
                   "microseconds");
  metrics_.SetHelp("service.plan_cache.recosts",
                   "Plan-cache hits whose candidates were re-priced for "
                   "newer data");
  metrics_.SetHelp("service.statement_cache.hits",
                   "SELECT texts served without parsing");
  metrics_.SetHelp("service.maintain_latency",
                   "Write-path view maintenance wall time, microseconds");
  metrics_.SetHelp("service.rows_inserted_total",
                   "Rows added by INSERT/UPDATE/LOAD/COMMIT batches");
  metrics_.SetHelp("service.rows_deleted_total",
                   "Rows removed by DELETE/UPDATE/LOAD/COMMIT batches");
  metrics_.SetHelp("mvcc.versions_alive",
                   "Table versions still reachable (current + retired "
                   "versions pinned by snapshots or in-flight readers)");
  metrics_.SetHelp("mvcc.bytes_pinned",
                   "Approximate bytes of retired-but-referenced table "
                   "versions that the current version does not share: "
                   "their unshared chunks");
  metrics_.SetHelp("mvcc.oldest_pinned_epoch",
                   "Epoch of the oldest retired table version still alive "
                   "(0 = nothing but current versions)");
  metrics_.SetHelp("trace.dropped_spans",
                   "Spans lost to trace-ring overflow since the last clear");
  metrics_.SetHelp("telemetry.windows_sampled",
                   "Telemetry windows cut since service start");
  metrics_.SetHelp("telemetry.windows_dropped",
                   "Telemetry windows evicted from the history ring");
  metrics_.SetHelp("storage.wal_fsync_latency",
                   "WAL fsync wall time per commit, microseconds");
  metrics_.SetHelp("storage.checkpoint_latency",
                   "Full shadow-paged checkpoint duration, microseconds");
  metrics_.SetHelp("storage.wal_size_bytes",
                   "Current WAL file size in bytes (falls to 0 at "
                   "checkpoint)");
  metrics_.SetHelp("storage.auto_checkpoints_total",
                   "Checkpoints taken by the background auto-checkpointer");
  metrics_.SetHelp("storage.backpressure_waits_total",
                   "Writers stalled because the WAL outgrew the "
                   "backpressure cap");
  metrics_.SetHelp("storage.group_commit_batch",
                   "Commit records made durable per WAL fsync (group "
                   "commit batch size)");
  metrics_.SetHelp("storage.pages_quarantined_total",
                   "Data pages belonging to tables quarantined by "
                   "recovery's corruption checks");
  if (!options_.storage_path.empty()) {
    storage_status_ = AttachStorage();
    if (!storage_status_.ok()) {
      // The service still constructs (empty, in-memory) so the caller can
      // read storage_status(), fix the cause and retry with a fresh
      // instance; recovery never writes, so retrying is always safe.
      storage_.reset();
    }
  }
  TelemetryOptions topts;
  topts.interval_micros = options_.telemetry_interval_micros;
  topts.capacity = options_.telemetry_history_capacity;
  telemetry_ = std::make_unique<TelemetryRecorder>(&metrics_, topts);
  telemetry_->Start();  // no-op when the interval is 0
  if (storage_ != nullptr &&
      (options_.storage_auto_checkpoint_wal_bytes > 0 ||
       options_.storage_auto_checkpoint_commits > 0 ||
       options_.storage_backpressure_wal_bytes > 0)) {
    checkpointer_ = std::thread(&QueryService::AutoCheckpointLoop, this);
  }
}

QueryService::~QueryService() {
  {
    std::lock_guard<std::mutex> lock(checkpoint_mutex_);
    stop_checkpointer_ = true;
  }
  checkpoint_cv_.notify_all();
  if (checkpointer_.joinable()) checkpointer_.join();
}

Status QueryService::AttachStorage() {
  StorageOptions sopts;
  sopts.path = options_.storage_path;
  sopts.fsync_wal = options_.storage_fsync_wal;
  sopts.auto_checkpoint_wal_bytes = options_.storage_auto_checkpoint_wal_bytes;
  sopts.auto_checkpoint_commits = options_.storage_auto_checkpoint_commits;
  sopts.backpressure_wal_bytes = options_.storage_backpressure_wal_bytes;
  AQV_ASSIGN_OR_RETURN(std::unique_ptr<StorageEngine> engine,
                       StorageEngine::Open(std::move(sopts), &metrics_));
  RecoveredState& rec = engine->recovered();
  ServiceSnapshot next{
      std::make_shared<const Catalog>(std::move(rec.catalog)),
      std::make_shared<const ViewRegistry>(std::move(rec.views)),
      std::move(rec.db)};
  const ViewRegistry& views = *next.views;
  storage_ = std::move(engine);

  // Self-heal first: a stored view whose own pages rotted but whose
  // definition closure has no quarantined base table holds nothing that
  // cannot be re-derived — a view cannot be LOAD-repaired, so dead-ending
  // the quarantine on it would be permanent. Drop it from the quarantine
  // (engine map included, so the next checkpoint persists the lift) and
  // queue it for the stale-view recompute below.
  std::map<std::string, std::string> quarantined = rec.quarantined_tables;
  std::vector<std::string> healed_views;
  for (const auto& [name, reason] : rec.quarantined_tables) {
    if (!views.Has(name)) continue;
    // Quarantined views in the closure do not block healing: they are
    // derivations too, and the upstream-first recompute refreshes them
    // before this one reads them.
    if (QuarantinedBaseOf(name, views, quarantined).empty()) {
      quarantined.erase(name);
      storage_->ClearQuarantinedTable(name);
      healed_views.push_back(name);
    }
  }

  // Install recovery's quarantine before anything reads the salvaged state:
  // every corrupt table, plus every materialized view whose definition
  // closure touches one — recomputing such a view against a salvaged-empty
  // base would publish silently wrong rows, which is exactly what the
  // quarantine exists to prevent.
  {
    std::lock_guard<std::mutex> lock(quarantine_mutex_);
    table_quarantine_ = quarantined;
    for (const std::string& view : views.ViewNames()) {
      if (!next.db.Has(view)) continue;  // virtual: reads hit the base check
      std::string base = QuarantinedBaseOf(view, views, quarantined);
      if (!base.empty()) {
        table_quarantine_.emplace(
            view, "depends on quarantined table '" + base + "'");
      }
    }
  }

  // Recompute every stale view (checkpoint contents predate the replayed
  // WAL tail, or were never written), upstream-first so a view over another
  // stale view reads refreshed inputs. This is the second recovery phase —
  // WAL replay happened inside StorageEngine::Open — and is timed
  // separately so E18-style analysis can tell log-bound from compute-bound
  // recoveries apart. Quarantined views are skipped, not recomputed: their
  // inputs cannot be trusted, and their reads error until repair.
  Clock::time_point recompute_start = Clock::now();
  // Healed views re-derive their contents here too; their salvaged-empty
  // checkpoint image is never served.
  std::vector<std::string> pending = rec.stale_views;
  pending.insert(pending.end(), healed_views.begin(), healed_views.end());
  std::vector<DependentView> stale;
  {
    std::lock_guard<std::mutex> lock(quarantine_mutex_);
    for (std::string& view : pending) {
      bool queued = std::any_of(
          stale.begin(), stale.end(),
          [&](const DependentView& v) { return v.name == view; });
      if (queued || table_quarantine_.count(view) > 0) continue;
      std::vector<std::string> closure;
      CollectDependencies({view}, views, &closure);
      stale.push_back({std::move(view), std::move(closure)});
    }
  }
  AQV_ASSIGN_OR_RETURN(stale, UpstreamFirst(std::move(stale)));
  for (const DependentView& view : stale) {
    AQV_RETURN_NOT_OK(RecomputeViewInto(view.name, &next).status());
  }
  metrics_.GetGauge("storage.recovery_recompute_ms")
      .Set(static_cast<int64_t>(ElapsedMicros(recompute_start) / 1000));

  // Warm the plan cache from the persisted images — but only if the
  // re-registered schema matches the versions the images were saved under;
  // any drift (a view that failed to re-parse, a format change) means the
  // cached plans can no longer be trusted and the cache starts cold.
  // Restored entries record the recovered state as the one they were
  // optimized on. An image keeps no candidate set, so a restored entry is
  // re-optimized after the first write to one of its dependencies.
  if (rec.plan_catalog_version == next.catalog->version() &&
      rec.plan_views_version == views.version()) {
    for (const PlanImage& image : rec.plans) {
      Result<Query> plan = ParseQuery(image.plan_sql);
      if (!plan.ok()) continue;  // drop just this image
      auto entry = std::make_shared<PlanCache::Entry>();
      entry->plan = std::make_shared<const Query>(*std::move(plan));
      static_cast<PlanRecord&>(*entry) = image;
      entry->quarantine_generation = quarantine_generation_.load();
      StampState(entry.get(), next);
      plan_cache_.Insert(image.key, std::move(entry));
    }
  }

  // A mid-log tear's quarantine was derived from the suspect WAL tail that
  // recovery itself truncated: checkpoint now, while still quiesced, so the
  // quarantine reaches the directory blob before the process can exit.
  // Without this a second restart finds a clean WAL, derives nothing, and
  // silently serves rows missing an acknowledged commit. (The window
  // between the in-recovery truncation and this checkpoint is the residual
  // exposure; it closes before the service accepts its first statement.)
  if (rec.wal_mid_log_corruption) AQV_RETURN_NOT_OK(CheckpointIfDurable(next));
  Publish([&](ServiceSnapshot* head) { *head = std::move(next); });
  // Registered now, so the exposition shows them before the first event.
  metrics_.GetCounter("storage.auto_checkpoints_total");
  metrics_.GetCounter("storage.backpressure_waits_total");
  return Status::OK();
}

Status QueryService::CheckpointIfDurable(const ServiceSnapshot& state) {
  if (storage_ == nullptr) return Status::OK();
  std::vector<PlanImage> images;
  for (auto& [key, entry] : plan_cache_.Snapshot()) {
    // Only plans of the state being checkpointed: recovery restores them
    // as optimized on exactly that state.
    if (!OptimizedOn(*entry, state)) continue;
    PlanImage image;
    static_cast<PlanRecord&>(image) = *entry;
    image.key = key;
    image.plan_sql = ToSql(*entry->plan);
    images.push_back(std::move(image));
  }
  return storage_->Checkpoint(*state.catalog, *state.views, state.db, images);
}

uint64_t QueryService::Publish(
    const std::function<void(ServiceSnapshot*)>& change) {
  ServiceSnapshotPtr current;  // freed, if last, after the locks are released
  std::lock_guard<std::mutex> lock(publish_mutex_);
  current = Head();
  auto next = std::make_shared<ServiceSnapshot>(*current);
  change(next.get());
  next->epoch = next->db.epoch();
  ledger_.Retire(current->db, next->db);
  std::lock_guard<std::mutex> store(head_mutex_);
  head_ = next;
  return next->epoch;
}

Status QueryService::PublishDdl(ServiceSnapshot next) {
  // Published once its checkpoint committed, even when the WAL truncate
  // after the commit point failed: the state is on disk by then, and the
  // head must agree with what a restart would recover.
  uint64_t generation = storage_ != nullptr ? storage_->generation() : 0;
  Status durable = CheckpointIfDurable(next);
  if (!durable.ok() && storage_->generation() == generation) return durable;
  Publish([&](ServiceSnapshot* head) { *head = std::move(next); });
  return durable;
}

namespace {

constexpr bool kWhole = true;  // StatementForm::whole
constexpr bool kArgs = false;

/// True when `text` begins with the keyword sequence `keywords`, ignoring
/// case, as whole tokens: SAVE leads "save R TO ..." but not
/// "SAVEPOINT ...".
bool Leads(std::string_view text, std::string_view keywords) {
  if (!EqualsIgnoreCase(text.substr(0, keywords.size()), keywords)) {
    return false;
  }
  if (text.size() == keywords.size()) return true;
  unsigned char next = static_cast<unsigned char>(text[keywords.size()]);
  return !std::isalnum(next) && next != '_';
}

}  // namespace

const QueryService::StatementForm QueryService::kStatementForms[] = {
    {"STATS PROM", kWhole, kControl, &QueryService::HandleStatsProm},
    {"STATS HISTORY", kArgs, kControl, &QueryService::HandleStatsHistory},
    {"STATS ATTRIBUTION", kArgs, kControl, &QueryService::HandleAttribution},
    {"STATS", kWhole, kControl, &QueryService::HandleStats},
    {"MONITOR", kArgs, kControl, &QueryService::HandleMonitor},
    {"SLOWLOG", kWhole, kControl, &QueryService::HandleSlowLog},
    {"TRACE", kArgs, kControl, &QueryService::HandleTrace},
    {"FAILPOINT", kArgs, kControl, &QueryService::HandleFailpoint},
    {"TABLES", kWhole, kControl, &QueryService::HandleListTables},
    {"VIEWS", kWhole, kControl, &QueryService::HandleListViews},
    {"SCRUB", kWhole, kControl, &QueryService::HandleScrub},
    {"ROLLBACK", kWhole, kControl, &QueryService::HandleRollback},
    {"COMMIT", kWhole, kControl, &QueryService::HandleCommit, Kind::kCommit},
    {"BEGIN WRITE", kWhole, kSession, &QueryService::HandleBeginWrite},
    {"BEGIN SNAPSHOT", kWhole, kSession, &QueryService::HandleBeginSnapshot},
    {"BEGIN", kWhole, kSession, &QueryService::HandleBeginSnapshot},
    {"SELECT", kArgs, kRead, &QueryService::HandleRead<ReadKind::kSelect>},
    {"EXPLAIN ANALYZE", kArgs, kRead,
     &QueryService::HandleRead<ReadKind::kExplainAnalyze>},
    {"EXPLAIN", kArgs, kRead, &QueryService::HandleRead<ReadKind::kExplain>},
    {"WHY", kArgs, kRead, &QueryService::HandleWhy},
    {"SAVE", kArgs, kRead, &QueryService::HandleSave},
    // Writes only the checkpoint file, so it runs in any session.
    {"CHECKPOINT", kWhole, kRead, &QueryService::HandleCheckpoint},
    {"INSERT INTO", kArgs, kDml, &QueryService::HandleWrite, Kind::kInsert},
    {"DELETE", kArgs, kDml, &QueryService::HandleWrite, Kind::kDelete},
    {"UPDATE", kArgs, kDml, &QueryService::HandleWrite, Kind::kUpdate},
    {"LOAD", kArgs, kWrite, &QueryService::HandleWrite, Kind::kLoad},
    {"REFRESH", kArgs, kWrite, &QueryService::HandleWrite, Kind::kRefresh},
    {"CREATE TABLE", kArgs, kDdl, &QueryService::HandleCreateTable},
    {"CREATE MATERIALIZED VIEW", kArgs, kDdl,
     &QueryService::HandleCreateView<true>},
    {"CREATE VIEW", kArgs, kDdl, &QueryService::HandleCreateView<false>},
};

Result<StatementResult> QueryService::Route(const std::string& statement,
                                            const ServiceSnapshot* pinned) {
  Result<StatementResult> result = [&]() -> Result<StatementResult> {
    if (options_.max_statement_bytes > 0 &&
        statement.size() > options_.max_statement_bytes) {
      return Status::InvalidArgument(
          "statement is " + std::to_string(statement.size()) +
          " bytes, over the " + std::to_string(options_.max_statement_bytes) +
          "-byte limit");
    }
    std::string stmt = TrimStatement(statement);
    if (stmt.empty() || stmt[0] == '#') return StatementResult{};
    statements_.Increment();
    const StatementForm* form = nullptr;
    std::string_view args;
    for (const StatementForm& f : kStatementForms) {
      if (!Leads(stmt, f.keywords)) continue;
      args = std::string_view(stmt).substr(f.keywords.size());
      args.remove_prefix(
          std::min(args.find_first_not_of(" \t\r\n"), args.size()));
      if (!f.whole || args.empty()) form = &f;
      break;
    }
    // Refused before admission: a statement no form accepts takes no slot.
    if (form == nullptr ||
        (pinned != nullptr &&
         form->handler != &QueryService::HandleRead<ReadKind::kSelect>)) {
      return Status::InvalidArgument(
          pinned != nullptr ? "not a SELECT statement: " + statement
                            : "unrecognized statement: " + stmt);
    }
    Statement s{stmt, args, form->kind, form->cls, pinned};
    // BEGIN WRITE and BEGIN SNAPSHOT are mutually exclusive per thread, so
    // a COMMIT either applies the thread's batch, a write admitted like
    // any, or releases its pin.
    if (form->kind == Kind::kCommit && ThreadHasWriteBatch()) s.cls = kWrite;
    if (s.cls == kControl) return Dispatch(*form, s);
    AQV_RETURN_NOT_OK(AdmitStatement());
    Result<StatementResult> out = Dispatch(*form, s);
    ReleaseStatement();
    return out;
  }();
  if (!result.ok()) RecordError(result.status());
  return result;
}

Result<StatementResult> QueryService::Dispatch(const StatementForm& form,
                                               const Statement& s) {
  // Root span of the statement lifecycle: parse/bind, latch acquisition,
  // rewrite enumeration, costing, cache lookup and execution nest under it.
  TraceSpan span("statement");
  if (span.active()) span.AddAttr("sql", s.text.substr(0, 120));
  // The session gates go by the form's class, so a COMMIT is never gated.
  // A pin is read-only by construction. Inside a write batch only DML
  // (buffered) and reads run: DDL, REFRESH and LOAD would have to either
  // see or ignore the uncommitted rows, and neither is coherent.
  const bool writes =
      form.cls == kDml || form.cls == kWrite || form.cls == kDdl;
  if (writes && ThreadSnapshot() != nullptr) {
    return Status::InvalidArgument(
        "writes are not allowed inside BEGIN SNAPSHOT; COMMIT first");
  }
  if (writes && form.cls != kDml && ThreadHasWriteBatch()) {
    return Status::InvalidArgument(
        "only INSERT/DELETE/UPDATE may run inside BEGIN WRITE; COMMIT or "
        "ROLLBACK first");
  }
  return (this->*form.handler)(s);
}

Result<StatementResult> QueryService::Execute(const std::string& statement) {
  return Route(statement, nullptr);
}

Status QueryService::AdmitStatement() {
  if (options_.max_concurrent_statements == 0) return Status::OK();
  std::unique_lock<std::mutex> lock(admission_mutex_);
  auto has_slot = [this] {
    return inflight_statements_ < options_.max_concurrent_statements;
  };
  if (!has_slot() &&
      !admission_cv_.wait_for(
          lock, std::chrono::microseconds(options_.admission_wait_micros),
          has_slot)) {
    admission_rejects_.Increment();
    return Status::Unavailable(
        "SERVER_BUSY: " + std::to_string(inflight_statements_) +
        " statement(s) in flight (limit " +
        std::to_string(options_.max_concurrent_statements) + "); retry later");
  }
  ++inflight_statements_;
  return Status::OK();
}

void QueryService::ReleaseStatement() {
  if (options_.max_concurrent_statements == 0) return;
  {
    std::lock_guard<std::mutex> lock(admission_mutex_);
    --inflight_statements_;
  }
  admission_cv_.notify_one();
}

void QueryService::RecordError(const Status& status) {
  if (status.ok()) return;
  std::string code = StatusCodeToString(status.code());
  for (char& c : code) {
    if (c == ' ') c = '_';
  }
  metrics_.GetCounter("service.errors_total{code=\"" + code + "\"}")
      .Increment();
}

namespace {

/// The rows of a routed statement, or an error when it returned none.
Result<Table> RowsOf(Result<StatementResult> result, const std::string& sql) {
  AQV_RETURN_NOT_OK(result.status());
  if (!result->table.has_value()) {
    return Status::InvalidArgument("not a SELECT statement: " + sql);
  }
  return *std::move(result->table);
}

}  // namespace

Result<Table> QueryService::Select(const std::string& sql) {
  return RowsOf(Route(sql, nullptr), sql);
}

Result<Table> QueryService::Select(const std::string& sql,
                                   const ServiceSnapshot& snapshot) {
  return RowsOf(Route(sql, &snapshot), sql);
}

Status QueryService::Bootstrap(Catalog catalog, Database db,
                               ViewRegistry views) {
  LatchManager::Guard guard = latches_.Ddl();
  // A bootstrap is wholesale DDL: checkpointed before it is published, so
  // a crash right after recovers the installed workload, not the
  // pre-bootstrap file.
  return PublishDdl(
      ServiceSnapshot{std::make_shared<const Catalog>(std::move(catalog)),
                      std::make_shared<const ViewRegistry>(std::move(views)),
                      std::move(db)});
}

ServiceStats QueryService::Stats() const {
  ServiceStats s;
  s.statements = statements_.value();
  s.queries_served = queries_served_.value();
  s.plan_cache_hits = cache_hits_.value();
  s.plan_cache_misses = cache_misses_.value();
  s.plan_cache_recosts = cache_recosts_.value();
  s.plan_cache_invalidated = cache_invalidated_.value();
  s.statement_cache_hits = statement_cache_hits_.value();
  s.rewrites_applied = rewrites_applied_.value();
  s.rewrites_skipped = rewrites_skipped_.value();
  s.slow_queries = slow_queries_.value();
  s.snapshots_pinned = snapshots_pinned_.value();
  s.snapshot_reads = snapshot_reads_.value();
  s.admission_rejects = admission_rejects_.value();
  s.degraded_fallbacks = degraded_fallbacks_.value();
  s.rows_inserted = rows_inserted_.value();
  s.rows_deleted = rows_deleted_.value();
  s.views_maintained = views_maintained_.value();
  s.views_recomputed = views_recomputed_.value();
  {
    std::lock_guard<std::mutex> lock(publish_mutex_);
    s.mvcc = ledger_.Stats(Head()->db);
    s.mvcc_oldest_pinned_epoch = ledger_.OldestPinnedEpoch();
  }
  const std::string kErrorPrefix = "service.errors_total{code=\"";
  for (auto& [name, value] : metrics_.CounterValues(kErrorPrefix)) {
    // Strip the family prefix and the trailing '"}' to recover the token.
    std::string code = name.substr(kErrorPrefix.size());
    if (code.size() >= 2) code.resize(code.size() - 2);
    s.errors_by_code.emplace_back(std::move(code), value);
  }
  s.quarantined_views = QuarantinedViews();
  s.plan_cache_size = plan_cache_.size();
  s.plan_cache_capacity = plan_cache_.capacity();
  s.latch_stripes = latches_.stripe_count();
  uint64_t lookups = s.plan_cache_hits + s.plan_cache_misses;
  s.plan_cache_hit_rate =
      lookups == 0 ? 0.0
                   : static_cast<double>(s.plan_cache_hits) /
                         static_cast<double>(lookups);
  s.optimize_p50_micros = optimize_latency_.PercentileMicros(0.5);
  s.optimize_p99_micros = optimize_latency_.PercentileMicros(0.99);
  s.optimize_max_micros = optimize_latency_.max_micros();
  s.exec_p50_micros = exec_latency_.PercentileMicros(0.5);
  s.exec_p99_micros = exec_latency_.PercentileMicros(0.99);
  s.exec_max_micros = exec_latency_.max_micros();
  s.maintain_p50_micros = maintain_latency_.PercentileMicros(0.5);
  s.maintain_p99_micros = maintain_latency_.PercentileMicros(0.99);
  s.maintain_max_micros = maintain_latency_.max_micros();
  if (storage_ != nullptr) {
    // By name: the engine registers and bumps these, and Stats() is on no
    // statement path.
    auto counter = [this](const char* n) { return metrics_.CounterValue(n); };
    auto gauge = [this](const char* n) { return metrics_.GaugeValue(n); };
    auto histogram = [this](const char* name) {
      static const LatencyHistogram kEmpty;
      const LatencyHistogram* h = metrics_.FindHistogram(name);
      return h == nullptr ? &kEmpty : h;
    };
    s.storage_attached = true;
    s.storage_pages_read = counter("storage.pages_read");
    s.storage_pages_written = counter("storage.pages_written");
    s.storage_wal_bytes = counter("storage.wal_bytes");
    s.storage_wal_records = counter("storage.wal_records");
    s.storage_wal_fsyncs = counter("storage.wal_fsyncs");
    s.storage_checkpoints = counter("storage.checkpoints");
    s.storage_wal_replayed = counter("storage.wal_replayed");
    s.storage_recovery_ms = gauge("storage.recovery_ms");
    s.storage_last_commit_seq = storage_->last_commit_seq();
    s.storage_checkpoint_seq = storage_->checkpoint_seq();
    const LatencyHistogram* fsync = histogram("storage.wal_fsync_latency");
    s.storage_fsync_p50_micros = fsync->PercentileMicros(0.5);
    s.storage_fsync_p99_micros = fsync->PercentileMicros(0.99);
    s.storage_fsync_max_micros = fsync->max_micros();
    s.storage_checkpoint_p99_micros =
        histogram("storage.checkpoint_latency")->PercentileMicros(0.99);
    s.storage_recovery_replay_ms = gauge("storage.recovery_replay_ms");
    s.storage_recovery_recompute_ms = gauge("storage.recovery_recompute_ms");
    s.storage_wal_size_bytes =
        static_cast<uint64_t>(gauge("storage.wal_size_bytes"));
    s.storage_auto_checkpoints = counter("storage.auto_checkpoints_total");
    s.storage_backpressure_waits = counter("storage.backpressure_waits_total");
    const LatencyHistogram* batch = histogram("storage.group_commit_batch");
    s.storage_group_batch_p50 = batch->PercentileMicros(0.5);
    s.storage_group_batch_p99 = batch->PercentileMicros(0.99);
    s.storage_pages_quarantined = counter("storage.pages_quarantined_total");
    s.quarantined_tables = QuarantinedTables();
  }
  s.trace_dropped_spans = Tracer::Global().dropped();
  s.telemetry_windows = telemetry_->windows_sampled();
  s.telemetry_dropped = telemetry_->windows_dropped();
  return s;
}

void QueryService::ResetStats() {
  metrics_.ResetAll();
  cache_capacity_gauge_.Set(static_cast<int64_t>(plan_cache_.capacity()));
  std::lock_guard<std::mutex> lock(slow_log_mutex_);
  slow_log_.clear();
}

std::string QueryService::StatsPromText() {
  cache_size_gauge_.Set(static_cast<int64_t>(plan_cache_.size()));
  // Pull-model metrics refreshed at scrape time: trace-ring overflow (so a
  // truncated Chrome trace is detectable from the exposition alone) and the
  // telemetry recorder's own accounting.
  metrics_.GetGauge("trace.dropped_spans")
      .Set(static_cast<int64_t>(Tracer::Global().dropped()));
  metrics_.GetGauge("telemetry.windows_sampled")
      .Set(static_cast<int64_t>(telemetry_->windows_sampled()));
  metrics_.GetGauge("telemetry.windows_dropped")
      .Set(static_cast<int64_t>(telemetry_->windows_dropped()));
  // MVCC garbage accounting, recomputed at scrape time: what the retired
  // versions still keep alive beyond the current ones.
  ServiceStats stats = Stats();
  for (const TableMvcc& m : stats.mvcc) {
    metrics_.GetGauge("mvcc.versions_alive{table=\"" + m.table + "\"}")
        .Set(static_cast<int64_t>(m.versions_alive));
    metrics_.GetGauge("mvcc.bytes_pinned{table=\"" + m.table + "\"}")
        .Set(static_cast<int64_t>(m.bytes_pinned));
  }
  metrics_.GetGauge("mvcc.oldest_pinned_epoch")
      .Set(static_cast<int64_t>(stats.mvcc_oldest_pinned_epoch));
  return metrics_.PromText();
}

void QueryService::AutoCheckpointLoop() {
  std::unique_lock<std::mutex> lock(checkpoint_mutex_);
  while (!stop_checkpointer_) {
    // Woken early by a stalled writer (WaitOutBackpressure) or shutdown;
    // otherwise polls, since LogCommit deliberately does not signal here.
    checkpoint_cv_.wait_for(lock, std::chrono::milliseconds(20),
                            [this] { return stop_checkpointer_; });
    if (stop_checkpointer_) break;
    if (storage_ == nullptr || !storage_->NeedsAutoCheckpoint()) continue;
    lock.unlock();
    Status taken = [this]() -> Status {
      // Fires once per trigger, BEFORE the quiesce: a chaos run can inject
      // an error (checkpoint skipped, retried next poll) or kill the
      // process at the exact moment auto-checkpoint decides to run.
      AQV_FAILPOINT("checkpoint.auto");
      LatchManager::Guard guard = latches_.Ddl();
      return CheckpointIfDurable(*Head());
    }();
    if (taken.ok()) {
      metrics_.GetCounter("storage.auto_checkpoints_total").Increment();
    } else {
      RecordError(taken);
    }
    lock.lock();
  }
}

}  // namespace aqv
