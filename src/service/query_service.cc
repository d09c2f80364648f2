#include "service/query_service.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <set>
#include <unordered_map>
#include <utility>

#include "base/failpoint.h"
#include "base/strings.h"
#include "base/trace.h"
#include "exec/csv.h"
#include "exec/expression.h"
#include "exec/explain_plan.h"
#include "exec/vectorized.h"
#include "ir/fingerprint.h"
#include "ir/printer.h"
#include "parser/lexer.h"
#include "parser/parser.h"
#include "rewrite/explain.h"
#include "rewrite/optimizer.h"

namespace aqv {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t ElapsedMicros(Clock::time_point start) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   Clock::now() - start)
                                   .count());
}

std::string TrimStatement(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  size_t e = s.find_last_not_of(" \t\r\n;");
  if (b == std::string::npos || e == std::string::npos || e < b) return "";
  return s.substr(b, e - b + 1);
}

/// True when `recorded` still names `current`. The weak_ptr keeps its control
/// block alive, so a replaced object's address can never be mistaken for a
/// newer one.
bool SameObject(const std::weak_ptr<const void>& recorded,
                const std::shared_ptr<const void>& current) {
  return !recorded.owner_before(current) && !current.owner_before(recorded);
}

/// True when `entry` was optimized on `state`'s catalog and view registry
/// and on the same version of every dependency.
bool OptimizedOn(const PlanCache::Entry& entry, const ServiceSnapshot& state) {
  if (!SameObject(entry.catalog, state.catalog) ||
      !SameObject(entry.views, state.views)) {
    return false;
  }
  for (size_t i = 0; i < entry.dependencies.size(); ++i) {
    if (state.db.VersionOf(entry.dependencies[i]) != entry.versions[i]) {
      return false;
    }
  }
  return true;
}

/// Records `state` as the one `entry` was optimized on.
void StampState(PlanCache::Entry* entry, const ServiceSnapshot& state) {
  entry->catalog = state.catalog;
  entry->views = state.views;
  entry->versions.clear();
  for (const std::string& dep : entry->dependencies) {
    entry->versions.push_back(state.db.VersionOf(dep));
  }
}

/// Total rows across every table of one side of a delta.
size_t CountRows(const std::map<std::string, std::vector<Row>>& side) {
  size_t n = 0;
  for (const auto& [table, rows] : side) n += rows.size();
  return n;
}

/// The first base table in `view`'s definition closure that `quarantine`
/// names, or "" when there is none. Views in the closure never count: they
/// are derivations, recomputed from their own inputs.
std::string QuarantinedBaseOf(
    const std::string& view, const ViewRegistry& views,
    const std::map<std::string, std::string>& quarantine) {
  std::vector<std::string> closure;
  CollectDependencies({view}, views, &closure);
  for (const std::string& n : closure) {
    if (!views.Has(n) && quarantine.count(n) > 0) return n;
  }
  return "";
}

}  // namespace

std::string ServiceStats::ToString() const {
  char buf[1280];
  std::snprintf(
      buf, sizeof(buf),
      "statements          %llu\n"
      "queries served      %llu\n"
      "plan cache          %llu hit / %llu miss (%.1f%% hit rate, "
      "%zu/%zu entries, %llu invalidated)\n"
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
      static_cast<unsigned long long>(plan_cache_invalidated),
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
        "storage pool        %llu hits / %llu misses\n"
        "storage fsync       p50=%.1fus p99=%.1fus max=%lluus\n"
        "storage checkpoint  p99=%.1fus\n"
        "recovery phases     replay=%lldms view-recompute=%lldms\n",
        static_cast<unsigned long long>(storage_pool_hits),
        static_cast<unsigned long long>(storage_pool_misses),
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
                   "their unshared chunks, with columnar images");
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
  sopts.buffer_pool_pages = options_.storage_buffer_pages;
  sopts.fsync_wal = options_.storage_fsync_wal;
  sopts.group_commit = options_.storage_group_commit;
  sopts.group_commit_window_micros =
      options_.storage_group_commit_window_micros;
  sopts.staged_replay = options_.storage_staged_replay;
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
  // optimized on.
  if (rec.plan_catalog_version == next.catalog->version() &&
      rec.plan_views_version == views.version()) {
    for (const PlanImage& image : rec.plans) {
      Result<Query> plan = ParseQuery(image.plan_sql);
      if (!plan.ok()) continue;  // drop just this image
      auto entry = std::make_shared<PlanCache::Entry>();
      entry->plan = *std::move(plan);
      entry->used_materialized_view = image.used_materialized_view;
      entry->rewritings_considered = image.rewritings_considered;
      entry->cost_original = image.cost_original;
      entry->cost_chosen = image.cost_chosen;
      entry->dependencies = image.dependencies;
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
  storage_pages_read_ = &metrics_.GetCounter("storage.pages_read");
  storage_pages_written_ = &metrics_.GetCounter("storage.pages_written");
  storage_wal_bytes_ = &metrics_.GetCounter("storage.wal_bytes");
  storage_wal_records_ = &metrics_.GetCounter("storage.wal_records");
  storage_wal_fsyncs_ = &metrics_.GetCounter("storage.wal_fsyncs");
  storage_checkpoints_ = &metrics_.GetCounter("storage.checkpoints");
  storage_wal_replayed_ = &metrics_.GetCounter("storage.wal_replayed");
  storage_recovery_ms_ = &metrics_.GetGauge("storage.recovery_ms");
  storage_pool_hits_ = &metrics_.GetCounter("storage.pool_hits");
  storage_pool_misses_ = &metrics_.GetCounter("storage.pool_misses");
  storage_fsync_latency_ = &metrics_.GetHistogram("storage.wal_fsync_latency");
  storage_checkpoint_latency_ =
      &metrics_.GetHistogram("storage.checkpoint_latency");
  storage_recovery_replay_ms_ = &metrics_.GetGauge("storage.recovery_replay_ms");
  storage_recovery_recompute_ms_ =
      &metrics_.GetGauge("storage.recovery_recompute_ms");
  storage_wal_size_ = &metrics_.GetGauge("storage.wal_size_bytes");
  storage_auto_checkpoints_ =
      &metrics_.GetCounter("storage.auto_checkpoints_total");
  storage_backpressure_waits_ =
      &metrics_.GetCounter("storage.backpressure_waits_total");
  storage_group_batch_ = &metrics_.GetHistogram("storage.group_commit_batch");
  storage_pages_quarantined_ =
      &metrics_.GetCounter("storage.pages_quarantined_total");
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
    image.key = key;
    image.plan_sql = ToSql(entry->plan);
    image.used_materialized_view = entry->used_materialized_view;
    image.rewritings_considered = entry->rewritings_considered;
    image.cost_original = entry->cost_original;
    image.cost_chosen = entry->cost_chosen;
    image.dependencies = entry->dependencies;
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

/// True when `upper` begins with the keyword sequence `words` as whole
/// tokens: "SAVE" matches "SAVE R TO ..." but not "SAVEPOINT ...".
bool Leads(const std::string& upper, const char* words) {
  if (!StartsWith(upper, words)) return false;
  size_t n = std::char_traits<char>::length(words);
  if (upper.size() == n) return true;
  unsigned char next = static_cast<unsigned char>(upper[n]);
  return !std::isalnum(next) && next != '_';
}

/// True for introspection statements that bypass admission control: an
/// operator must be able to inspect (and disarm failpoints on) a server
/// that is rejecting data statements as busy.
bool IsControlStatement(const std::string& upper) {
  return Leads(upper, "STATS") || Leads(upper, "MONITOR") ||
         upper == "SLOWLOG" || upper == "TABLES" || upper == "VIEWS" ||
         upper == "COMMIT" || upper == "ROLLBACK" || upper == "SCRUB" ||
         Leads(upper, "TRACE") || Leads(upper, "FAILPOINT");
}

}  // namespace

Result<StatementResult> QueryService::Execute(const std::string& statement) {
  if (options_.max_statement_bytes > 0 &&
      statement.size() > options_.max_statement_bytes) {
    Status overlong = Status::InvalidArgument(
        "statement is " + std::to_string(statement.size()) +
        " bytes, over the " + std::to_string(options_.max_statement_bytes) +
        "-byte limit");
    RecordError(overlong);
    return overlong;
  }
  std::string stmt = TrimStatement(statement);
  if (stmt.empty() || stmt[0] == '#') return StatementResult{};
  statements_.Increment();
  std::string upper = ToUpper(stmt);
  const bool admitted = !IsControlStatement(upper);
  if (admitted) {
    Status slot = AdmitStatement();
    if (!slot.ok()) {
      RecordError(slot);
      return slot;
    }
  }
  Result<StatementResult> result = [&]() -> Result<StatementResult> {
    // Root span of the statement lifecycle: parse/bind, latch acquisition,
    // rewrite enumeration, costing, cache lookup and execution nest under it.
    TraceSpan span("statement");
    if (span.active()) {
      span.AddAttr("sql", stmt.size() <= 120 ? stmt : stmt.substr(0, 120));
    }
    return Dispatch(stmt, upper);
  }();
  if (admitted) ReleaseStatement();
  if (!result.ok()) RecordError(result.status());
  return result;
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

void QueryService::ChargeViewFailure(const std::string& view) {
  if (options_.view_quarantine_threshold == 0) return;
  std::lock_guard<std::mutex> lock(quarantine_mutex_);
  ViewFailureRecord& rec = view_failures_[view];
  ++rec.failures;
  if (rec.failures >= options_.view_quarantine_threshold &&
      rec.quarantined_at == 0) {
    // Stamp the cooldown clock when the threshold is first crossed.
    rec.quarantined_at = statements_.value();
  }
}

std::vector<std::string> QueryService::QuarantinedViews() const {
  std::vector<std::string> out;
  if (options_.view_quarantine_threshold == 0) return out;
  const uint64_t now = statements_.value();
  std::lock_guard<std::mutex> lock(quarantine_mutex_);
  for (auto it = view_failures_.begin(); it != view_failures_.end();) {
    const ViewFailureRecord& rec = it->second;
    if (rec.failures >= options_.view_quarantine_threshold) {
      // Cooldown sweep: enough statements have passed since quarantine, so
      // the view re-enters candidacy with a clean slate (fresh failures can
      // re-quarantine it).
      if (options_.quarantine_cooldown_statements > 0 &&
          now >= rec.quarantined_at + options_.quarantine_cooldown_statements) {
        it = view_failures_.erase(it);
        continue;
      }
      out.push_back(it->first);
    }
    ++it;
  }
  std::sort(out.begin(), out.end());
  return out;
}

void QueryService::ClearViewFailures(const std::string& view) {
  std::lock_guard<std::mutex> lock(quarantine_mutex_);
  view_failures_.erase(view);
}

Result<Table> QueryService::Select(const std::string& sql) {
  AQV_ASSIGN_OR_RETURN(StatementResult result, Execute(sql));
  if (!result.table.has_value()) {
    return Status::InvalidArgument("not a SELECT statement: " + sql);
  }
  return *std::move(result.table);
}

ServiceSnapshotPtr QueryService::ReadState() const {
  ServiceSnapshotPtr pinned = ThreadSnapshot();
  return pinned != nullptr ? pinned : Head();
}

ServiceSnapshotPtr QueryService::PinSnapshot() {
  TraceSpan span("snapshot_pin");
  ServiceSnapshotPtr snap = Head();
  snapshots_pinned_.Increment();
  if (span.active()) span.AddAttr("epoch", snap->epoch);
  return snap;
}

Result<Table> QueryService::Select(const std::string& sql,
                                   const ServiceSnapshot& snapshot) {
  std::string stmt = TrimStatement(sql);
  if (stmt.empty()) {
    return Status::InvalidArgument("not a SELECT statement: " + sql);
  }
  statements_.Increment();
  TraceSpan span("statement");
  if (span.active()) {
    span.AddAttr("sql", stmt.size() <= 120 ? stmt : stmt.substr(0, 120));
  }
  AQV_ASSIGN_OR_RETURN(StatementResult result,
                       Read(stmt, ReadKind::kSelect, &snapshot));
  return *std::move(result.table);
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
  s.plan_cache_invalidated = cache_invalidated_.value();
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
    s.storage_attached = true;
    s.storage_pages_read = storage_pages_read_->value();
    s.storage_pages_written = storage_pages_written_->value();
    s.storage_wal_bytes = storage_wal_bytes_->value();
    s.storage_wal_records = storage_wal_records_->value();
    s.storage_wal_fsyncs = storage_wal_fsyncs_->value();
    s.storage_checkpoints = storage_checkpoints_->value();
    s.storage_wal_replayed = storage_wal_replayed_->value();
    s.storage_recovery_ms = storage_recovery_ms_->value();
    s.storage_last_commit_seq = storage_->last_commit_seq();
    s.storage_checkpoint_seq = storage_->checkpoint_seq();
    s.storage_pool_hits = storage_pool_hits_->value();
    s.storage_pool_misses = storage_pool_misses_->value();
    s.storage_fsync_p50_micros = storage_fsync_latency_->PercentileMicros(0.5);
    s.storage_fsync_p99_micros = storage_fsync_latency_->PercentileMicros(0.99);
    s.storage_fsync_max_micros = storage_fsync_latency_->max_micros();
    s.storage_checkpoint_p99_micros =
        storage_checkpoint_latency_->PercentileMicros(0.99);
    s.storage_recovery_replay_ms = storage_recovery_replay_ms_->value();
    s.storage_recovery_recompute_ms = storage_recovery_recompute_ms_->value();
    s.storage_wal_size_bytes =
        static_cast<uint64_t>(storage_wal_size_->value());
    s.storage_auto_checkpoints = storage_auto_checkpoints_->value();
    s.storage_backpressure_waits = storage_backpressure_waits_->value();
    s.storage_group_batch_p50 = storage_group_batch_->PercentileMicros(0.5);
    s.storage_group_batch_p99 = storage_group_batch_->PercentileMicros(0.99);
    s.storage_pages_quarantined = storage_pages_quarantined_->value();
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

std::vector<SlowQueryRecord> QueryService::SlowQueries() const {
  std::lock_guard<std::mutex> lock(slow_log_mutex_);
  return std::vector<SlowQueryRecord>(slow_log_.begin(), slow_log_.end());
}

void QueryService::RecordSlowQuery(SlowQueryRecord record) {
  slow_queries_.Increment();
  std::lock_guard<std::mutex> lock(slow_log_mutex_);
  slow_log_.push_back(std::move(record));
  while (slow_log_.size() > options_.slow_query_log_capacity &&
         !slow_log_.empty()) {
    slow_log_.pop_front();
  }
}

void QueryService::MaybeRecordSlowStatement(const std::string& stmt,
                                            const QueryStats& qs) {
  if (options_.slow_query_micros == 0 ||
      qs.total_micros < options_.slow_query_micros) {
    return;
  }
  SlowQueryRecord record;
  record.statement = stmt;
  record.fingerprint = qs.fingerprint;
  record.epoch = qs.epoch;
  record.parse_micros = qs.parse_micros;
  record.optimize_micros = qs.optimize_micros;
  record.exec_micros = qs.exec_micros;
  record.maintain_micros = qs.maintain_micros;
  record.wal_commit_micros = qs.wal_commit_micros;
  record.total_micros = qs.total_micros;
  record.cache_hit = qs.cache_hit;
  RecordSlowQuery(std::move(record));
}

void QueryService::RecordStatementProfile(const std::string& stmt,
                                          const QueryStats& qs) {
  if (options_.attribution_capacity == 0 || qs.fingerprint == 0) return;
  std::lock_guard<std::mutex> lock(profile_mutex_);
  auto it = profiles_.find(qs.fingerprint);
  if (it == profiles_.end()) {
    if (profiles_.size() >= options_.attribution_capacity) {
      ++profile_overflow_;
      return;
    }
    it = profiles_.emplace(qs.fingerprint, FingerprintProfile{}).first;
    it->second.fingerprint = qs.fingerprint;
    it->second.example = stmt.size() <= 200 ? stmt : stmt.substr(0, 200);
  }
  FingerprintProfile& p = it->second;
  ++p.count;
  if (qs.cache_hit) ++p.cache_hits;
  p.totals.Add(qs);
}

std::vector<FingerprintProfile> QueryService::FingerprintProfiles() const {
  std::vector<FingerprintProfile> out;
  {
    std::lock_guard<std::mutex> lock(profile_mutex_);
    out.reserve(profiles_.size());
    for (const auto& [fp, profile] : profiles_) out.push_back(profile);
  }
  std::sort(out.begin(), out.end(),
            [](const FingerprintProfile& a, const FingerprintProfile& b) {
              return a.totals.total_micros > b.totals.total_micros;
            });
  return out;
}

ServiceSnapshotPtr QueryService::ThreadSnapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  auto it = thread_snapshots_.find(std::this_thread::get_id());
  return it == thread_snapshots_.end() ? nullptr : it->second;
}

Result<StatementResult> QueryService::HandleBeginSnapshot() {
  std::thread::id tid = std::this_thread::get_id();
  if (ThreadHasWriteBatch()) {
    return Status::InvalidArgument(
        "a write batch is open on this thread; COMMIT or ROLLBACK it before "
        "BEGIN SNAPSHOT");
  }
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    if (thread_snapshots_.count(tid) > 0) {
      return Status::InvalidArgument(
          "a snapshot is already open on this thread; COMMIT it first");
    }
  }
  ServiceSnapshotPtr snap = PinSnapshot();
  StatementResult out;
  out.message = "snapshot pinned at epoch " + std::to_string(snap->epoch) +
                " (" + std::to_string(snap->db.TableNames().size()) +
                " tables)\n";
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  thread_snapshots_[tid] = std::move(snap);
  return out;
}

bool QueryService::ThreadHasWriteBatch() const {
  std::lock_guard<std::mutex> lock(write_batch_mutex_);
  return write_batches_.count(std::this_thread::get_id()) > 0;
}

Result<StatementResult> QueryService::HandleBeginWrite() {
  if (ThreadSnapshot() != nullptr) {
    return Status::InvalidArgument(
        "a snapshot is open on this thread; COMMIT it before BEGIN WRITE");
  }
  std::lock_guard<std::mutex> lock(write_batch_mutex_);
  if (!write_batches_.try_emplace(std::this_thread::get_id()).second) {
    return Status::InvalidArgument(
        "a write batch is already open on this thread; COMMIT or ROLLBACK "
        "it first");
  }
  StatementResult out;
  out.message = "write batch opened; INSERT/DELETE/UPDATE buffer on this "
                "thread until COMMIT\n";
  return out;
}

Result<StatementResult> QueryService::HandleRollback() {
  std::lock_guard<std::mutex> lock(write_batch_mutex_);
  auto it = write_batches_.find(std::this_thread::get_id());
  if (it == write_batches_.end()) {
    return Status::InvalidArgument(
        "no open write batch on this thread (BEGIN WRITE first)");
  }
  size_t rows =
      CountRows(it->second.inserts) + CountRows(it->second.deletes);
  write_batches_.erase(it);
  StatementResult out;
  out.message =
      "write batch discarded (" + std::to_string(rows) + " buffered row(s))\n";
  return out;
}

Result<StatementResult> QueryService::HandleCommit() {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  auto it = thread_snapshots_.find(std::this_thread::get_id());
  if (it == thread_snapshots_.end()) {
    return Status::InvalidArgument(
        "nothing to commit on this thread (BEGIN SNAPSHOT or BEGIN WRITE "
        "first)");
  }
  uint64_t epoch = it->second->epoch;
  thread_snapshots_.erase(it);
  StatementResult out;
  out.message = "snapshot at epoch " + std::to_string(epoch) + " released\n";
  return out;
}

Result<StatementResult> QueryService::Dispatch(const std::string& stmt,
                                               const std::string& upper) {
  if (upper == "STATS PROM") {
    StatementResult out;
    out.message = StatsPromText();
    return out;
  }
  if (Leads(upper, "STATS HISTORY")) {
    return HandleStatsHistory(TrimStatement(stmt.substr(13)));
  }
  if (Leads(upper, "STATS ATTRIBUTION")) {
    return HandleAttribution(TrimStatement(stmt.substr(17)));
  }
  if (Leads(upper, "MONITOR")) {
    return HandleMonitor(TrimStatement(stmt.substr(7)));
  }
  if (upper == "STATS") {
    StatementResult out;
    out.message = Stats().ToString();
    return out;
  }
  if (upper == "SLOWLOG") return HandleSlowLog();
  if (Leads(upper, "TRACE")) return HandleTrace(stmt);
  if (Leads(upper, "FAILPOINT")) return HandleFailpoint(stmt);
  if (upper == "BEGIN WRITE") return HandleBeginWrite();
  if (upper == "BEGIN SNAPSHOT" || upper == "BEGIN") {
    return HandleBeginSnapshot();
  }
  // BEGIN WRITE and BEGIN SNAPSHOT are mutually exclusive per thread, so a
  // COMMIT either applies the thread's batch or releases its pin.
  if (upper == "COMMIT") {
    return ThreadHasWriteBatch() ? HandleWrite(stmt, upper) : HandleCommit();
  }
  if (upper == "ROLLBACK") return HandleRollback();
  if (upper == "TABLES") return HandleListTables();
  if (upper == "VIEWS") return HandleListViews();
  if (upper == "CHECKPOINT") return HandleCheckpoint();
  if (upper == "SCRUB") return HandleScrub();
  // Writes and DDL are rejected while the calling thread has an open
  // snapshot: the pin is read-only by construction.
  bool is_dml = Leads(upper, "INSERT INTO") ||
                Leads(upper, "DELETE") || Leads(upper, "UPDATE");
  bool is_write = Leads(upper, "CREATE") || is_dml ||
                  Leads(upper, "REFRESH") || Leads(upper, "LOAD");
  if (is_write && ThreadSnapshot() != nullptr) {
    return Status::InvalidArgument(
        "writes are not allowed inside BEGIN SNAPSHOT; COMMIT first");
  }
  // Inside a write batch only DML (buffered) and reads are allowed: DDL,
  // REFRESH and LOAD would have to either see or ignore the uncommitted
  // rows, and neither is coherent.
  if (is_write && !is_dml && ThreadHasWriteBatch()) {
    return Status::InvalidArgument(
        "only INSERT/DELETE/UPDATE may run inside BEGIN WRITE; COMMIT or "
        "ROLLBACK first");
  }
  if (Leads(upper, "CREATE TABLE")) return HandleCreateTable(stmt);
  if (Leads(upper, "CREATE MATERIALIZED VIEW")) {
    return HandleCreateView(
        "CREATE " + stmt.substr(std::string("CREATE MATERIALIZED ").size()),
        /*materialized=*/true);
  }
  if (Leads(upper, "CREATE VIEW")) {
    return HandleCreateView(stmt, /*materialized=*/false);
  }
  if (is_dml || Leads(upper, "LOAD") || Leads(upper, "REFRESH")) {
    return HandleWrite(stmt, upper);
  }
  if (Leads(upper, "EXPLAIN ANALYZE")) {
    return Read(TrimStatement(stmt.substr(15)), ReadKind::kExplainAnalyze,
                nullptr);
  }
  if (Leads(upper, "EXPLAIN")) {
    return Read(TrimStatement(stmt.substr(7)), ReadKind::kExplain, nullptr);
  }
  if (Leads(upper, "WHY")) return HandleWhy(TrimStatement(stmt.substr(3)));
  if (Leads(upper, "SELECT")) {
    return Read(stmt, ReadKind::kSelect, nullptr);
  }
  if (Leads(upper, "SAVE")) return HandleSave(stmt);
  return Status::InvalidArgument("unrecognized statement: " + stmt);
}

namespace {

/// The EXPLAIN header shared by EXPLAIN and EXPLAIN ANALYZE.
std::string ExplainHeader(const Query& query, const PlanCache::Entry& entry,
                          bool cache_hit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "cost:      %.0f -> %.0f (%d rewriting(s) considered%s)\n",
                entry.cost_original, entry.cost_chosen,
                entry.rewritings_considered,
                cache_hit ? ", plan cache hit" : "");
  return "original:  " + ToSql(query) + "\n" +
         "chosen:    " + ToSql(entry.plan) + "\n" + buf;
}

/// EXPLAIN ANALYZE's per-statement attribution: disjoint phase times against
/// the measured wall clock (their sum accounts for all but dispatch
/// overhead — E19 checks the gap stays within 10%), plus the I/O the
/// statement caused.
std::string RenderAttribution(const QueryStats& qs) {
  uint64_t phases = qs.PhaseSumMicros();
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "attribution: wall=%lluus phases=%lluus (%.1f%%) parse=%lluus "
      "latch=%lluus rewrite=%lluus exec=%lluus maintain=%lluus "
      "wal_commit=%lluus\n"
      "counters:    rows=%llu epoch=%llu cache_hit=%d pool_hits=%llu "
      "pool_misses=%llu pages_read=%llu pages_written=%llu wal_bytes=%llu\n",
      static_cast<unsigned long long>(qs.total_micros),
      static_cast<unsigned long long>(phases),
      qs.total_micros == 0 ? 0.0
                           : 100.0 * static_cast<double>(phases) /
                                 static_cast<double>(qs.total_micros),
      static_cast<unsigned long long>(qs.parse_micros),
      static_cast<unsigned long long>(qs.latch_micros),
      static_cast<unsigned long long>(qs.optimize_micros),
      static_cast<unsigned long long>(qs.exec_micros),
      static_cast<unsigned long long>(qs.maintain_micros),
      static_cast<unsigned long long>(qs.wal_commit_micros),
      static_cast<unsigned long long>(qs.rows_processed),
      static_cast<unsigned long long>(qs.epoch), qs.cache_hit ? 1 : 0,
      static_cast<unsigned long long>(qs.buffer_pool_hits),
      static_cast<unsigned long long>(qs.buffer_pool_misses),
      static_cast<unsigned long long>(qs.pages_read),
      static_cast<unsigned long long>(qs.pages_written),
      static_cast<unsigned long long>(qs.wal_bytes));
  return buf;
}

}  // namespace

bool QueryService::ShouldDegrade(const Status& s) const {
  // An INT64 SUM overflow is exact arithmetic, not a fault of the plan:
  // the unrewritten query overflows too.
  return options_.degrade_on_failure &&
         s.code() != StatusCode::kDeadlineExceeded &&
         s.code() != StatusCode::kResourceExhausted &&
         s.code() != StatusCode::kOutOfRange;
}

Result<PlanCache::EntryPtr> QueryService::PlanThroughCache(
    const Query& query, const ServiceSnapshot& state, bool* cache_hit,
    ExecContext* ctx, bool* degraded) {
  *cache_hit = false;
  std::string key;
  if (plan_cache_.capacity() > 0) {
    TraceSpan lookup("plan_cache.lookup");
    key = CanonicalCacheKey(query);
    PlanCache::EntryPtr cached = plan_cache_.Lookup(key);
    bool hit = cached && OptimizedOn(*cached, state);
    if (lookup.active()) lookup.AddAttr("hit", hit ? "1" : "0");
    if (hit) {
      *cache_hit = true;
      cache_hits_.Increment();
      return cached;
    }
    // Optimized on another state: a miss, replaced by the insert below.
    if (cached) cache_invalidated_.Increment();
  }
  Clock::time_point start = Clock::now();
  RewriteOptions rewrite = options_.rewrite;
  rewrite.quarantined_views = QuarantinedViews();
  Optimizer optimizer(&state.db, state.views.get(), state.catalog.get(),
                      rewrite);
  Result<OptimizeResult> optimized = optimizer.Optimize(query, ctx);
  optimize_latency_.Record(ElapsedMicros(start));
  cache_misses_.Increment();

  auto entry = std::make_shared<PlanCache::Entry>();
  if (!optimized.ok()) {
    if (!ShouldDegrade(optimized.status())) return optimized.status();
    // Degrade: the optimizer itself failed (e.g. an injected
    // "optimizer.optimize" fault), so serve the unrewritten query. The
    // entry is NOT inserted into the cache — the next statement gets a
    // fresh optimization attempt rather than a pinned degraded plan.
    degraded_fallbacks_.Increment();
    *degraded = true;
    entry->plan = query;
    return PlanCache::EntryPtr(std::move(entry));
  }
  OptimizeResult plan = *std::move(optimized);
  // Views skipped for per-view rewrite failures count toward quarantine.
  for (const std::string& view : plan.failed_views) ChargeViewFailure(view);
  entry->plan = std::move(plan.chosen);
  entry->used_materialized_view = plan.used_materialized_view;
  entry->rewritings_considered = plan.rewritings_considered;
  entry->cost_original = plan.cost_original;
  entry->cost_chosen = plan.cost_chosen;
  entry->dependencies = std::move(plan.dependencies);
  StampState(entry.get(), state);
  if (plan_cache_.capacity() > 0) plan_cache_.Insert(key, entry);
  return PlanCache::EntryPtr(std::move(entry));
}

Result<StatementResult> QueryService::Read(const std::string& stmt,
                                           ReadKind kind,
                                           const ServiceSnapshot* pinned) {
  Clock::time_point stmt_start = Clock::now();
  // The statement's governance context: the deadline covers parse through
  // execution (including a degraded retry); the row budget is per
  // execution attempt. The attribution object rides on the context so the
  // evaluator (rows) and any stage that only sees the context can
  // contribute.
  ExecContext ctx;
  QueryStats qs;
  ctx.set_stats(&qs);
  if (options_.statement_deadline_micros > 0) {
    ctx.set_deadline_after_micros(options_.statement_deadline_micros);
  }
  if (options_.statement_row_budget > 0) {
    ctx.set_row_budget(options_.statement_row_budget);
  }
  ServiceSnapshotPtr owned;
  if (pinned == nullptr) {
    owned = ThreadSnapshot();
    pinned = owned.get();
  }
  const bool snapshot_read = pinned != nullptr;
  if (!snapshot_read) owned = Head();  // a live read pins the head
  const ServiceSnapshot& state = snapshot_read ? *pinned : *owned;
  TraceSpan span("read");
  if (span.active()) span.AddAttr("epoch", state.epoch);
  Clock::time_point parse_start = Clock::now();
  AQV_ASSIGN_OR_RETURN(Query query, ParseQuery(stmt, state.catalog.get()));
  qs.parse_micros = ElapsedMicros(parse_start);
  {
    // Corruption quarantine (current, not as of the pin): a query whose
    // closure touches a quarantined table gets a clean error instead of
    // salvaged-empty rows.
    std::vector<std::string> deps;
    CollectQueryDependencies(query, *state.views, &deps);
    AQV_RETURN_NOT_OK(CheckTableQuarantine(deps));
  }
  StatementResult out;
  Clock::time_point plan_start = Clock::now();
  AQV_ASSIGN_OR_RETURN(
      PlanCache::EntryPtr entry,
      PlanThroughCache(query, state, &out.cache_hit, &ctx, &out.degraded));
  // Attributed optimize time includes the cache probe, so a hit is cheap
  // but not free in the breakdown.
  qs.optimize_micros = ElapsedMicros(plan_start);
  out.used_materialized_view = entry->used_materialized_view;
  if (kind != ReadKind::kSelect) {
    out.message = ExplainHeader(query, *entry, out.cache_hit);
  }
  if (kind == ReadKind::kExplain) {
    AQV_ASSIGN_OR_RETURN(
        std::string tree,
        ExplainPlan(entry->plan, state.db, state.views.get(), eval_options_));
    out.message += tree;
    return out;
  }
  if (kind == ReadKind::kSelect) {
    if (entry->used_materialized_view) {
      out.message = "-- rewritten to use a materialized view:\n--   " +
                    ToSql(entry->plan) + "\n";
      rewrites_applied_.Increment();
    } else {
      rewrites_skipped_.Increment();
    }
  }
  // EXPLAIN ANALYZE renders the plan that ran, with each node's actual
  // rows and wall time next to the estimates the cost model priced.
  std::string analyzed;
  Clock::time_point start = Clock::now();
  {
    TraceSpan exec_span("execute");
    auto execute = [&](const Query& plan) {
      Clock::time_point attempt_start = Clock::now();
      Evaluator eval(&state.db, state.views.get(), eval_options_);
      eval.set_context(&ctx);
      Result<Table> result = eval.Execute(plan);
      uint64_t micros = ElapsedMicros(attempt_start);
      if (result.ok() && kind == ReadKind::kExplainAnalyze) {
        analyzed = RenderPlan(*eval.executed_plan(), true) + "total: " +
                   std::to_string(micros) + " us\n";
      }
      return result;
    };
    Result<Table> result = execute(entry->plan);
    if (!result.ok()) {
      // A real failure of a rewritten or cached plan degrades: drop the
      // cached entry, charge its views toward quarantine and retry once on
      // the unrewritten query under the same deadline.
      Status s = result.status();
      bool plan_differs = entry->used_materialized_view || out.cache_hit;
      if (!plan_differs || !ShouldDegrade(s)) return s;
      if (plan_cache_.capacity() > 0) {
        cache_invalidated_.Increment(
            plan_cache_.Erase(CanonicalCacheKey(query)));
      }
      for (const TableRef& ref : entry->plan.from) {
        if (state.views->Has(ref.table)) ChargeViewFailure(ref.table);
      }
      degraded_fallbacks_.Increment();
      ctx.ResetForRetry();
      result = execute(query);
      AQV_RETURN_NOT_OK(result.status());
      out.degraded = true;
      out.used_materialized_view = false;
      out.message += "-- degraded: plan failed (" + s.ToString() +
                     "); retried on the unrewritten query\n";
    }
    if (exec_span.active()) exec_span.AddAttr("rows", result->num_rows());
    out.table = *std::move(result);
  }
  qs.exec_micros = ElapsedMicros(start);
  exec_latency_.Record(qs.exec_micros);
  queries_served_.Increment();
  if (snapshot_read) snapshot_reads_.Increment();
  qs.fingerprint = QueryFingerprint(query);
  qs.epoch = state.epoch;
  qs.cache_hit = out.cache_hit;
  qs.degraded = out.degraded;
  qs.total_micros = ElapsedMicros(stmt_start);
  if (kind == ReadKind::kExplainAnalyze) {
    out.message += analyzed;
    out.message +=
        "result: " + std::to_string(out.table->num_rows()) + " row(s)\n";
    out.message += RenderAttribution(qs);
    out.table.reset();
  } else {
    MaybeRecordSlowStatement(stmt, qs);
  }
  RecordStatementProfile(stmt, qs);
  return out;
}

Result<StatementResult> QueryService::HandleTrace(const std::string& stmt) {
  AQV_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(stmt));
  Tracer& tracer = Tracer::Global();
  StatementResult out;
  if (tokens.size() >= 2 && tokens[1].IsKeyword("ON")) {
    tracer.Enable();
    out.message = "tracing enabled\n";
    return out;
  }
  if (tokens.size() >= 2 && tokens[1].IsKeyword("OFF")) {
    tracer.Disable();
    out.message = "tracing disabled\n";
    return out;
  }
  if (tokens.size() >= 2 && tokens[1].IsKeyword("CLEAR")) {
    tracer.Clear();
    out.message = "trace buffer cleared\n";
    return out;
  }
  if (tokens.size() >= 2 && tokens[1].IsKeyword("DUMP")) {
    size_t events = tracer.Snapshot().size();
    uint64_t dropped = tracer.dropped();
    std::string json = tracer.ChromeTraceJson();
    if (tokens.size() >= 3 && tokens[2].kind == TokenKind::kString) {
      std::ofstream file(tokens[2].text, std::ios::trunc);
      if (!file) {
        return Status::InvalidArgument("cannot open '" + tokens[2].text +
                                       "' for writing");
      }
      file << json;
      out.message = std::to_string(events) + " event(s) written to " +
                    tokens[2].text + " (" + std::to_string(dropped) +
                    " dropped); load in chrome://tracing or ui.perfetto.dev\n";
    } else {
      out.message = std::move(json);
    }
    return out;
  }
  return Status::InvalidArgument("usage: TRACE ON|OFF|CLEAR|DUMP ['file.json']");
}

Result<StatementResult> QueryService::HandleFailpoint(const std::string& stmt) {
  // FAILPOINT LIST | FAILPOINT CLEAR | FAILPOINT <name> <spec>
  // (names and specs are case-sensitive; see base/failpoint.h for the
  // spec grammar).
  std::string rest = TrimStatement(stmt.substr(std::string("FAILPOINT").size()));
  std::string upper = ToUpper(rest);
  FailpointRegistry& registry = FailpointRegistry::Global();
  StatementResult out;
  if (rest.empty() || upper == "LIST") {
    std::vector<FailpointRegistry::Info> armed = registry.List();
    if (armed.empty()) {
      out.message = "no failpoints armed\n";
      return out;
    }
    for (const FailpointRegistry::Info& info : armed) {
      out.message += "  " + info.name + " " + info.spec + " (evaluated " +
                     std::to_string(info.evaluations) + ", fired " +
                     std::to_string(info.fires) + ")\n";
    }
    return out;
  }
  if (upper == "CLEAR") {
    registry.ClearAll();
    out.message = "all failpoints cleared\n";
    return out;
  }
  size_t space = rest.find_first_of(" \t");
  if (space == std::string::npos) {
    return Status::InvalidArgument(
        "usage: FAILPOINT <name> <spec> | FAILPOINT LIST | FAILPOINT CLEAR");
  }
  std::string name = rest.substr(0, space);
  std::string spec = TrimStatement(rest.substr(space));
  AQV_RETURN_NOT_OK(registry.Set(name, spec));
  out.message = "failpoint " + name + " = " + spec + "\n";
  return out;
}

Result<StatementResult> QueryService::HandleSlowLog() const {
  StatementResult out;
  std::vector<SlowQueryRecord> records = SlowQueries();
  if (records.empty()) {
    out.message = "slow query log is empty\n";
    return out;
  }
  char buf[240];
  for (const SlowQueryRecord& r : records) {
    std::snprintf(buf, sizeof(buf),
                  "fp=%016llx epoch=%llu total=%lluus parse=%lluus "
                  "optimize=%lluus exec=%lluus maintain=%lluus "
                  "wal_commit=%lluus [cache %s]  ",
                  static_cast<unsigned long long>(r.fingerprint),
                  static_cast<unsigned long long>(r.epoch),
                  static_cast<unsigned long long>(r.total_micros),
                  static_cast<unsigned long long>(r.parse_micros),
                  static_cast<unsigned long long>(r.optimize_micros),
                  static_cast<unsigned long long>(r.exec_micros),
                  static_cast<unsigned long long>(r.maintain_micros),
                  static_cast<unsigned long long>(r.wal_commit_micros),
                  r.cache_hit ? "hit" : "miss");
    out.message += buf;
    out.message += r.statement + "\n";
  }
  return out;
}

namespace {

/// Optional trailing count in a statement tail ("", "5", "JSON 5").
/// Returns `fallback` when absent or unparsable.
size_t ParseCountArg(const std::string& rest, size_t fallback) {
  if (rest.empty()) return fallback;
  size_t pos = rest.find_last_of(" \t");
  std::string tail = pos == std::string::npos ? rest : rest.substr(pos + 1);
  char* end = nullptr;
  unsigned long long n = std::strtoull(tail.c_str(), &end, 10);
  if (end == tail.c_str() || *end != '\0') return fallback;
  return static_cast<size_t>(n);
}

/// One line per telemetry window: the rates and latency means an operator
/// scans for dips and spikes. Shared by STATS HISTORY and MONITOR.
std::string RenderWindowLine(const TelemetryWindow& w) {
  uint64_t stmts = w.CounterDelta("service.statements");
  uint64_t selects = w.CounterDelta("service.queries_served");
  uint64_t hits = w.CounterDelta("service.plan_cache.hits");
  uint64_t misses = w.CounterDelta("service.plan_cache.misses");
  uint64_t inserted = w.CounterDelta("service.rows_inserted_total");
  uint64_t fsyncs = w.CounterDelta("storage.wal_fsyncs");
  double hit_pct = hits + misses == 0
                       ? 0.0
                       : 100.0 * static_cast<double>(hits) /
                             static_cast<double>(hits + misses);
  const TelemetryWindow::Hist* exec = w.Histogram("service.exec_latency");
  const TelemetryWindow::Hist* maintain =
      w.Histogram("service.maintain_latency");
  auto mean = [](const TelemetryWindow::Hist* h) {
    return h == nullptr || h->delta_count == 0
               ? 0.0
               : static_cast<double>(h->delta_sum_micros) /
                     static_cast<double>(h->delta_count);
  };
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "[%4llu] t=%lldms dur=%.1fms stmts=%llu sel=%llu hit=%.1f%% "
      "ins=%llu exec(n=%llu mean=%.0fus) maintain(n=%llu mean=%.0fus) "
      "fsync=%llu\n",
      static_cast<unsigned long long>(w.seq),
      static_cast<long long>(w.unix_millis),
      static_cast<double>(w.duration_micros()) / 1000.0,
      static_cast<unsigned long long>(stmts),
      static_cast<unsigned long long>(selects), hit_pct,
      static_cast<unsigned long long>(inserted),
      static_cast<unsigned long long>(exec ? exec->delta_count : 0),
      mean(exec),
      static_cast<unsigned long long>(maintain ? maintain->delta_count : 0),
      mean(maintain), static_cast<unsigned long long>(fsyncs));
  return buf;
}

}  // namespace

Result<StatementResult> QueryService::HandleStatsHistory(
    const std::string& rest) {
  std::string upper = ToUpper(rest);
  bool json = StartsWith(upper, "JSON");
  size_t n = ParseCountArg(rest, 0);
  StatementResult out;
  if (json) {
    out.message = telemetry_->HistoryJson(n) + "\n";
    return out;
  }
  std::vector<TelemetryWindowPtr> windows = telemetry_->History(n);
  char buf[200];
  std::snprintf(
      buf, sizeof(buf),
      "telemetry: %zu window(s) (interval=%lluus capacity=%zu sampled=%llu "
      "dropped=%llu sampler %s)\n",
      windows.size(),
      static_cast<unsigned long long>(telemetry_->options().interval_micros),
      telemetry_->options().capacity,
      static_cast<unsigned long long>(telemetry_->windows_sampled()),
      static_cast<unsigned long long>(telemetry_->windows_dropped()),
      telemetry_->running() ? "running" : "stopped");
  out.message = buf;
  if (windows.empty()) {
    out.message +=
        "no windows sampled yet (set "
        "ServiceOptions::telemetry_interval_micros or run MONITOR to cut "
        "one on demand)\n";
    return out;
  }
  for (const auto& w : windows) out.message += RenderWindowLine(*w);
  return out;
}

Result<StatementResult> QueryService::HandleMonitor(const std::string& rest) {
  size_t n = ParseCountArg(rest, 10);
  if (n == 0) n = 10;
  // A MONITOR is a demand sample: it closes the current window so the
  // dashboard always ends "now", with or without a background sampler.
  telemetry_->SampleNow();
  std::vector<TelemetryWindowPtr> windows = telemetry_->History(n);
  uint64_t stmts = 0, selects = 0, micros = 0;
  for (const auto& w : windows) {
    stmts += w->CounterDelta("service.statements");
    selects += w->CounterDelta("service.queries_served");
    micros += w->duration_micros();
  }
  double secs = micros == 0 ? 0.0 : static_cast<double>(micros) / 1e6;
  char buf[240];
  std::snprintf(
      buf, sizeof(buf),
      "MONITOR — last %zu window(s), %.2fs: %llu statement(s) (%.0f/s), "
      "%llu SELECT(s) (%.0f/s)%s\n",
      windows.size(), secs, static_cast<unsigned long long>(stmts),
      secs == 0.0 ? 0.0 : static_cast<double>(stmts) / secs,
      static_cast<unsigned long long>(selects),
      secs == 0.0 ? 0.0 : static_cast<double>(selects) / secs,
      telemetry_->running() ? "" : " [sampler off: windows cut on demand]");
  StatementResult out;
  out.message = buf;
  for (const auto& w : windows) out.message += RenderWindowLine(*w);
  return out;
}

Result<StatementResult> QueryService::HandleAttribution(
    const std::string& rest) const {
  size_t n = ParseCountArg(rest, 20);
  if (n == 0) n = 20;
  std::vector<FingerprintProfile> profiles = FingerprintProfiles();
  uint64_t overflow;
  {
    std::lock_guard<std::mutex> lock(profile_mutex_);
    overflow = profile_overflow_;
  }
  StatementResult out;
  out.message = "attribution: " + std::to_string(profiles.size()) +
                " fingerprint(s) tracked, " + std::to_string(overflow) +
                " overflow\n";
  if (profiles.size() > n) profiles.resize(n);
  char buf[320];
  for (const FingerprintProfile& p : profiles) {
    const QueryStats& t = p.totals;
    std::snprintf(
        buf, sizeof(buf),
        "fp=%016llx n=%llu cache_hits=%llu total=%lluus optimize=%lluus "
        "exec=%lluus maintain=%lluus wal=%lluus rows=%llu  ",
        static_cast<unsigned long long>(p.fingerprint),
        static_cast<unsigned long long>(p.count),
        static_cast<unsigned long long>(p.cache_hits),
        static_cast<unsigned long long>(t.total_micros),
        static_cast<unsigned long long>(t.optimize_micros),
        static_cast<unsigned long long>(t.exec_micros),
        static_cast<unsigned long long>(t.maintain_micros),
        static_cast<unsigned long long>(t.wal_commit_micros),
        static_cast<unsigned long long>(t.rows_processed));
    out.message += buf;
    out.message += p.example + "\n";
  }
  return out;
}

Result<StatementResult> QueryService::HandleWhy(const std::string& rest) {
  size_t space = rest.find(' ');
  if (space == std::string::npos) {
    return Status::InvalidArgument("usage: WHY <view> SELECT ...");
  }
  // No row data is read: the pinned catalog and registry are all the
  // rewrite explanation needs.
  ServiceSnapshotPtr state = ReadState();
  std::string name = rest.substr(0, space);
  AQV_ASSIGN_OR_RETURN(const ViewDef* view, state->views->Get(name));
  AQV_ASSIGN_OR_RETURN(Query query,
                       ParseQuery(TrimStatement(rest.substr(space + 1)),
                                  state->catalog.get()));
  AQV_ASSIGN_OR_RETURN(RewriteExplanation explanation,
                       ExplainRewrite(query, *view, options_.rewrite));
  StatementResult out;
  out.message = explanation.ToString();
  return out;
}

Result<StatementResult> QueryService::HandleSave(const std::string& stmt) {
  AQV_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(stmt));
  if (tokens.size() != 5 || tokens[1].kind != TokenKind::kIdentifier ||
      !tokens[2].IsKeyword("TO") || tokens[3].kind != TokenKind::kString) {
    return Status::InvalidArgument("usage: SAVE R TO 'file.csv'");
  }
  ServiceSnapshotPtr state = ReadState();
  std::vector<std::string> footprint;
  CollectDependencies({tokens[1].text}, *state->views, &footprint);
  AQV_RETURN_NOT_OK(CheckTableQuarantine(footprint));
  Evaluator eval(&state->db, state->views.get(), eval_options_);
  AQV_ASSIGN_OR_RETURN(Table contents, eval.MaterializeView(tokens[1].text));
  AQV_RETURN_NOT_OK(WriteCsvFile(contents, tokens[3].text));
  StatementResult out;
  out.message = std::to_string(contents.num_rows()) + " row(s) written to " +
                tokens[3].text + "\n";
  return out;
}

Result<StatementResult> QueryService::HandleListTables() {
  // One pinned state: the row counts below come from one consistent cut.
  ServiceSnapshotPtr state = ReadState();
  StatementResult out;
  for (const std::string& name : state->catalog->TableNames()) {
    const TableDef* def = *state->catalog->GetTable(name);
    Result<const Table*> t = state->db.Get(name);
    out.message += "  " + name + "(" + Join(def->columns(), ", ") + ") — " +
                   std::to_string(t.ok() ? (*t)->num_rows() : 0) + " rows\n";
  }
  return out;
}

Result<StatementResult> QueryService::HandleListViews() {
  ServiceSnapshotPtr state = ReadState();
  StatementResult out;
  for (const std::string& name : state->views->ViewNames()) {
    const ViewDef* def = *state->views->Get(name);
    bool materialized = state->db.Has(name);
    out.message += "  " + name + (materialized ? " [materialized] AS " : " [virtual] AS ") +
                   ToSql(def->query) + "\n";
  }
  return out;
}

Result<StatementResult> QueryService::HandleCreateTable(
    const std::string& stmt) {
  // CREATE TABLE name '(' col (',' col)* ')' [KEY '(' col (',' col)* ')']
  AQV_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(stmt));
  size_t i = 2;  // CREATE TABLE; the token list ends with kEnd
  if (tokens[i].kind != TokenKind::kIdentifier) {
    return Status::InvalidArgument("expected a table name");
  }
  std::string name = tokens[i++].text;
  auto name_list = [&](const std::string& what)
      -> Result<std::vector<std::string>> {
    if (tokens[i].kind != TokenKind::kLParen) {
      return Status::InvalidArgument("expected '(' before the " + what);
    }
    std::vector<std::string> names;
    do {
      ++i;  // '(' or ','
      if (tokens[i].kind != TokenKind::kIdentifier) {
        return Status::InvalidArgument("expected a column name in the " +
                                       what + " at offset " +
                                       std::to_string(tokens[i].offset));
      }
      names.push_back(tokens[i++].text);
    } while (tokens[i].kind == TokenKind::kComma);
    if (tokens[i++].kind != TokenKind::kRParen) {
      return Status::InvalidArgument("expected ',' or ')' in the " + what +
                                     " at offset " +
                                     std::to_string(tokens[i - 1].offset));
    }
    return names;
  };
  AQV_ASSIGN_OR_RETURN(std::vector<std::string> columns,
                       name_list("column list"));
  TableDef def(name, columns);
  if (tokens[i].IsKeyword("KEY")) {
    ++i;
    AQV_ASSIGN_OR_RETURN(std::vector<std::string> key, name_list("key"));
    AQV_RETURN_NOT_OK(def.AddKeyByName(key));
  }
  if (tokens[i].kind != TokenKind::kEnd) {
    return Status::InvalidArgument("unexpected trailing input at offset " +
                                   std::to_string(tokens[i].offset));
  }
  LatchManager::Guard guard = latches_.Ddl();
  ServiceSnapshot next = *Head();
  auto catalog = std::make_shared<Catalog>(*next.catalog);
  AQV_RETURN_NOT_OK(catalog->AddTable(def));
  next.catalog = std::move(catalog);
  next.db.Put(name, Table(columns));
  AQV_RETURN_NOT_OK(PublishDdl(std::move(next)));
  StatementResult out;
  out.message = "table " + name + " created\n";
  return out;
}

Result<StatementResult> QueryService::HandleCreateView(const std::string& stmt,
                                                       bool materialized) {
  LatchManager::Guard guard = latches_.Ddl();
  ServiceSnapshot next = *Head();
  AQV_ASSIGN_OR_RETURN(ViewDef view, ParseView(stmt, next.catalog.get()));
  std::string name = view.name;
  auto views = std::make_shared<ViewRegistry>(*next.views);
  AQV_RETURN_NOT_OK(views->Register(std::move(view)));
  next.views = std::move(views);
  StatementResult out;
  if (materialized) {
    AQV_ASSIGN_OR_RETURN(size_t rows, RecomputeViewInto(name, &next));
    out.message =
        "view " + name + " materialized: " + std::to_string(rows) + " rows\n";
  } else {
    out.message = "view " + name + " registered (virtual)\n";
  }
  AQV_RETURN_NOT_OK(PublishDdl(std::move(next)));
  return out;
}

namespace {

/// The identifier at `word_index` of a whitespace-split statement, or ""
/// when the statement is too short. Used to peek a write's target table
/// name before parsing, so a write aimed at a view gets a verb-accurate
/// refusal instead of the binder's generic unknown-table error.
std::string PeekDmlTarget(const std::string& stmt, size_t word_index) {
  size_t i = 0;
  size_t word = 0;
  const size_t n = stmt.size();
  while (i < n) {
    while (i < n && std::isspace(static_cast<unsigned char>(stmt[i]))) ++i;
    size_t b = i;
    while (i < n && !std::isspace(static_cast<unsigned char>(stmt[i]))) ++i;
    if (b == i) break;
    if (word == word_index) return stmt.substr(b, i - b);
    ++word;
  }
  return "";
}

/// How a row-changing statement names itself: when refused for aiming at a
/// view, in its ack, and in its ack when buffered into a BEGIN WRITE batch.
/// Indexed by WriteRequest::Kind; COMMIT has an ack of its own.
struct WriteVerb {
  const char* refusal;
  const char* applied;
  const char* buffered;
};
constexpr WriteVerb kWriteVerbs[] = {
    {"INSERT into", "inserted into", "buffered into"},
    {"DELETE from", "deleted from", "buffered to delete from"},
    {"UPDATE", "updated in", "buffered to update in"},
    {"LOAD into", "loaded into", ""},
};

/// Refuses rows over the storage row cap. Rows that large could never be
/// checkpointed or replayed, so a durable service refuses them when they
/// arrive rather than poisoning a later CHECKPOINT.
template <typename Rows>
Status CheckRowSizes(const Rows& rows) {
  for (const Row& row : rows) {
    AQV_RETURN_NOT_OK(StorageEngine::CheckRowSize(row));
  }
  return Status::OK();
}

/// Renders a row as "(v1, v2, ...)" for write-path error messages.
std::string RowText(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

/// Multiset containment of the delta's deletes in base ∪ same-batch inserts.
/// ApplyDeltaToBase lands inserts before deletes, so an insert in the same
/// batch legitimately covers a delete of an identical row (the extremum-tie
/// write tests rely on that). A delete the available multiset cannot cover
/// is rejected here, before anything is staged, logged or published —
/// otherwise the base would drop fewer rows than the maintainer subtracted
/// and views would silently desync from their bases.
Status ValidateDeleteContainment(const Delta& delta, const Database& db) {
  for (const auto& [name, dels] : delta.deletes) {
    if (dels.empty()) continue;
    // Histogram the (usually few) deletes, then drain it against the
    // available rows: same-batch inserts first, then the base, whose zone
    // maps skip every chunk that cannot hold a wanted row. A single-row
    // delete from a large table scans one chunk, up to its match.
    RowCounts needed;
    for (const Row& row : dels) ++needed[row];
    auto ins = delta.inserts.find(name);
    if (ins != delta.inserts.end()) {
      for (const Row& row : ins->second) {
        auto it = needed.find(row);
        if (it != needed.end() && it->second > 0) --it->second;
      }
    }
    if (TablePtr base = db.GetShared(name)) base->LocateRows(&needed);
    for (const auto& [row, count] : needed) {
      if (count > 0) {
        return Status::InvalidArgument(
            "cannot delete row " + RowText(row) + " from '" + name +
            "': not present in the stored table");
      }
    }
  }
  return Status::OK();
}

/// One UPDATE SET expression applied to one row. Arithmetic on NULL yields
/// NULL (SQL semantics); on a string it is an execution-time error;
/// INT64 op INT64 stays INT64 and is checked (a result outside INT64 is
/// kOutOfRange, never a wrapped value); anything involving a DOUBLE
/// promotes.
Result<Value> EvalSetExpr(const SetExpr& expr, const Row& row,
                          const ColumnIndexMap& layout) {
  if (expr.kind == SetExpr::Kind::kLiteral) return expr.literal;
  auto it = layout.find(expr.column);
  if (it == layout.end()) {
    return Status::Internal("unbound UPDATE source column '" + expr.column +
                            "'");
  }
  const Value& v = row[static_cast<size_t>(it->second)];
  if (expr.kind == SetExpr::Kind::kColumn) return v;
  if (v.is_null() || expr.literal.is_null()) return Value::Null();
  if (!v.is_numeric() || !expr.literal.is_numeric()) {
    return Status::InvalidArgument(
        "UPDATE arithmetic needs numeric operands; column '" + expr.column +
        "' holds " + v.ToString());
  }
  if (v.type() == ValueType::kInt64 &&
      expr.literal.type() == ValueType::kInt64) {
    int64_t a = v.int64();
    int64_t b = expr.literal.int64();
    int64_t result;
    bool overflow;
    switch (expr.op) {
      case '+':
        overflow = __builtin_add_overflow(a, b, &result);
        break;
      case '-':
        overflow = __builtin_sub_overflow(a, b, &result);
        break;
      default:
        overflow = __builtin_mul_overflow(a, b, &result);
        break;
    }
    if (overflow) {
      return Status::OutOfRange("INT64 overflow in UPDATE arithmetic on "
                                "column '" + expr.column + "'");
    }
    return Value::Int64(result);
  }
  double a = v.AsDouble();
  double b = expr.literal.AsDouble();
  switch (expr.op) {
    case '+':
      return Value::Double(a + b);
    case '-':
      return Value::Double(a - b);
    default:
      return Value::Double(a * b);
  }
}

}  // namespace

Result<StatementResult> QueryService::HandleWrite(const std::string& stmt,
                                                  const std::string& upper) {
  using Kind = WriteRequest::Kind;
  Clock::time_point stmt_start = Clock::now();
  QueryStats qs;
  ServiceSnapshotPtr state = Head();
  AQV_ASSIGN_OR_RETURN(WriteRequest request, BindWrite(stmt, upper, *state));
  qs.parse_micros = ElapsedMicros(stmt_start);
  const std::string table = request.table;
  const Kind kind = request.kind;
  StatementResult out;
  if (kind == Kind::kLoad && !state->catalog->HasTable(table)) {
    // A LOAD that creates its table is a schema change.
    if (storage_attached()) {
      AQV_RETURN_NOT_OK(CheckRowSizes(request.replacement->rows()));
    }
    LatchManager::Guard guard = latches_.Ddl();
    ServiceSnapshot next = *Head();
    if (next.catalog->HasTable(table)) {
      // Created by another thread since the pin: bind again, as a
      // replacement.
      guard.Release();
      return HandleWrite(stmt, upper);
    }
    auto catalog = std::make_shared<Catalog>(*next.catalog);
    AQV_RETURN_NOT_OK(
        catalog->AddTable(TableDef(table, request.replacement->columns())));
    next.catalog = std::move(catalog);
    out.message = "table " + table + " created from the CSV header\n" +
                  std::to_string(request.replacement->num_rows()) +
                  " row(s) loaded into " + table + "\n";
    next.db.Put(table, *std::move(request.replacement));
    AQV_RETURN_NOT_OK(PublishDdl(std::move(next)));
    return out;
  }
  const WriteVerb* verb = kind == Kind::kCommit || kind == Kind::kRefresh
                              ? nullptr
                              : &kWriteVerbs[static_cast<size_t>(kind)];
  if (verb != nullptr && ThreadHasWriteBatch()) {
    // Buffer into the open batch: the delta is materialized against the
    // pinned committed state (the visibility rule of SELECT inside BEGIN
    // WRITE). COMMIT re-validates delete containment against the
    // then-current base, so a concurrent write that removed a matched row
    // fails the batch cleanly instead of desyncing views.
    AQV_ASSIGN_OR_RETURN(Delta delta, MaterializeWrite(&request, state->db));
    size_t rows =
        CountRows(kind == Kind::kInsert ? delta.inserts : delta.deletes);
    AQV_RETURN_NOT_OK(BufferWrite(std::move(delta)));
    out.message = std::to_string(rows) + " row(s) " + verb->buffered + " " +
                  table + " (COMMIT to apply)\n";
    return out;
  }
  Clock::time_point apply_start = Clock::now();
  AQV_ASSIGN_OR_RETURN(WriteApplied applied,
                       ApplyWrite(std::move(request), &qs));
  // The write's "exec" phase is apply minus the attributed sub-phases so
  // the phases stay disjoint and their sum tracks the wall clock.
  uint64_t apply_micros = ElapsedMicros(apply_start);
  uint64_t attributed =
      qs.latch_micros + qs.maintain_micros + qs.wal_commit_micros;
  qs.exec_micros = apply_micros > attributed ? apply_micros - attributed : 0;
  qs.rows_processed += applied.rows_inserted + applied.rows_deleted;
  qs.epoch = applied.epoch;
  std::string views = std::to_string(applied.views_maintained) +
                      " view(s) maintained, " +
                      std::to_string(applied.views_recomputed) +
                      " recomputed\n";
  if (kind == Kind::kRefresh) {
    out.message = "view " + table + " refreshed; " + views;
  } else if (verb == nullptr) {
    out.message = std::to_string(applied.rows_inserted) +
                  " row(s) inserted / " +
                  std::to_string(applied.rows_deleted) + " deleted across " +
                  std::to_string(applied.tables) + " table(s); " + views;
  } else {
    bool adds = kind == Kind::kInsert || kind == Kind::kLoad;
    out.message =
        std::to_string(adds ? applied.rows_inserted : applied.rows_deleted) +
        " row(s) " + verb->applied + " " + table + "; " + views;
  }
  if (applied.repaired) {
    // The WAL-logged replacement alone would not survive a restart: the
    // corrupt checkpoint pages are still on disk, so recovery would
    // re-derive the quarantine from them and discard the repair delta as
    // suspect. A checkpoint rewrites the damaged pages from the repaired
    // live contents and persists the cleared quarantine map. Quiesce first
    // — the repair held only the table's own stripes.
    LatchManager::Guard guard = latches_.Ddl();
    AQV_RETURN_NOT_OK(CheckpointIfDurable(*Head()));
    out.message += "quarantine repaired; checkpoint rewrote the damaged pages\n";
  }
  qs.total_micros = ElapsedMicros(stmt_start);
  MaybeRecordSlowStatement(stmt, qs);  // fingerprint 0: writes aggregate only
  return out;
}

Result<QueryService::WriteRequest> QueryService::BindWrite(
    const std::string& stmt, const std::string& upper,
    const ServiceSnapshot& state) {
  using Kind = WriteRequest::Kind;
  WriteRequest request;
  if (upper == "COMMIT") {
    request.kind = Kind::kCommit;
    std::lock_guard<std::mutex> lock(write_batch_mutex_);
    auto it = write_batches_.find(std::this_thread::get_id());
    if (it == write_batches_.end()) {
      return Status::InvalidArgument("no open write batch on this thread");
    }
    // Taken up front: a failed apply discards the batch (nothing was
    // published), rather than leaving it open to fail every retry.
    request.delta = std::move(it->second);
    write_batches_.erase(it);
    return request;
  }
  if (Leads(upper, "REFRESH")) {
    request.kind = Kind::kRefresh;
    request.table = TrimStatement(stmt.substr(7));
    if (!state.views->Has(request.table)) {
      return Status::NotFound("no view named '" + request.table + "'");
    }
    return request;
  }
  request.kind = Leads(upper, "INSERT INTO") ? Kind::kInsert
                 : Leads(upper, "DELETE")    ? Kind::kDelete
                 : Leads(upper, "UPDATE")    ? Kind::kUpdate
                                             : Kind::kLoad;
  // INSERT INTO <t> and DELETE FROM <t> name the target second, UPDATE <t>
  // and LOAD <t> first.
  std::string target = PeekDmlTarget(
      stmt, request.kind == Kind::kInsert || request.kind == Kind::kDelete
                ? 2
                : 1);
  if (state.views->Has(target)) {
    return Status::InvalidArgument(
        std::string("cannot ") +
        kWriteVerbs[static_cast<size_t>(request.kind)].refusal + " view '" +
        target + "'; write its base tables");
  }
  switch (request.kind) {
    case Kind::kInsert: {
      AQV_ASSIGN_OR_RETURN(InsertStatement insert, ParseInsert(stmt));
      request.table = std::move(insert.table);
      request.delta.inserts[request.table] = std::move(insert.rows);
      break;
    }
    case Kind::kDelete: {
      AQV_ASSIGN_OR_RETURN(DeleteStatement del,
                           ParseDelete(stmt, state.catalog.get()));
      request.table = std::move(del.table);
      request.where = std::move(del.where);
      break;
    }
    case Kind::kUpdate: {
      AQV_ASSIGN_OR_RETURN(UpdateStatement upd,
                           ParseUpdate(stmt, state.catalog.get()));
      request.table = std::move(upd.table);
      request.where = std::move(upd.where);
      request.sets = std::move(upd.sets);
      break;
    }
    default: {
      // LOAD <table> FROM '<path>'
      AQV_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(stmt));
      if (tokens.size() != 5 || tokens[1].kind != TokenKind::kIdentifier ||
          !tokens[2].IsKeyword("FROM") ||
          tokens[3].kind != TokenKind::kString) {
        return Status::InvalidArgument("usage: LOAD R FROM 'file.csv'");
      }
      request.table = tokens[1].text;
      AQV_ASSIGN_OR_RETURN(Table loaded, ReadCsvFile(tokens[3].text));
      request.replacement = std::move(loaded);
      // A LOAD into a table that does not exist yet creates it.
      if (!state.catalog->HasTable(request.table)) return request;
    }
  }
  // Incoming rows must fit the target, checked here so that a batch never
  // buffers a row its COMMIT would refuse.
  Result<const TableDef*> def = state.catalog->GetTable(request.table);
  if (!def.ok()) {
    return Status::NotFound("table '" + request.table + "' not in database");
  }
  const size_t arity = static_cast<size_t>((*def)->num_columns());
  auto check_arity = [&](size_t got) -> Status {
    if (got == arity) return Status::OK();
    return Status::InvalidArgument(
        "row arity " + std::to_string(got) + " != arity " +
        std::to_string(arity) + " of table '" + request.table + "'");
  };
  if (request.replacement.has_value()) {
    AQV_RETURN_NOT_OK(check_arity(
        static_cast<size_t>(request.replacement->num_columns())));
  }
  for (const auto& [name, rows] : request.delta.inserts) {
    for (const Row& row : rows) AQV_RETURN_NOT_OK(check_arity(row.size()));
  }
  return request;
}

Result<Delta> QueryService::MaterializeWrite(WriteRequest* request,
                                             const Database& db) const {
  using Kind = WriteRequest::Kind;
  if (request->kind == Kind::kInsert || request->kind == Kind::kCommit ||
      request->kind == Kind::kRefresh) {
    return std::move(request->delta);
  }
  Delta out;
  AQV_ASSIGN_OR_RETURN(const Table* table, db.Get(request->table));
  if (request->kind == Kind::kLoad) {
    // Delete-all plus insert-all: replay applies the inserts, then removes
    // one occurrence per old row, landing exactly on the loaded contents,
    // so the replacement is durable without a checkpoint.
    out.deletes[request->table] = table->rows();
    out.inserts[request->table] = request->replacement->rows();
    return out;
  }
  ColumnIndexMap layout;
  for (int i = 0; i < table->num_columns(); ++i) {
    layout[table->columns()[static_cast<size_t>(i)]] = i;
  }
  // The WHERE runs chunk by chunk; zone maps skip the chunks it cannot
  // match (a key-equality predicate scans one).
  std::vector<Row> deleted;
  std::vector<Row> inserted;
  for (const auto& [chunk, sel] :
       SelectRows(*table, request->where, layout)) {
    for (uint32_t r : sel) {
      const Row& row = table->chunks()[chunk]->rows()[r];
      deleted.push_back(row);
      if (request->kind == Kind::kUpdate) {
        Row updated = row;
        for (const Assignment& a : request->sets) {
          auto it = layout.find(a.column);
          if (it == layout.end()) {
            return Status::Internal("unbound UPDATE target column '" +
                                    a.column + "'");
          }
          // Assignments all read the OLD row (SQL semantics: SET a = b,
          // b = a swaps), so the source is `row`, never `updated`.
          AQV_ASSIGN_OR_RETURN(Value v, EvalSetExpr(a.expr, row, layout));
          updated[static_cast<size_t>(it->second)] = std::move(v);
        }
        inserted.push_back(std::move(updated));
      }
    }
  }
  if (!deleted.empty()) {
    if (request->kind == Kind::kUpdate) {
      out.inserts[request->table] = std::move(inserted);
    }
    out.deletes[request->table] = std::move(deleted);
  }
  return out;
}

Status QueryService::BufferWrite(Delta delta) {
  std::lock_guard<std::mutex> lock(write_batch_mutex_);
  auto it = write_batches_.find(std::this_thread::get_id());
  if (it == write_batches_.end()) {
    return Status::InvalidArgument(
        "no open write batch on this thread (BEGIN WRITE first)");
  }
  auto append = [](std::map<std::string, std::vector<Row>>& from,
                   std::map<std::string, std::vector<Row>>* into) {
    for (auto& [name, rows] : from) {
      std::vector<Row>& buffered = (*into)[name];
      for (Row& row : rows) buffered.push_back(std::move(row));
    }
  };
  append(delta.inserts, &it->second.inserts);
  append(delta.deletes, &it->second.deletes);
  return Status::OK();
}

Result<std::vector<QueryService::DependentView>>
QueryService::DependentViewsOf(const ServiceSnapshot& state,
                               const std::vector<std::string>& tables) {
  // Walk the registry downstream from `tables`: the views reading them,
  // the views reading those, and so on.
  std::vector<std::string> pending = tables;
  std::set<std::string> reached;
  std::vector<DependentView> dependents;
  while (!pending.empty()) {
    std::string name = std::move(pending.back());
    pending.pop_back();
    if (!reached.insert(name).second) continue;
    const std::vector<std::string>& readers = state.views->ReadersOf(name);
    pending.insert(pending.end(), readers.begin(), readers.end());
    // Only stored (materialized) views need write-path maintenance; virtual
    // views are recomputed on every read anyway. A view `tables` names is
    // the target of a REFRESH, which materializes a virtual one.
    bool named = std::find(tables.begin(), tables.end(), name) != tables.end();
    if (!state.views->Has(name) || (!state.db.Has(name) && !named)) continue;
    std::vector<std::string> closure;
    CollectDependencies({name}, *state.views, &closure);
    dependents.push_back({std::move(name), std::move(closure)});
  }
  return UpstreamFirst(std::move(dependents));
}

Result<std::vector<QueryService::DependentView>> QueryService::UpstreamFirst(
    std::vector<DependentView> views) {
  // Each pass places, in order, every view whose closure names no view
  // still waiting. The registry rejects cyclic definitions, so every pass
  // places at least one.
  std::vector<DependentView> ordered;
  while (!views.empty()) {
    const size_t waiting = views.size();
    for (auto it = views.begin(); it != views.end();) {
      bool blocked = std::any_of(
          it->closure.begin(), it->closure.end(), [&](const std::string& n) {
            return n != it->name &&
                   std::any_of(views.begin(), views.end(),
                               [&](const DependentView& v) {
                                 return v.name == n;
                               });
          });
      if (blocked) {
        ++it;
        continue;
      }
      ordered.push_back(std::move(*it));
      it = views.erase(it);
    }
    if (views.size() == waiting) {
      return Status::Internal("cyclic materialized-view dependencies");
    }
  }
  return ordered;
}

Result<size_t> QueryService::RecomputeViewInto(const std::string& name,
                                               ServiceSnapshot* state) const {
  AQV_FAILPOINT("service.refresh");
  AQV_ASSIGN_OR_RETURN(const ViewDef* def, state->views->Get(name));
  Evaluator fresh(&state->db, state->views.get(), eval_options_);
  AQV_ASSIGN_OR_RETURN(Table contents, fresh.Execute(def->query));
  size_t rows = contents.num_rows();
  state->db.Put(name, std::move(contents));
  return rows;
}

Result<QueryService::WriteApplied> QueryService::ApplyWrite(
    WriteRequest request, QueryStats* stats) {
  using Kind = WriteRequest::Kind;
  const bool load = request.kind == Kind::kLoad;
  const bool refresh = request.kind == Kind::kRefresh;
  // The base tables written: a COMMIT's are every table its batch names, a
  // REFRESH's none.
  std::vector<std::string> written;
  if (request.kind == Kind::kCommit) {
    std::set<std::string> names;
    for (const auto& [name, rows] : request.delta.inserts) names.insert(name);
    for (const auto& [name, rows] : request.delta.deletes) names.insert(name);
    written.assign(names.begin(), names.end());
  } else if (!refresh) {
    written.push_back(request.table);
  }
  WriteApplied applied;
  applied.tables = written.size();
  if (written.empty() && !refresh) return applied;  // an empty batch
  TraceSpan span("write_apply");
  // Backpressure gate BEFORE any latch: a writer stalled here holds
  // nothing, so the auto-checkpointer's exclusive ddl acquisition (which
  // shrinks the WAL and releases the stall) can always proceed. A REFRESH
  // logs nothing, so it has nothing to wait out.
  if (!refresh) AQV_RETURN_NOT_OK(WaitOutBackpressure());
  // The shared ddl latch fixes the catalog and registry until Publish, so
  // every head loaded below carries the ones the request was bound on.
  LatchManager::Guard guard = latches_.StatementShared();
  ServiceSnapshotPtr base = Head();
  // A REFRESH recomputes its view and every stored view over it.
  AQV_ASSIGN_OR_RETURN(
      std::vector<DependentView> dependents,
      DependentViewsOf(*base, refresh ? std::vector<std::string>{request.table}
                                      : written));
  // Writing into a quarantined table would mingle new rows with salvaged
  // (possibly empty) contents; refuse until a LOAD replaces it wholesale.
  // LOAD is that repair, so its own target is exempt. A REFRESH would
  // publish a recompute from salvaged contents as fresh, so the named
  // view's closure must be clean; it comes first, since every other
  // dependent reads it. A stored view over it that reads a quarantined
  // table elsewhere is left out: its reads fail until that repair.
  if (refresh) {
    AQV_RETURN_NOT_OK(CheckTableQuarantine(dependents.front().closure));
    std::erase_if(dependents, [&](const DependentView& d) {
      return !CheckTableQuarantine(d.closure).ok();
    });
  } else if (!load) {
    AQV_RETURN_NOT_OK(CheckTableQuarantine(written));
  }

  // Latch footprint: written tables and every dependent view exclusive,
  // the dependents' closures (the tables a recompute reads) shared.
  std::vector<std::string> writes = written;
  std::vector<std::string> reads;
  for (const DependentView& d : dependents) {
    writes.push_back(d.name);
    reads.insert(reads.end(), d.closure.begin(), d.closure.end());
  }
  std::sort(writes.begin(), writes.end());
  writes.erase(std::unique(writes.begin(), writes.end()), writes.end());
  std::sort(reads.begin(), reads.end());
  reads.erase(std::unique(reads.begin(), reads.end()), reads.end());
  Clock::time_point latch_start = Clock::now();
  latches_.AcquireWrite(&guard, writes, reads);
  if (stats != nullptr) stats->latch_micros += ElapsedMicros(latch_start);
  if (span.active()) {
    span.AddAttr("tables", static_cast<uint64_t>(written.size()));
    span.AddAttr("dependents", static_cast<uint64_t>(dependents.size()));
  }

  // Materialize now, under the acquired write latches, against the head
  // loaded after them: a DELETE/UPDATE predicate runs against the exact
  // table version the delta will be applied to, so the matched multiset
  // cannot race a concurrent writer, and a LOAD deletes exactly the rows
  // it replaces.
  base = Head();
  applied.epoch = base->epoch;
  AQV_ASSIGN_OR_RETURN(Delta delta, MaterializeWrite(&request, base->db));
  applied.rows_inserted = CountRows(delta.inserts);
  applied.rows_deleted = CountRows(delta.deletes);

  // A delete the base (plus this batch's inserts) cannot cover is rejected
  // before anything is staged, logged or published. A LOAD's deletes are
  // the current rows by construction.
  if (!load) AQV_RETURN_NOT_OK(ValidateDeleteContainment(delta, base->db));
  // Oversized rows are refused HERE, when they arrive, not deferred to the
  // next CHECKPOINT. Checked on the materialized delta so UPDATE-transformed
  // rows are covered too.
  if (storage_ != nullptr) {
    for (const auto& [name, rows] : delta.inserts) {
      AQV_RETURN_NOT_OK(CheckRowSizes(rows));
    }
  }
  // A predicate that matched nothing changes nothing: skip the COW copy,
  // the maintenance sweep, the WAL record and the publication entirely.
  if (delta.empty() && !refresh) return applied;

  // One copy-on-write version per written table, sharing every chunk the
  // batch does not touch; a fault injected here must leave the head
  // untouched.
  AQV_FAILPOINT("table.cow_copy");
  ServiceSnapshot staging = *base;
  if (load) {
    staging.db.Put(request.table, *std::move(request.replacement));
  } else {
    AQV_RETURN_NOT_OK(ApplyDeltaToBase(delta, &staging.db));
  }

  // Bring every dependent view up to date in the staging state: fold the
  // delta in where the maintainer supports the view's shape, recompute from
  // the staged bases otherwise. `base` still holds the pre-delta state the
  // maintainer differences against. A LOAD replaces its table wholesale
  // and a REFRESH is a recompute by definition, so neither folds.
  Clock::time_point maintain_start = Clock::now();
  std::vector<std::string> recomputed;
  for (const DependentView& d : dependents) {
    AQV_ASSIGN_OR_RETURN(const ViewDef* def, base->views->Get(d.name));
    bool maintained = false;
    // The delta names base tables only, so the maintainer's telescoped
    // differencing sees no change for a view reading another view — those
    // must be recomputed, not silently no-opped.
    bool base_only = std::none_of(
        def->query.from.begin(), def->query.from.end(),
        [&](const TableRef& ref) { return base->views->Has(ref.table); });
    if (!load && !refresh && base_only) {
      Result<IncrementalMaintainer> maintainer =
          IncrementalMaintainer::Create(*def, eval_options_);
      if (maintainer.ok()) {
        AQV_ASSIGN_OR_RETURN(const Table* current, base->db.Get(d.name));
        Result<Table> fresh =
            maintainer->ApplyToCopy(delta, base->db, *current);
        if (fresh.ok()) {
          staging.db.Put(d.name, *std::move(fresh));
          maintained = true;
        } else if (fresh.status().code() != StatusCode::kUnsupported) {
          return fresh.status();
        }
      } else if (maintainer.status().code() != StatusCode::kUnsupported) {
        return maintainer.status();
      }
    }
    if (maintained) {
      ++applied.views_maintained;
    } else {
      AQV_RETURN_NOT_OK(RecomputeViewInto(d.name, &staging).status());
      ++applied.views_recomputed;
      recomputed.push_back(d.name);
    }
  }
  uint64_t maintain_micros = ElapsedMicros(maintain_start);
  if (!dependents.empty()) {
    maintain_latency_.Record(maintain_micros);
  }
  if (stats != nullptr) stats->maintain_micros += maintain_micros;

  // The durability point: the delta is WAL-appended and fsynced BEFORE the
  // in-memory publication, so a commit the client saw acknowledged always
  // survives a crash. A commit that fails here publishes nothing — and if
  // the record still reached disk intact (a crash after the write, before
  // the ack), recovery replays it atomically; the client simply never
  // learned its fate, which is the usual commit-ack contract. A REFRESH
  // changes no base row, so it logs nothing.
  if (storage_ != nullptr && !delta.empty()) {
    AQV_RETURN_NOT_OK(storage_->LogCommit(delta, stats));
  }

  // Publish base tables and views at a single epoch: snapshot readers see
  // either the whole write or none of it.
  std::vector<std::pair<std::string, TablePtr>> publish;
  publish.reserve(writes.size());
  for (const std::string& name : writes) {
    publish.emplace_back(name, staging.db.GetShared(name));
  }
  applied.epoch = Publish(
      [&](ServiceSnapshot* next) { next->db.PutAll(std::move(publish)); });
  // A recomputed view's contents are as fresh as a REFRESH would make them,
  // so it gets the same clean quarantine slate.
  for (const std::string& name : recomputed) ClearViewFailures(name);
  rows_inserted_.Increment(applied.rows_inserted);
  rows_deleted_.Increment(applied.rows_deleted);
  views_maintained_.Increment(applied.views_maintained);
  views_recomputed_.Increment(applied.views_recomputed);
  // A full replacement is the quarantine repair path: the table's contents
  // no longer owe anything to the corrupt durable state.
  if (load) {
    applied.repaired = ClearTableQuarantine(request.table, *base->views);
  }
  return applied;
}

Result<StatementResult> QueryService::HandleCheckpoint() {
  if (storage_ == nullptr) {
    return Status::InvalidArgument(
        "no durable storage attached (set ServiceOptions::storage_path, or "
        "start aqvsh with --db FILE)");
  }
  // The engine needs a quiesced database: the captured commit sequence must
  // match the captured data, so no commit may land between them. The
  // exclusive ddl latch waits out every in-flight statement.
  LatchManager::Guard guard = latches_.Ddl();
  AQV_RETURN_NOT_OK(CheckpointIfDurable(*Head()));
  StatementResult out;
  out.message = "checkpoint complete at commit seq " +
                std::to_string(storage_->checkpoint_seq()) + " (" +
                std::to_string(Head()->db.TableNames().size()) +
                " stored table(s), wal truncated)\n";
  return out;
}

Result<StatementResult> QueryService::HandleScrub() {
  if (storage_ == nullptr) {
    return Status::InvalidArgument(
        "no durable storage attached (set ServiceOptions::storage_path, or "
        "start aqvsh with --db FILE)");
  }
  AQV_ASSIGN_OR_RETURN(StorageEngine::ScrubReport report, storage_->Scrub());
  StatementResult out;
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "scrub: %llu page(s) checked, %llu corrupt (%llu directory); wal %llu "
      "record(s)%s\n",
      static_cast<unsigned long long>(report.pages_checked),
      static_cast<unsigned long long>(report.pages_corrupt),
      static_cast<unsigned long long>(report.directory_pages_corrupt),
      static_cast<unsigned long long>(report.wal_records),
      report.wal_mid_log_corruption ? " + MID-LOG CORRUPTION" : "");
  out.message = buf;
  for (const auto& [name, t] : report.tables) {
    out.message += "  " + name + ": " + std::to_string(t.pages) +
                   " page(s), " + std::to_string(t.corrupt_pages) +
                   " corrupt" + (t.corrupt_pages > 0 ? "  <-- damaged" : "") +
                   "\n";
  }
  if (report.pages_corrupt > 0) {
    // The checkpoint pages are a copy of the live in-memory tables: the
    // next CHECKPOINT rewrites every data page fresh, healing the rot.
    out.message +=
        "corrupt checkpoint page(s) found; run CHECKPOINT to rewrite them "
        "from the live copy\n";
  }
  if (report.wal_mid_log_corruption) {
    out.message += "wal: " + std::to_string(report.wal_suspect_records) +
                   " acknowledged record(s) stranded beyond a mid-log tear; "
                   "a restart will quarantine every table the log names\n";
  }
  std::vector<std::pair<std::string, std::string>> quarantined =
      QuarantinedTables();
  for (const auto& [name, reason] : quarantined) {
    out.message += "  quarantined: " + name + " — " + reason + "\n";
  }
  if (report.pages_corrupt == 0 && report.directory_pages_corrupt == 0 &&
      !report.wal_mid_log_corruption && quarantined.empty()) {
    out.message += "all clean\n";
  }
  return out;
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
      storage_auto_checkpoints_->Increment();
    } else {
      RecordError(taken);
    }
    lock.lock();
  }
}

Status QueryService::WaitOutBackpressure() {
  if (storage_ == nullptr || !storage_->OverBackpressureCap()) {
    return Status::OK();
  }
  storage_backpressure_waits_->Increment();
  checkpoint_cv_.notify_all();  // kick the checkpointer now, not next poll
  Clock::time_point deadline =
      Clock::now() +
      std::chrono::microseconds(options_.storage_backpressure_wait_micros);
  while (storage_->OverBackpressureCap()) {
    if (Clock::now() >= deadline) {
      return Status::Unavailable(
          "SERVER_BUSY: wal is " + std::to_string(storage_->wal_bytes()) +
          " bytes, over the " +
          std::to_string(storage_->options().backpressure_wal_bytes) +
          "-byte backpressure cap and the checkpointer has not caught up; "
          "retry later");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Status::OK();
}

Status QueryService::CheckTableQuarantine(
    const std::vector<std::string>& names) const {
  std::lock_guard<std::mutex> lock(quarantine_mutex_);
  if (table_quarantine_.empty()) return Status::OK();
  for (const std::string& name : names) {
    auto it = table_quarantine_.find(name);
    if (it != table_quarantine_.end()) {
      return Status::Unavailable(
          "'" + it->first + "' is quarantined: " + it->second +
          "; repair it with LOAD " + it->first + " FROM '<file.csv>'");
    }
  }
  return Status::OK();
}

bool QueryService::ClearTableQuarantine(const std::string& name,
                                        const ViewRegistry& views) {
  std::lock_guard<std::mutex> lock(quarantine_mutex_);
  if (table_quarantine_.erase(name) == 0) return false;
  // Mirror every lift into the engine's persisted map, or the next
  // checkpoint would re-serialize the stale entry and restart would
  // resurrect a quarantine the repair already cleared.
  if (storage_ != nullptr) storage_->ClearQuarantinedTable(name);
  // Dependent views re-enter service once no quarantined base table remains
  // in their closure — the LOAD that lifted `name` just recomputed them.
  for (auto it = table_quarantine_.begin(); it != table_quarantine_.end();) {
    if (!views.Has(it->first) ||
        !QuarantinedBaseOf(it->first, views, table_quarantine_).empty()) {
      ++it;
    } else {
      if (storage_ != nullptr) storage_->ClearQuarantinedTable(it->first);
      it = table_quarantine_.erase(it);
    }
  }
  return true;
}

std::vector<std::pair<std::string, std::string>>
QueryService::QuarantinedTables() const {
  std::lock_guard<std::mutex> lock(quarantine_mutex_);
  return std::vector<std::pair<std::string, std::string>>(
      table_quarantine_.begin(), table_quarantine_.end());
}

}  // namespace aqv
