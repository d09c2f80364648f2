#include "service/query_service.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "base/failpoint.h"
#include "base/strings.h"
#include "base/trace.h"
#include "exec/csv.h"
#include "ir/printer.h"
#include "parser/lexer.h"
#include "rewrite/explain.h"
#include "service/service_util.h"

namespace aqv {

std::vector<SlowQueryRecord> QueryService::SlowQueries() const {
  std::lock_guard<std::mutex> lock(slow_log_mutex_);
  return std::vector<SlowQueryRecord>(slow_log_.begin(), slow_log_.end());
}

void QueryService::MaybeRecordSlowStatement(std::string_view stmt,
                                            const QueryStats& qs) {
  if (options_.slow_query_micros == 0 ||
      qs.total_micros < options_.slow_query_micros) {
    return;
  }
  slow_queries_.Increment();
  std::lock_guard<std::mutex> lock(slow_log_mutex_);
  slow_log_.push_back(SlowQueryRecord{qs, std::string(stmt)});
  while (slow_log_.size() > options_.slow_query_log_capacity &&
         !slow_log_.empty()) {
    slow_log_.pop_front();
  }
}

void QueryService::RecordStatementProfile(std::string_view stmt,
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
    it->second.example = std::string(stmt.substr(0, 200));
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

Result<StatementResult> QueryService::HandleTrace(const Statement& s) {
  AQV_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(s.text));
  const Token& verb = tokens[1];  // the token list ends with kEnd
  Tracer& tracer = Tracer::Global();
  if (verb.IsKeyword("ON")) {
    tracer.Enable();
    return StatementResult{"tracing enabled\n"};
  }
  if (verb.IsKeyword("OFF")) {
    tracer.Disable();
    return StatementResult{"tracing disabled\n"};
  }
  if (verb.IsKeyword("CLEAR")) {
    tracer.Clear();
    return StatementResult{"trace buffer cleared\n"};
  }
  if (!verb.IsKeyword("DUMP")) {
    return Status::InvalidArgument(
        "usage: TRACE ON|OFF|CLEAR|DUMP ['file.json']");
  }
  if (tokens[2].kind != TokenKind::kString) {
    return StatementResult{tracer.ChromeTraceJson()};
  }
  size_t events = tracer.Snapshot().size();
  uint64_t dropped = tracer.dropped();
  std::ofstream file(tokens[2].text, std::ios::trunc);
  if (!file) {
    return Status::InvalidArgument("cannot open '" + tokens[2].text +
                                   "' for writing");
  }
  file << tracer.ChromeTraceJson();
  return StatementResult{
      std::to_string(events) + " event(s) written to " + tokens[2].text +
      " (" + std::to_string(dropped) +
      " dropped); load in chrome://tracing or ui.perfetto.dev\n"};
}

Result<StatementResult> QueryService::HandleFailpoint(const Statement& s) {
  // FAILPOINT LIST | FAILPOINT CLEAR | FAILPOINT <name> <spec>
  // (names and specs are case-sensitive; see base/failpoint.h for the
  // spec grammar).
  std::string_view rest = s.args;
  FailpointRegistry& registry = FailpointRegistry::Global();
  if (rest.empty() || EqualsIgnoreCase(rest, "LIST")) {
    std::vector<FailpointRegistry::Info> armed = registry.List();
    if (armed.empty()) return StatementResult{"no failpoints armed\n"};
    StatementResult out;
    for (const FailpointRegistry::Info& info : armed) {
      out.message += "  " + info.name + " " + info.spec + " (evaluated " +
                     std::to_string(info.evaluations) + ", fired " +
                     std::to_string(info.fires) + ")\n";
    }
    return out;
  }
  if (EqualsIgnoreCase(rest, "CLEAR")) {
    registry.ClearAll();
    return StatementResult{"all failpoints cleared\n"};
  }
  size_t space = rest.find_first_of(" \t");
  if (space == std::string::npos) {
    return Status::InvalidArgument(
        "usage: FAILPOINT <name> <spec> | FAILPOINT LIST | FAILPOINT CLEAR");
  }
  std::string name(rest.substr(0, space));
  std::string spec = TrimStatement(rest.substr(space));
  AQV_RETURN_NOT_OK(registry.Set(name, spec));
  return StatementResult{"failpoint " + name + " = " + spec + "\n"};
}

std::string RenderAttribution(const QueryStats& qs) {
  auto us = [](uint64_t micros) { return std::to_string(micros) + "us"; };
  uint64_t phases = qs.PhaseSumMicros();
  char share[24];
  std::snprintf(share, sizeof(share), " (%.1f%%)",
                qs.total_micros == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(phases) /
                          static_cast<double>(qs.total_micros));
  return "wall=" + us(qs.total_micros) + " phases=" + us(phases) + share +
         " parse=" + us(qs.parse_micros) + " latch=" + us(qs.latch_micros) +
         " rewrite=" + us(qs.optimize_micros) + " exec=" + us(qs.exec_micros) +
         " maintain=" + us(qs.maintain_micros) +
         " wal_commit=" + us(qs.wal_commit_micros) +
         " rows=" + std::to_string(qs.rows_processed) +
         " wal_bytes=" + std::to_string(qs.wal_bytes);
}

std::string RenderProvenance(const QueryStats& qs) {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "fp=%016llx epoch=%llu [cache %s]",
                static_cast<unsigned long long>(qs.fingerprint),
                static_cast<unsigned long long>(qs.epoch),
                qs.cache_hit ? "hit" : "miss");
  return buf;
}

Result<StatementResult> QueryService::HandleSlowLog(const Statement&) {
  std::vector<SlowQueryRecord> records = SlowQueries();
  if (records.empty()) return StatementResult{"slow query log is empty\n"};
  StatementResult out;
  for (const SlowQueryRecord& r : records) {
    out.message += RenderProvenance(r) + " " + RenderAttribution(r) + "  " +
                   r.statement + "\n";
  }
  return out;
}

namespace {

/// Optional trailing count in a statement tail ("", "5", "JSON 5").
/// Returns `fallback` when absent or unparsable.
size_t ParseCountArg(std::string_view rest, size_t fallback) {
  if (rest.empty()) return fallback;
  size_t pos = rest.find_last_of(" \t");
  std::string tail(pos == std::string::npos ? rest : rest.substr(pos + 1));
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

Result<StatementResult> QueryService::HandleStats(const Statement&) {
  return StatementResult{Stats().ToString()};
}

Result<StatementResult> QueryService::HandleStatsProm(const Statement&) {
  return StatementResult{StatsPromText()};
}

Result<StatementResult> QueryService::HandleStatsHistory(const Statement& s) {
  bool json = EqualsIgnoreCase(s.args.substr(0, 4), "JSON");
  size_t n = ParseCountArg(s.args, 0);
  if (json) return StatementResult{telemetry_->HistoryJson(n) + "\n"};
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
  StatementResult out{buf};
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

Result<StatementResult> QueryService::HandleMonitor(const Statement& s) {
  size_t n = ParseCountArg(s.args, 10);
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
  StatementResult out{buf};
  for (const auto& w : windows) out.message += RenderWindowLine(*w);
  return out;
}

Result<StatementResult> QueryService::HandleAttribution(const Statement& s) {
  size_t n = ParseCountArg(s.args, 20);
  if (n == 0) n = 20;
  std::vector<FingerprintProfile> profiles = FingerprintProfiles();
  uint64_t overflow;
  {
    std::lock_guard<std::mutex> lock(profile_mutex_);
    overflow = profile_overflow_;
  }
  StatementResult out{"attribution: " + std::to_string(profiles.size()) +
                      " fingerprint(s) tracked, " + std::to_string(overflow) +
                      " overflow\n"};
  if (profiles.size() > n) profiles.resize(n);
  char buf[80];
  for (const FingerprintProfile& p : profiles) {
    std::snprintf(buf, sizeof(buf), "fp=%016llx n=%llu cache_hits=%llu ",
                  static_cast<unsigned long long>(p.fingerprint),
                  static_cast<unsigned long long>(p.count),
                  static_cast<unsigned long long>(p.cache_hits));
    out.message += buf + RenderAttribution(p.totals) + "  " + p.example + "\n";
  }
  return out;
}

Result<StatementResult> QueryService::HandleWhy(const Statement& s) {
  std::string_view rest = s.args;
  size_t space = rest.find(' ');
  if (space == std::string::npos) {
    return Status::InvalidArgument("usage: WHY <view> SELECT ...");
  }
  // No row data is read: the pinned catalog and registry are all the
  // rewrite explanation needs.
  ServiceSnapshotPtr state = ReadState();
  AQV_ASSIGN_OR_RETURN(const ViewDef* view,
                       state->views->Get(std::string(rest.substr(0, space))));
  AQV_ASSIGN_OR_RETURN(Query query,
                       ParseQuery(TrimStatement(rest.substr(space + 1)),
                                  state->catalog.get()));
  AQV_ASSIGN_OR_RETURN(RewriteExplanation explanation,
                       ExplainRewrite(query, *view, options_.rewrite));
  return StatementResult{explanation.ToString()};
}

Result<StatementResult> QueryService::HandleSave(const Statement& s) {
  AQV_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(s.text));
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
  return StatementResult{std::to_string(contents.num_rows()) +
                         " row(s) written to " + tokens[3].text + "\n"};
}

Result<StatementResult> QueryService::HandleListTables(const Statement&) {
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

Result<StatementResult> QueryService::HandleListViews(const Statement&) {
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

namespace {

const char kNoStorage[] =
    "no durable storage attached (set ServiceOptions::storage_path, or start "
    "aqvsh with --db FILE)";

}  // namespace

Result<StatementResult> QueryService::HandleCheckpoint(const Statement&) {
  if (storage_ == nullptr) return Status::InvalidArgument(kNoStorage);
  // The engine needs a quiesced database: the captured commit sequence must
  // match the captured data, so no commit may land between them. The
  // exclusive ddl latch waits out every in-flight statement.
  LatchManager::Guard guard = latches_.Ddl();
  AQV_RETURN_NOT_OK(CheckpointIfDurable(*Head()));
  return StatementResult{"checkpoint complete at commit seq " +
                         std::to_string(storage_->checkpoint_seq()) + " (" +
                         std::to_string(Head()->db.TableNames().size()) +
                         " stored table(s), wal truncated)\n"};
}

Result<StatementResult> QueryService::HandleScrub(const Statement&) {
  if (storage_ == nullptr) return Status::InvalidArgument(kNoStorage);
  AQV_ASSIGN_OR_RETURN(StorageEngine::ScrubReport report, storage_->Scrub());
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
  StatementResult out{buf};
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

}  // namespace aqv
