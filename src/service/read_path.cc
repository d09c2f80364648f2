#include "service/query_service.h"

#include <algorithm>

#include "base/trace.h"
#include "exec/explain_plan.h"
#include "ir/fingerprint.h"
#include "ir/printer.h"
#include "service/service_util.h"

namespace aqv {

void QueryService::ChargeViewFailure(const std::string& view) {
  if (options_.view_quarantine_threshold == 0) return;
  std::lock_guard<std::mutex> lock(quarantine_mutex_);
  ViewFailureRecord& rec = view_failures_[view];
  ++rec.failures;
  if (rec.failures >= options_.view_quarantine_threshold &&
      rec.quarantined_at == 0) {
    // Stamp the cooldown clock when the threshold is first crossed.
    rec.quarantined_at = statements_.value();
    quarantine_generation_.fetch_add(1);
    if (options_.quarantine_cooldown_statements > 0) {
      uint64_t due =
          rec.quarantined_at + options_.quarantine_cooldown_statements;
      if (due < quarantine_sweep_due_.load()) quarantine_sweep_due_ = due;
    }
  }
}

std::vector<std::string> QueryService::QuarantinedViews(
    uint64_t* generation) const {
  std::vector<std::string> out;
  if (options_.view_quarantine_threshold == 0) {
    if (generation != nullptr) *generation = quarantine_generation_.load();
    return out;
  }
  const uint64_t now = statements_.value();
  std::lock_guard<std::mutex> lock(quarantine_mutex_);
  uint64_t due = UINT64_MAX;
  for (auto it = view_failures_.begin(); it != view_failures_.end();) {
    const ViewFailureRecord& rec = it->second;
    if (rec.failures >= options_.view_quarantine_threshold) {
      // Cooldown sweep: enough statements have passed since quarantine, so
      // the view re-enters candidacy with a clean slate (fresh failures can
      // re-quarantine it).
      if (options_.quarantine_cooldown_statements > 0) {
        uint64_t ends =
            rec.quarantined_at + options_.quarantine_cooldown_statements;
        if (now >= ends) {
          it = view_failures_.erase(it);
          quarantine_generation_.fetch_add(1);
          continue;
        }
        due = std::min(due, ends);
      }
      out.push_back(it->first);
    }
    ++it;
  }
  quarantine_sweep_due_ = due;
  if (generation != nullptr) *generation = quarantine_generation_.load();
  std::sort(out.begin(), out.end());
  return out;
}

void QueryService::ClearViewFailures(const std::string& view) {
  std::lock_guard<std::mutex> lock(quarantine_mutex_);
  auto it = view_failures_.find(view);
  if (it == view_failures_.end()) return;
  if (options_.view_quarantine_threshold > 0 &&
      it->second.failures >= options_.view_quarantine_threshold) {
    quarantine_generation_.fetch_add(1);
  }
  view_failures_.erase(it);
}

uint64_t QueryService::QuarantineGeneration() const {
  if (statements_.value() >= quarantine_sweep_due_.load()) {
    uint64_t generation = 0;
    QuarantinedViews(&generation);
    return generation;
  }
  return quarantine_generation_.load();
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

ServiceSnapshotPtr QueryService::ThreadSnapshot() const {
  std::lock_guard<std::mutex> lock(session_mutex_);
  auto it = sessions_.find(std::this_thread::get_id());
  return it == sessions_.end() ? nullptr : it->second.pin;
}

Result<StatementResult> QueryService::HandleBeginSnapshot(const Statement&) {
  std::lock_guard<std::mutex> lock(session_mutex_);
  auto [it, opened] = sessions_.try_emplace(std::this_thread::get_id());
  if (!opened) {
    return Status::InvalidArgument(
        it->second.batch ? "a write batch is open on this thread; COMMIT or "
                           "ROLLBACK it before BEGIN SNAPSHOT"
                         : "a snapshot is already open on this thread; "
                           "COMMIT it first");
  }
  it->second.pin = PinSnapshot();
  const ServiceSnapshot& snap = *it->second.pin;
  return StatementResult{"snapshot pinned at epoch " +
                         std::to_string(snap.epoch) + " (" +
                         std::to_string(snap.db.TableNames().size()) +
                         " tables)\n"};
}

Result<StatementResult> QueryService::HandleCommit(const Statement& s) {
  if (s.cls == kWrite) return HandleWrite(s);
  std::lock_guard<std::mutex> lock(session_mutex_);
  auto it = sessions_.find(std::this_thread::get_id());
  if (it == sessions_.end()) {
    return Status::InvalidArgument(
        "nothing to commit on this thread (BEGIN SNAPSHOT or BEGIN WRITE "
        "first)");
  }
  uint64_t epoch = it->second.pin->epoch;
  sessions_.erase(it);
  return StatementResult{"snapshot at epoch " + std::to_string(epoch) +
                         " released\n"};
}

namespace {

/// The EXPLAIN header shared by EXPLAIN and EXPLAIN ANALYZE; the costs are
/// those of the statement's own state.
std::string ExplainHeader(const Query& query, const PlanCache::Entry& entry,
                          const StatementResult& out) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "cost:      %.0f -> %.0f (%d rewriting(s) considered%s)\n",
                entry.cost_original, entry.cost_chosen,
                entry.rewritings_considered,
                !out.cache_hit  ? ""
                : out.recosted ? ", plan cache hit, re-costed"
                                : ", plan cache hit");
  return "original:  " + ToSql(query) + "\n" +
         "chosen:    " + ToSql(*entry.plan) + "\n" + buf;
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

Result<PlanCache::StatementPtr> QueryService::ParseThroughCache(
    std::string_view text, const ServiceSnapshot& state) {
  const bool caching = plan_cache_.capacity() > 0;
  std::string text_key;
  if (caching) {
    text_key = PlanCache::StatementKey(text, state.catalog.get(),
                                       state.views.get());
    PlanCache::StatementPtr cached = plan_cache_.LookupStatement(text_key);
    // The key names the schema objects by address; the stamp rules out an
    // address a freed object left to a newer one.
    if (cached != nullptr && SameSchema(*cached, state)) {
      statement_cache_hits_.Increment();
      return cached;
    }
  }
  AQV_ASSIGN_OR_RETURN(Query query, ParseQuery(text, state.catalog.get()));
  auto parsed = std::make_shared<PlanCache::Statement>();
  if (caching) parsed->key = CanonicalCacheKey(query);
  parsed->fingerprint = QueryFingerprint(query);
  CollectQueryDependencies(query, *state.views, &parsed->dependencies);
  parsed->query = std::move(query);
  parsed->catalog = state.catalog;
  parsed->views = state.views;
  if (caching) plan_cache_.InsertStatement(text_key, parsed);
  return PlanCache::StatementPtr(std::move(parsed));
}

Result<PlanCache::EntryPtr> QueryService::PlanThroughCache(
    const PlanCache::Statement& stmt, const ServiceSnapshot& state,
    bool at_head, ExecContext* ctx, StatementResult* out) {
  if (plan_cache_.capacity() > 0) {
    TraceSpan lookup("plan_cache.lookup");
    PlanCache::EntryPtr cached = plan_cache_.Lookup(stmt.key);
    EntryFit fit = cached != nullptr
                       ? FitOf(*cached, state, QuarantineGeneration())
                       : EntryFit::kStale;
    if (lookup.active()) {
      lookup.AddAttr("hit", fit == EntryFit::kStale ? "0" : "1");
    }
    if (fit == EntryFit::kCurrent) {
      out->cache_hit = true;
      cache_hits_.Increment();
      return cached;
    }
    if (fit == EntryFit::kRecost) {
      // Same schema and quarantine set, other data: the candidates are
      // still exactly the admissible rewritings, so only their prices
      // change. Re-price them on this state and re-stamp.
      auto entry = std::make_shared<PlanCache::Entry>(*cached);
      const PlanCandidates& candidates = *entry->candidates;
      PlanChoice choice = ChoosePlan(candidates, state.db);
      entry->plan = std::shared_ptr<const Query>(
          entry->candidates, &ChosenQuery(candidates, choice));
      entry->used_materialized_view = choice.index >= 0;
      entry->cost_original = choice.cost_original;
      entry->cost_chosen = choice.cost_chosen;
      StampState(entry.get(), state);
      if (lookup.active()) lookup.AddAttr("recost", "1");
      out->cache_hit = true;
      out->recosted = true;
      cache_hits_.Increment();
      cache_recosts_.Increment();
      if (entry->plan != cached->plan) cache_invalidated_.Increment();
      if (at_head) plan_cache_.Insert(stmt.key, entry);
      return PlanCache::EntryPtr(std::move(entry));
    }
    // Unusable on this state: a miss, replaced by the insert below.
    if (cached != nullptr) cache_invalidated_.Increment();
  }
  Clock::time_point start = Clock::now();
  RewriteOptions rewrite = options_.rewrite;
  uint64_t generation = 0;
  rewrite.quarantined_views = QuarantinedViews(&generation);
  Optimizer optimizer(&state.db, state.views.get(), state.catalog.get(),
                      rewrite);
  Result<OptimizeResult> optimized = optimizer.Optimize(stmt.query, ctx);
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
    out->degraded = true;
    entry->plan = std::make_shared<const Query>(stmt.query);
    return PlanCache::EntryPtr(std::move(entry));
  }
  OptimizeResult plan = *std::move(optimized);
  // Views skipped for per-view rewrite failures count toward quarantine.
  for (const std::string& view : plan.failed_views) ChargeViewFailure(view);
  if (plan.candidates != nullptr) {
    // Share the chosen query with the candidate set instead of copying it.
    entry->plan = std::shared_ptr<const Query>(
        plan.candidates,
        &ChosenQuery(*plan.candidates, PlanChoice{plan.chosen_index}));
  } else {
    entry->plan = std::make_shared<const Query>(std::move(plan.chosen));
  }
  entry->candidates = std::move(plan.candidates);
  static_cast<PlanRecord&>(*entry) = std::move(plan);
  entry->quarantine_generation = generation;
  StampState(entry.get(), state);
  plan_cache_.Insert(stmt.key, entry);
  return PlanCache::EntryPtr(std::move(entry));
}

Result<StatementResult> QueryService::Read(std::string_view stmt,
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
  ServiceSnapshotPtr owned = pinned != nullptr ? nullptr : ThreadSnapshot();
  const bool snapshot_read = pinned != nullptr || owned != nullptr;
  if (!snapshot_read) owned = Head();  // a live read pins the head
  const ServiceSnapshot& state = pinned != nullptr ? *pinned : *owned;
  TraceSpan span("read");
  if (span.active()) span.AddAttr("epoch", state.epoch);
  // A repeated text skips the parser; its probe counts as parse time.
  Clock::time_point parse_start = Clock::now();
  AQV_ASSIGN_OR_RETURN(PlanCache::StatementPtr parsed,
                       ParseThroughCache(stmt, state));
  qs.parse_micros = ElapsedMicros(parse_start);
  const Query& query = parsed->query;
  // Corruption quarantine (current, not as of the pin): a query whose
  // closure touches a quarantined table gets a clean error instead of
  // salvaged-empty rows.
  AQV_RETURN_NOT_OK(CheckTableQuarantine(parsed->dependencies));
  StatementResult out;
  Clock::time_point plan_start = Clock::now();
  AQV_ASSIGN_OR_RETURN(
      PlanCache::EntryPtr entry,
      PlanThroughCache(*parsed, state, !snapshot_read, &ctx, &out));
  // Attributed optimize time includes the cache probe, so a hit is cheap
  // but not free in the breakdown.
  qs.optimize_micros = ElapsedMicros(plan_start);
  out.used_materialized_view = entry->used_materialized_view;
  if (kind != ReadKind::kSelect) {
    out.message = ExplainHeader(query, *entry, out);
  }
  if (kind == ReadKind::kExplain) {
    AQV_ASSIGN_OR_RETURN(
        std::string tree,
        ExplainPlan(*entry->plan, state.db, state.views.get(), eval_options_));
    out.message += tree;
    return out;
  }
  if (kind == ReadKind::kSelect) {
    if (entry->used_materialized_view) {
      out.message = "-- rewritten to use a materialized view:\n--   " +
                    ToSql(*entry->plan) + "\n";
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
    Result<Table> result = execute(*entry->plan);
    if (!result.ok()) {
      // A real failure of a rewritten or cached plan degrades: drop the
      // cached entry, charge its views toward quarantine and retry once on
      // the unrewritten query under the same deadline.
      Status s = result.status();
      bool plan_differs = entry->used_materialized_view || out.cache_hit;
      if (!plan_differs || !ShouldDegrade(s)) return s;
      if (plan_cache_.capacity() > 0) {
        cache_invalidated_.Increment(plan_cache_.Erase(parsed->key));
      }
      for (const TableRef& ref : entry->plan->from) {
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
  qs.fingerprint = parsed->fingerprint;
  qs.epoch = state.epoch;
  qs.cache_hit = out.cache_hit;
  qs.degraded = out.degraded;
  qs.total_micros = ElapsedMicros(stmt_start);
  if (kind == ReadKind::kExplainAnalyze) {
    out.message += analyzed;
    out.message +=
        "result: " + std::to_string(out.table->num_rows()) + " row(s)\n";
    out.message += "attribution: " + RenderAttribution(qs) + "\n" +
                   "provenance:  " + RenderProvenance(qs) + "\n";
    out.table.reset();
  } else {
    MaybeRecordSlowStatement(stmt, qs);
  }
  RecordStatementProfile(stmt, qs);
  return out;
}

}  // namespace aqv
