#include "rewrite/optimizer.h"

#include <algorithm>
#include <cstdio>

#include "base/failpoint.h"
#include "base/trace.h"
#include "rewrite/flatten.h"

namespace aqv {

void CollectDependencies(const std::vector<std::string>& seeds,
                         const ViewRegistry& views,
                         std::vector<std::string>* out) {
  std::vector<std::string> pending = seeds;
  while (!pending.empty()) {
    std::string name = std::move(pending.back());
    pending.pop_back();
    if (std::find(out->begin(), out->end(), name) != out->end()) continue;
    out->push_back(name);
    // Has() first: Get() on a base table builds a NotFound status.
    if (!views.Has(name)) continue;
    for (const TableRef& ref : (*views.Get(name))->query.from) {
      pending.push_back(ref.table);
    }
  }
}

void CollectQueryDependencies(const Query& query, const ViewRegistry& views,
                              std::vector<std::string>* out) {
  std::vector<std::string> seeds;
  seeds.reserve(query.from.size());
  for (const TableRef& ref : query.from) seeds.push_back(ref.table);
  CollectDependencies(seeds, views, out);
}

PlanChoice ChoosePlan(const PlanCandidates& candidates, const Database& db) {
  CostModel model;
  PlanChoice choice;
  choice.cost_original = model.Estimate(candidates.flat, db);
  choice.cost_chosen = choice.cost_original;
  for (size_t i = 0; i < candidates.rewritings.size(); ++i) {
    double cost = model.Estimate(candidates.rewritings[i], db);
    if (cost < choice.cost_chosen) {
      choice.index = static_cast<int>(i);
      choice.cost_chosen = cost;
    }
  }
  return choice;
}

size_t CountStoredViews(const ViewRegistry& views, const Database& db) {
  size_t n = 0;
  for (const std::string& name : views.ViewNames()) n += db.Has(name);
  return n;
}

Result<OptimizeResult> Optimizer::Optimize(const Query& query,
                                           ExecContext* ctx) const {
  AQV_FAILPOINT("optimizer.optimize");
  TraceSpan optimize_span("optimize");
  OptimizeResult out;

  // Section 7 pre-pass: merge virtual view references; keep materialized
  // ones (scanning them is the point of this library).
  TraceSpan flatten_span("flatten");
  AQV_ASSIGN_OR_RETURN(
      Query flat,
      FlattenViews(
          query, *views_,
          [this](const std::string& name) { return !db_->Has(name); },
          &out.views_flattened));
  if (flatten_span.active()) {
    flatten_span.AddAttr("views_flattened", out.views_flattened);
  }
  flatten_span.End();

  // Candidate rewritings over the materialized views, minus quarantined
  // ones (repeated failures; the service clears quarantine on REFRESH).
  const std::vector<std::string>& quarantined = options_.quarantined_views;
  std::vector<std::string> materialized;
  size_t stored_views = 0;
  for (const std::string& name : views_->ViewNames()) {
    if (!db_->Has(name)) continue;
    ++stored_views;
    if (std::find(quarantined.begin(), quarantined.end(), name) !=
        quarantined.end()) {
      continue;
    }
    materialized.push_back(name);
  }
  std::vector<Query> candidates;
  bool truncated = false;
  {
    TraceSpan enumerate_span("enumerate_rewritings");
    if (!materialized.empty()) {
      Rewriter rewriter(views_, catalog_, options_);
      AQV_ASSIGN_OR_RETURN(
          candidates,
          rewriter.EnumerateAllRewritings(flat, materialized,
                                          /*max_results=*/64, ctx,
                                          &out.failed_views));
      // The enumeration stops at the deadline without an error.
      truncated = ctx != nullptr && !ctx->status().ok();
    }
    if (enumerate_span.active()) {
      enumerate_span.AddAttr("materialized_views",
                             static_cast<int>(materialized.size()));
      enumerate_span.AddAttr("candidates", static_cast<int>(candidates.size()));
      if (!out.failed_views.empty()) {
        enumerate_span.AddAttr("failed_views",
                               static_cast<int>(out.failed_views.size()));
      }
    }
  }
  out.rewritings_considered = static_cast<int>(candidates.size());

  CollectQueryDependencies(flat, *views_, &out.dependencies);
  for (const Query& candidate : candidates) {
    CollectQueryDependencies(candidate, *views_, &out.dependencies);
  }
  std::sort(out.dependencies.begin(), out.dependencies.end());
  out.dependencies.erase(
      std::unique(out.dependencies.begin(), out.dependencies.end()),
      out.dependencies.end());

  auto set = std::make_shared<PlanCandidates>();
  set->flat = std::move(flat);
  set->rewritings = std::move(candidates);
  set->stored_views = stored_views;
  TraceSpan cost_span("cost");
  PlanChoice choice = ChoosePlan(*set, *db_);
  cost_span.End();
  out.chosen = ChosenQuery(*set, choice);
  out.chosen_index = choice.index;
  out.used_materialized_view = choice.index >= 0;
  out.cost_original = choice.cost_original;
  out.cost_chosen = choice.cost_chosen;
  if (!truncated && out.failed_views.empty()) out.candidates = std::move(set);

  if (optimize_span.active()) {
    char buf[48];
    optimize_span.AddAttr("candidates", out.rewritings_considered);
    optimize_span.AddAttr("used_materialized_view",
                          out.used_materialized_view ? "1" : "0");
    std::snprintf(buf, sizeof(buf), "%.0f", out.cost_original);
    optimize_span.AddAttr("cost_original", buf);
    std::snprintf(buf, sizeof(buf), "%.0f", out.cost_chosen);
    optimize_span.AddAttr("cost_chosen", buf);
  }
  return out;
}

Result<Table> Optimizer::Run(const Query& query) const {
  AQV_ASSIGN_OR_RETURN(OptimizeResult plan, Optimize(query));
  Evaluator eval(db_, views_);
  return eval.Execute(plan.chosen);
}

}  // namespace aqv
