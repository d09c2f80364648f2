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

  CostModel model;
  out.cost_original = model.Estimate(flat, *db_);

  // Candidate rewritings over the materialized views, minus quarantined
  // ones (repeated failures; the service clears quarantine on REFRESH).
  const std::vector<std::string>& quarantined = options_.quarantined_views;
  std::vector<std::string> materialized;
  for (const std::string& name : views_->ViewNames()) {
    if (!db_->Has(name)) continue;
    if (std::find(quarantined.begin(), quarantined.end(), name) !=
        quarantined.end()) {
      continue;
    }
    materialized.push_back(name);
  }
  std::vector<Query> candidates;
  {
    TraceSpan enumerate_span("enumerate_rewritings");
    if (!materialized.empty()) {
      Rewriter rewriter(views_, catalog_, options_);
      AQV_ASSIGN_OR_RETURN(
          candidates,
          rewriter.EnumerateAllRewritings(flat, materialized,
                                          /*max_results=*/64, ctx,
                                          &out.failed_views));
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

  TraceSpan cost_span("cost");
  int chosen_index = -1;
  out.chosen = ChooseCheapest(flat, candidates, *db_, model, &chosen_index);
  out.used_materialized_view = chosen_index >= 0;
  out.cost_chosen = model.Estimate(out.chosen, *db_);
  cost_span.End();

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

  CollectQueryDependencies(flat, *views_, &out.dependencies);
  CollectQueryDependencies(out.chosen, *views_, &out.dependencies);
  std::sort(out.dependencies.begin(), out.dependencies.end());
  out.dependencies.erase(
      std::unique(out.dependencies.begin(), out.dependencies.end()),
      out.dependencies.end());
  return out;
}

Result<Table> Optimizer::Run(const Query& query) const {
  AQV_ASSIGN_OR_RETURN(OptimizeResult plan, Optimize(query));
  Evaluator eval(db_, views_);
  return eval.Execute(plan.chosen);
}

}  // namespace aqv
