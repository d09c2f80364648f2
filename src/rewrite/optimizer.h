#ifndef AQV_REWRITE_OPTIMIZER_H_
#define AQV_REWRITE_OPTIMIZER_H_

#include <string>
#include <vector>

#include "base/result.h"
#include "catalog/catalog.h"
#include "exec/evaluator.h"
#include "exec/table.h"
#include "ir/query.h"
#include "ir/views.h"
#include "rewrite/cost.h"
#include "rewrite/rewriter.h"

namespace aqv {

/// What the optimizer decided about one query besides the plan itself.
/// A cached plan (PlanCache::Entry) and its durable image (PlanImage)
/// carry the same record, so each is built from the other by one
/// assignment.
struct PlanRecord {
  bool used_materialized_view = false;
  int rewritings_considered = 0;
  double cost_original = 0;
  double cost_chosen = 0;
  /// Every base table and materialized view the flattened original or the
  /// chosen plan reads, sorted and deduplicated. A cached plan is only valid
  /// while none of these change, so this is exactly the invalidation set the
  /// service's rewrite-plan cache keys its hooks on.
  std::vector<std::string> dependencies;
};

/// The plan the optimizer settled on, with its record.
struct OptimizeResult : PlanRecord {
  Query chosen;
  int views_flattened = 0;  // Section 7 pre-pass merges
  /// Views skipped during enumeration because their rewriting attempt
  /// failed with a real error (graceful degradation; the plan is still
  /// correct, just potentially not the cheapest). The service charges these
  /// toward quarantine.
  std::vector<std::string> failed_views;
};

/// Appends `seeds` and every name transitively reachable from them through
/// view definitions (a view contributes its own name and every table its
/// defining query reads). This is the dependency extraction behind both the
/// plan cache's invalidation sets and the service's latch footprints.
void CollectDependencies(const std::vector<std::string>& seeds,
                         const ViewRegistry& views,
                         std::vector<std::string>* out);

/// CollectDependencies seeded with the FROM-clause names of `query`.
void CollectQueryDependencies(const Query& query, const ViewRegistry& views,
                              std::vector<std::string>* out);

/// End-to-end facade tying the pieces together the way Section 6's
/// cost-based integration sketch suggests:
///
///   1. flatten virtual (non-materialized, conjunctive) view references
///      into a single block (Section 7);
///   2. enumerate all rewritings over the views whose contents are stored
///      in the database (Sections 3-5);
///   3. price original + candidates with the cost model and keep the
///      cheapest;
///   4. (Run) execute the winner.
///
/// A view counts as *materialized* when `db->Has(view name)`; other
/// registered views are virtual and are only used by the flattening step.
class Optimizer {
 public:
  Optimizer(const Database* db, const ViewRegistry* views,
            const Catalog* catalog = nullptr,
            RewriteOptions options = RewriteOptions{})
      : db_(db), views_(views), catalog_(catalog), options_(options) {}

  /// Picks the cheapest equivalent plan for `query`. When `ctx` carries a
  /// deadline, candidate enumeration cuts off gracefully at the limit
  /// (fewer candidates, never an error); views listed in
  /// RewriteOptions::quarantined_views are excluded from candidacy.
  Result<OptimizeResult> Optimize(const Query& query,
                                  ExecContext* ctx = nullptr) const;

  /// Optimize + execute.
  Result<Table> Run(const Query& query) const;

 private:
  const Database* db_;
  const ViewRegistry* views_;
  const Catalog* catalog_;
  RewriteOptions options_;
};

}  // namespace aqv

#endif  // AQV_REWRITE_OPTIMIZER_H_
