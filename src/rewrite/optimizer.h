#ifndef AQV_REWRITE_OPTIMIZER_H_
#define AQV_REWRITE_OPTIMIZER_H_

#include <memory>
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
  /// Every base table and materialized view the flattened original or any
  /// candidate rewriting reads, sorted and deduplicated. Every cost the
  /// choice compared is a function of these tables' sizes, so while none of
  /// them changes the cached choice stands as it was made.
  std::vector<std::string> dependencies;
};

/// What the C1-C4 search found for one query: the flattened original and
/// every rewriting the usability conditions admitted. Both depend only on
/// the query, the view definitions, the declared keys and which views are
/// stored, never on the rows, so one candidate set serves every data
/// version of its schema; only the choice among them is re-priced.
struct PlanCandidates {
  Query flat;
  std::vector<Query> rewritings;
  /// Registered views stored in the database when the search ran. Storing
  /// one more (a REFRESH of a virtual view) adds candidates the set lacks.
  size_t stored_views = 0;
};
using PlanCandidatesPtr = std::shared_ptr<const PlanCandidates>;

/// The cheapest of a candidate set on one database, and what it was
/// priced at.
struct PlanChoice {
  int index = -1;  // into PlanCandidates::rewritings; -1 = the original
  double cost_original = 0;
  double cost_chosen = 0;
};

/// Prices the flattened original and every rewriting of `candidates`
/// against `db` and keeps the cheapest (ties keep the earlier one), the
/// cost step of Optimize. Re-pricing a cached set after a write is this
/// call alone: no flattening and no rewrite search.
PlanChoice ChoosePlan(const PlanCandidates& candidates, const Database& db);

/// The query `choice` names in `candidates`.
inline const Query& ChosenQuery(const PlanCandidates& candidates,
                                const PlanChoice& choice) {
  return choice.index < 0 ? candidates.flat
                          : candidates.rewritings[choice.index];
}

/// Registered views of `views` that `db` stores.
size_t CountStoredViews(const ViewRegistry& views, const Database& db);

/// The plan the optimizer settled on, with its record.
struct OptimizeResult : PlanRecord {
  Query chosen;
  /// The complete candidate set `chosen` was picked from, shared so that
  /// a cache can keep and re-price it without copying a Query; null when
  /// the set is not complete: the deadline cut the search short or a
  /// view's rewriting failed (`failed_views`), so another run could find
  /// more.
  PlanCandidatesPtr candidates;
  int chosen_index = -1;  // PlanChoice::index of `chosen`
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
