#ifndef AQV_REWRITE_COST_H_
#define AQV_REWRITE_COST_H_

#include <string>
#include <vector>

#include "base/result.h"
#include "exec/planner.h"
#include "exec/table.h"
#include "ir/query.h"
#include "ir/views.h"
#include "rewrite/rewriter.h"

namespace aqv {

/// A deliberately simple cardinality-based cost model, enough to rank a
/// query against its rewritings (a summary view several orders of magnitude
/// smaller than its base table wins by scan size alone). It prices the join
/// phase of the plan the Evaluator runs (PlanJoinPhase, whose estimates use
/// exec/planner.h's constants): input cardinalities, plus each join step's
/// estimated output, plus the final estimate again for grouping/projection.
struct CostModel {
  /// Estimated cost of evaluating `query` against `db`. FROM entries must
  /// resolve to stored tables (materialized views included); an entry that
  /// does not resolve is priced at `unknown_input_rows`.
  double Estimate(const Query& query, const Database& db,
                  double unknown_input_rows = kUnknownInputRows) const;
};

}  // namespace aqv

#endif  // AQV_REWRITE_COST_H_
