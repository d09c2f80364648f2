#ifndef AQV_EXEC_EXPLAIN_PLAN_H_
#define AQV_EXEC_EXPLAIN_PLAN_H_

#include <string>

#include "base/result.h"
#include "exec/planner.h"
#include "exec/table.h"
#include "ir/query.h"
#include "ir/views.h"

namespace aqv {

/// Renders a plan bottom-up, one operator per line: filtered scans with
/// their pushed-down predicates, each join step with its keys and the scan
/// it joins, filters, and the aggregation / HAVING / projection stages.
/// Stored inputs show their cardinality ("[N rows]"), unmaterialized views
/// "[virtual]", vectorized operators a " [vec]" suffix. Each line ends with
/// the node's estimated rows; with `analyzed` it also shows the actuals the
/// Evaluator recorded (rows in -> out, exclusive wall time), and the engine
/// tag reflects the engine that actually ran.
std::string RenderPlan(const PlanNode& root, bool analyzed);

/// Renders the plan the Evaluator would run for `query` over `db`: each
/// FROM entry is bound to its stored table, or — for a registered view with
/// no stored contents — planned at kUnknownInputRows (the cost model's price
/// for it) with no engine choice. Nothing is executed or materialized.
Result<std::string> ExplainPlan(const Query& query, const Database& db,
                                const ViewRegistry* views = nullptr,
                                const EvalOptions& options = EvalOptions{});

}  // namespace aqv

#endif  // AQV_EXEC_EXPLAIN_PLAN_H_
