#ifndef AQV_EXEC_EVALUATOR_H_
#define AQV_EXEC_EVALUATOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/exec_context.h"
#include "base/result.h"
#include "exec/planner.h"
#include "exec/table.h"
#include "ir/query.h"
#include "ir/views.h"

namespace aqv {

/// Counters for benches and plan-quality assertions.
struct EvalStats {
  size_t views_materialized = 0;
  /// Operators executed by the vectorized engine, cumulative across
  /// Execute calls (scans/filters and aggregations count separately). Lets
  /// tests assert the columnar path actually engaged rather than silently
  /// falling back.
  size_t vectorized_ops = 0;
};

/// Executes single-block queries against a Database under multiset
/// semantics. A FROM entry naming a table stored in the Database scans the
/// stored contents (this is how *materialized* views are served); a FROM
/// entry naming a registered but unmaterialized view is computed on demand
/// from its definition and cached for the lifetime of the Evaluator.
///
/// Each block is bound (inputs resolved, views materialized), planned by
/// PlanQuery against the bound cardinalities, and executed by walking that
/// PlanNode tree; every node records its actuals as it runs.
class Evaluator {
 public:
  explicit Evaluator(const Database* db, const ViewRegistry* views = nullptr,
                     EvalOptions options = EvalOptions{})
      : db_(db), views_(views), options_(options) {}

  /// Evaluates `query`; output columns are query.OutputColumns().
  Result<Table> Execute(const Query& query);

  /// Materializes the named view from its registered definition (through the
  /// cache). Use the result with Database::Put to simulate a maintained
  /// materialized view.
  Result<Table> MaterializeView(const std::string& name);

  const EvalStats& stats() const { return stats_; }
  void ClearViewCache() {
    view_cache_.clear();
    pinned_.clear();
  }

  /// The plan the last top-level Execute ran, annotated with per-node
  /// actuals (engine that ran, rows in/out, exclusive wall time) — the data
  /// behind EXPLAIN ANALYZE. Null if that Execute failed. Views computed
  /// on demand are not expanded: each appears as the Scan that reads it.
  const PlanNode* executed_plan() const { return executed_.get(); }

  /// Attaches per-statement resource governance (deadline, row budget,
  /// cancel) to subsequent Execute calls, including nested view
  /// materialization. When a limit trips mid-operator, Execute discards the
  /// partial output and returns the context's status. `ctx` must outlive
  /// the Evaluator or be detached with set_context(nullptr).
  void set_context(ExecContext* ctx) { ctx_ = ctx; }

 private:
  static constexpr int kMaxViewDepth = 16;

  Result<Table> ExecuteInternal(const Query& query, int depth);
  Result<const Table*> InputTable(const std::string& name, int depth);
  /// Runs `node` (children first), recording its actuals; returns its
  /// output rows.
  Result<std::vector<Row>> Run(PlanNode& node);

  const Database* db_;
  const ViewRegistry* views_;
  EvalOptions options_;
  std::map<std::string, Table> view_cache_;
  /// Stored-table versions read so far: pinning the shared_ptr makes every
  /// read of one name repeatable within this Evaluator and keeps the rows
  /// alive even if a writer replaces the stored version mid-execution.
  std::map<std::string, TablePtr> pinned_;
  EvalStats stats_;
  std::unique_ptr<PlanNode> executed_;
  ExecContext* ctx_ = nullptr;
};

}  // namespace aqv

#endif  // AQV_EXEC_EVALUATOR_H_
