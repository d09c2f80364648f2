#ifndef AQV_EXEC_PLANNER_H_
#define AQV_EXEC_PLANNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/expression.h"
#include "exec/operators.h"
#include "exec/table.h"
#include "exec/vectorized.h"
#include "ir/query.h"

namespace aqv {

/// WHERE conjuncts of a query sorted into the roles the join planner needs.
struct PredicateClassification {
  /// Conjuncts referencing columns of exactly one FROM entry (or constants
  /// only); index parallels Query::from. Pushed below the join.
  std::vector<std::vector<Predicate>> single_table;

  /// An equality between columns of two different FROM entries.
  struct JoinEdge {
    int left_table;
    int right_table;
    std::string left_column;
    std::string right_column;
  };
  std::vector<JoinEdge> equi_joins;

  /// Everything else (non-equality conjuncts spanning tables). Applied once
  /// all referenced tables are joined.
  std::vector<Predicate> multi_table;
};

/// Classifies query.where against query.from.
PredicateClassification ClassifyPredicates(const Query& query);

/// Greedy left-deep join order: start from the smallest input, repeatedly
/// join the smallest input connected to the bound set by an equi-join edge,
/// falling back to the smallest unconnected input (Cartesian step) when the
/// join graph is disconnected. `sizes[i]` is the (filtered) cardinality of
/// FROM entry i. Returns a permutation of 0..n-1.
std::vector<int> GreedyJoinOrder(
    const std::vector<size_t>& sizes,
    const std::vector<PredicateClassification::JoinEdge>& edges);

/// Planning knobs. The default plan pushes single-table filters below the
/// joins and uses greedy left-deep hash equi-joins; the reference plan is a
/// filtered Cartesian product, used by tests as an executable specification
/// of multiset semantics.
struct EvalOptions {
  bool use_hash_join = true;
  /// Batch-at-a-time columnar execution (exec/vectorized.h) for scans,
  /// filters and hash-group aggregation, over the typed columns of the
  /// table's chunks. The planner sets each Scan's and Aggregate's
  /// engine; every other node, and anything touching a mixed-type column,
  /// runs on the row engine. Results are identical either way (enforced by
  /// tests/vectorized_differential_test.cc). Only effective with
  /// use_hash_join: the Cartesian reference plan stays pure row-at-a-time,
  /// as it is the executable specification tests compare against.
  bool vectorized = true;
};

/// Estimation constants (textbook independence model): the fraction of rows
/// each single-table conjunct keeps, the factor each equi-join edge applies
/// to a join's cardinality, and the size assumed for an input of unknown
/// size (an unmaterialized view), large enough that any stored one wins.
constexpr double kFilterSelectivity = 0.3;
constexpr double kJoinSelectivity = 0.01;
constexpr double kUnknownInputRows = 1e12;

enum class Engine : uint8_t { kRow, kVectorized };

/// One operator of a physical plan. Plans are left-deep: a join's children
/// are {left input, Scan of the joined FROM entry}; Filter, Aggregate,
/// Having and Project have one child; a Scan has none.
struct PlanNode {
  enum class Kind : uint8_t {
    kScan, kHashJoin, kCartesian, kFilter, kAggregate, kHaving, kProject
  };
  Kind kind = Kind::kScan;
  std::vector<std::unique_ptr<PlanNode>> children;
  /// Estimated output rows, and the engine chosen for a Scan or Aggregate.
  double est_rows = 0;
  Engine engine = Engine::kRow;

  /// kScan: the FROM entry's table, its bound contents (null when planned
  /// from a cardinality alone, e.g. an unmaterialized view in EXPLAIN), and
  /// the `input_rows` it was planned with.
  std::string table;
  const Table* source = nullptr;
  double input_rows = 0;
  /// Scan pushed-down filters, Filter conjuncts, Having conditions, and the
  /// name -> ordinal layout of the rows they are evaluated against (a
  /// Having reads each aggregate column under its term's name, "SUM(D1)";
  /// a Scan's is only built when it is bound and filtered). A HashJoin's
  /// are its equi-join edges, with their (left input, right scan) ordinals.
  std::vector<Predicate> preds;
  ColumnIndexMap layout;
  std::vector<std::pair<int, int>> key_ordinals;
  /// kAggregate: grouping columns and aggregate terms, and their ordinals
  /// in the input row; it outputs the groups, then one column per term.
  std::vector<std::string> groups;
  std::vector<Operand> aggs;
  std::vector<int> group_ordinals;
  std::vector<AggSpec> specs;
  /// kProject: the select list; per item the input ordinal, plus the
  /// denominator ordinal of a ratio item (-1 otherwise).
  std::vector<SelectItem> select;
  bool distinct = false;
  std::vector<std::pair<int, int>> project_ordinals;

  /// Kernels compiled at plan time against the columns of the bound
  /// input's chunks: a vectorized Scan's filter (one per chunk, in
  /// chunk order; none for a chunk its zone maps rule out, which the scan
  /// skips), and an Aggregate that folds its Scan child's selection
  /// vectors chunk by chunk (no row gather).
  std::shared_ptr<const ChunkFilters> filter;
  std::shared_ptr<const VectorizedAggregation> columnar_agg;

  /// What the Evaluator observed running this node. `engine` differs from
  /// the planned one only where a kernel refused at run time (post-join
  /// aggregation over too few or mixed-type rows). A Scan also counts the
  /// chunks of its table it read; a vectorized filtered Scan skips those
  /// its zone maps rule out.
  struct Actual {
    Engine engine = Engine::kRow;
    size_t rows_in = 0;
    size_t rows_out = 0;
    uint64_t micros = 0;
    size_t chunks_scanned = 0;
    size_t chunks_total = 0;
  } actual;
};

/// One FROM entry for the planner: the cardinality to plan with and, when
/// bound, the contents (engines are only chosen against a table).
struct PlanInput {
  double rows = 0;
  const Table* table = nullptr;
};

/// Builds the physical plan of a valid `query` whose FROM entries are bound
/// to `inputs` (parallel to query.from): filtered scans in greedy join order
/// (GreedyJoinOrder over estimated filtered sizes), each multi-table
/// conjunct as a Filter right after the join that binds its last table,
/// then Aggregate / Having / Project. With use_hash_join=false it is the
/// reference plan instead: unfiltered scans in FROM order joined by
/// Cartesian steps, then Filter(where), all on the row engine.
std::unique_ptr<PlanNode> PlanQuery(const Query& query,
                                    const std::vector<PlanInput>& inputs,
                                    const EvalOptions& options);

/// The subtree of PlanQuery's plan below its Aggregate or Project: the join
/// phase the cost model prices.
std::unique_ptr<PlanNode> PlanJoinPhase(const Query& query,
                                        const std::vector<PlanInput>& inputs,
                                        const EvalOptions& options);

}  // namespace aqv

#endif  // AQV_EXEC_PLANNER_H_
