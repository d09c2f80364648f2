#ifndef AQV_MAINTAIN_INCREMENTAL_H_
#define AQV_MAINTAIN_INCREMENTAL_H_

#include <map>
#include <string>
#include <vector>

#include "base/result.h"
#include "exec/evaluator.h"
#include "exec/table.h"
#include "ir/query.h"

namespace aqv {

/// A batch of base-table changes.
struct Delta {
  std::map<std::string, std::vector<Row>> inserts;
  std::map<std::string, std::vector<Row>> deletes;

  bool empty() const { return inserts.empty() && deletes.empty(); }
  bool has_deletes() const;
};

/// Incremental maintenance of a materialized view under base-table change
/// batches — the machinery the paper's warehousing motivation presumes
/// (Section 1; cf. its citations [BLT86, GMS93]). Without it, every
/// rewriting win in this library would be paid back at refresh time.
///
/// The maintainer implements the counting algorithm specialized to the
/// single-block dialect:
///
///  - the view's join is differenced by telescoping over its FROM entries
///    (Δ(R ⋈ S) = ΔR ⋈ S_old plus R_new ⋈ ΔS, generalized to k tables),
///    with single-table and join predicates applied to the delta terms;
///  - conjunctive views remove and append row occurrences (multiset
///    exact) through Table::RemoveRows and Table::AddRows;
///  - grouped views update SUM and COUNT outputs: one pass over the
///    group-key columns locates each touched group's row, which is removed
///    by position (Table::RemoveAt) and appended merged; group liveness
///    is tracked through a COUNT output, so *deletes require the view to
///    select a COUNT column* (otherwise Unsupported — recompute instead);
///  - MIN/MAX outputs absorb inserts; a delete that touches the current
///    extremum of a group returns Unsupported (the new extremum is not
///    derivable from the summary; recompute);
///  - AVG outputs and views with HAVING or ratio items are Unsupported
///    (HAVING-filtered groups would need the suppressed groups retained).
///
/// The view's next version is an edit of its current one: it shares every
/// chunk the delta leaves alone, and a touched group moves to the tail
/// (row order carries no meaning; a view is a multiset).
///
/// "Unsupported" is a safe refusal: the caller falls back to full
/// recomputation (Evaluator::MaterializeView).
class IncrementalMaintainer {
 public:
  /// Checks the view shape and captures what Apply needs. Fails with
  /// Unsupported for shapes listed above (HAVING, ratio items, AVG).
  /// `eval_options` configures the evaluator the maintainer runs delta
  /// terms through — the service passes its own, so batched delta
  /// application uses the same (vectorized or row) engine as queries.
  static Result<IncrementalMaintainer> Create(
      const ViewDef& view, EvalOptions eval_options = EvalOptions{});

  /// The view's next version: `current` (its contents before `delta`) with
  /// `delta` folded in. `before` must hold every base table at its
  /// pre-delta state. `current` is never changed, and the result shares
  /// every chunk of `current` the delta does not touch. Returns Unsupported
  /// when the change cannot be folded in (see above).
  Result<Table> Apply(const Delta& delta, const Database& before,
                      const Table& current) const;

  const ViewDef& view() const { return view_; }

 private:
  IncrementalMaintainer(ViewDef view, EvalOptions eval_options)
      : view_(std::move(view)), eval_options_(eval_options) {}

  // Signed core rows: the view's FROM ⋈ WHERE output restricted to delta
  // terms, each with weight +1 (insert) or -1 (delete).
  struct SignedRow {
    Row row;  // layout: concatenation of the view's FROM columns
    int weight;
  };
  Result<std::vector<SignedRow>> DeltaCoreRows(const Delta& delta,
                                               const Database& before) const;

  ViewDef view_;
  EvalOptions eval_options_;
};

/// Convenience: applies `delta` to the base tables stored in `db` (the
/// "after" state the next maintenance round starts from).
Status ApplyDeltaToBase(const Delta& delta, Database* db);

}  // namespace aqv

#endif  // AQV_MAINTAIN_INCREMENTAL_H_
