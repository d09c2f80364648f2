#ifndef AQV_EXEC_OPERATORS_H_
#define AQV_EXEC_OPERATORS_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "base/exec_context.h"
#include "base/result.h"
#include "base/status.h"
#include "base/value.h"
#include "exec/agg_state.h"
#include "exec/column_batch.h"
#include "exec/expression.h"
#include "ir/query.h"

namespace aqv {

/// The error of a SUM over INT64 values whose exact total leaves the
/// INT64 range. Every engine that sums INT64 values (row, vectorized,
/// maintained) adds into 128 bits and fails with this rather than wrap.
Status SumOutOfRange();

/// The row engine's aggregate over Values: an AggState plus what only
/// Values have, a string MIN/MAX extreme without a dictionary (the
/// cross-family rule, that the first family wins, holds for it too). NULL
/// inputs are ignored per SQL. An accumulator that saw no (non-null) input
/// finishes to NULL, except COUNT, which finishes to 0. The view maintainer
/// uses it too: a delta folded with Add/Retract, merged into the stored
/// value (Seeded).
class Aggregator {
 public:
  explicit Aggregator(AggFn fn) : fn_(fn) {}

  /// An accumulator holding `stored`, a finished value of `fn`.
  static Aggregator Seeded(AggFn fn, const Value& stored);

  void Add(const Value& v);
  /// Undoes an Add of `v`; SUM and COUNT only.
  void Retract(const Value& v);
  /// Folds in `later`, an accumulator of the same function over inputs that
  /// come after this one's.
  void Merge(const Aggregator& later);

  /// The value, or nullopt when an INT64 SUM's exact total does not fit
  /// INT64: the caller fails the statement with SumOutOfRange().
  std::optional<Value> Finish() const;

 private:
  AggFn fn_;
  AggState state_;
  Value text_;  // the extreme while state_.ext == AggState::kStr
};

/// One aggregate computation over an input row layout: AGG(column), or
/// AGG(column * multiplier) when `multiplier >= 0` (scaled arguments from
/// the Section 4 multiplicity recovery).
struct AggSpec {
  AggFn fn;
  int column;
  int multiplier = -1;
};

/// Numeric product of two values; NULL if either is NULL or non-numeric.
/// INT64 * INT64 stays INT64 and is checked: a product outside the INT64
/// range is ProductOutOfRange(), never a wrapped value.
Result<Value> NumericProduct(const Value& a, const Value& b);

/// The error of an INT64 product (a scaled aggregate argument) that leaves
/// the INT64 range.
Status ProductOutOfRange();

/// All operators accept an optional ExecContext. When given, they charge
/// one row per input (or output, for generating operators like the cross
/// product) row processed and stop early once a limit trips; the caller
/// must then check ctx->ok() and discard the partial output. With ctx ==
/// nullptr (or an unlimited context) behaviour is unchanged.

/// Rows satisfying the conjunction `preds` (each scalar), resolved against
/// `layout`.
std::vector<Row> FilterRows(const std::vector<Row>& rows,
                            const std::vector<Predicate>& preds,
                            const ColumnIndexMap& layout,
                            ExecContext* ctx = nullptr);

/// FilterRows over the rows of `table`: each row is built to be tested,
/// and the rows that pass are appended to `*out`.
void FilterRows(const ColumnarTable& table,
                const std::vector<Predicate>& preds,
                const ColumnIndexMap& layout, ExecContext* ctx,
                std::vector<Row>* out);

/// Hash equi-join of `left` and `right` on the given (left ordinal, right
/// ordinal) key pairs. Output rows are left ++ right. Rows with a NULL key
/// never match (SQL equi-join). Key equality is SQL equality (numeric across
/// INT64/DOUBLE).
std::vector<Row> HashJoin(const std::vector<Row>& left,
                          const std::vector<Row>& right,
                          const std::vector<std::pair<int, int>>& keys,
                          ExecContext* ctx = nullptr);

/// Full Cartesian product; output rows are left ++ right. Charges one row
/// per *output* row, so an exploding product trips the budget while it is
/// being produced, not after.
std::vector<Row> CartesianProduct(const std::vector<Row>& left,
                                  const std::vector<Row>& right,
                                  ExecContext* ctx = nullptr);

/// Hash grouping: partitions `rows` by the values at `group_cols` and
/// computes `aggs` within each group. Output rows are
/// [group values..., aggregate values...] in spec order. With empty
/// `group_cols` there is exactly one global group, emitted even on empty
/// input (COUNT(...) over an empty table is 0). An INT64 SUM that leaves
/// its range fails `ctx` with SumOutOfRange(), and a scaled INT64 argument
/// whose product leaves it with ProductOutOfRange() (with no context, that
/// sum finishes to NULL and that product counts as NULL).
std::vector<Row> GroupAggregate(const std::vector<Row>& rows,
                                const std::vector<int>& group_cols,
                                const std::vector<AggSpec>& aggs,
                                ExecContext* ctx = nullptr);

/// Removes duplicate rows (SELECT DISTINCT).
std::vector<Row> DistinctRows(const std::vector<Row>& rows,
                              ExecContext* ctx = nullptr);

/// Projects each row to the given ordinals.
std::vector<Row> ProjectRows(const std::vector<Row>& rows,
                             const std::vector<int>& ordinals,
                             ExecContext* ctx = nullptr);

}  // namespace aqv

#endif  // AQV_EXEC_OPERATORS_H_
