#ifndef AQV_EXEC_EXPRESSION_H_
#define AQV_EXEC_EXPRESSION_H_

#include <map>
#include <string>

#include "base/value.h"
#include "ir/query.h"

namespace aqv {

/// SQL comparison of two runtime values. NULL on either side yields false
/// (the WHERE/HAVING dialect here has no IS NULL). INT64 against INT64
/// compares exactly, numerics involving a DOUBLE as doubles (Value::Compare);
/// strings lexicographically;
/// cross-family comparisons are false except `<>`, which is true.
bool EvalCmp(const Value& lhs, CmpOp op, const Value& rhs);

/// Maps each column name to its position in a row layout.
using ColumnIndexMap = std::map<std::string, int>;

/// Evaluates a scalar predicate (no aggregate operands) against `row` using
/// `layout` to resolve columns. Unresolvable columns evaluate to NULL.
bool EvalScalarPredicate(const Predicate& pred, const Row& row,
                         const ColumnIndexMap& layout);

}  // namespace aqv

#endif  // AQV_EXEC_EXPRESSION_H_
