#include "exec/expression.h"

namespace aqv {

bool EvalCmp(const Value& lhs, CmpOp op, const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return false;

  bool comparable = (lhs.is_numeric() && rhs.is_numeric()) ||
                    (lhs.type() == ValueType::kString &&
                     rhs.type() == ValueType::kString);
  if (!comparable) {
    // Cross-family: never equal, never ordered.
    return op == CmpOp::kNe;
  }

  // INT64 against INT64 compares exactly; a DOUBLE operand makes it a
  // double comparison (where NaN ties with everything).
  const int c = lhs.Compare(rhs);
  switch (op) {
    case CmpOp::kEq:
      return c == 0;
    case CmpOp::kNe:
      return c != 0;
    case CmpOp::kLt:
      return c < 0;
    case CmpOp::kLe:
      return c <= 0;
    case CmpOp::kGt:
      return c > 0;
    case CmpOp::kGe:
      return c >= 0;
  }
  return false;
}

namespace {

Value ResolveOperand(const Operand& o, const Row& row,
                     const ColumnIndexMap& layout) {
  if (o.is_constant()) return o.constant;
  auto it = layout.find(o.column);
  if (it == layout.end() || it->second < 0 ||
      it->second >= static_cast<int>(row.size())) {
    return Value::Null();
  }
  return row[it->second];
}

}  // namespace

bool EvalScalarPredicate(const Predicate& pred, const Row& row,
                         const ColumnIndexMap& layout) {
  Value lhs = ResolveOperand(pred.lhs, row, layout);
  Value rhs = ResolveOperand(pred.rhs, row, layout);
  return EvalCmp(lhs, pred.op, rhs);
}

}  // namespace aqv
