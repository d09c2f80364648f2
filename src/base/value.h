#ifndef AQV_BASE_VALUE_H_
#define AQV_BASE_VALUE_H_

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <variant>
#include <vector>

namespace aqv {

/// Runtime type of a Value.
enum class ValueType {
  kNull = 0,
  kInt64,
  kDouble,
  kString,
};

const char* ValueTypeToString(ValueType type);

/// A dynamically typed SQL value: NULL, 64-bit integer, double, or string.
///
/// Comparison semantics follow the needs of this library rather than full
/// three-valued SQL logic: the paper's dialect has no NULL-producing
/// operations, so NULL appears only if a user loads it. We define a *total
/// order* over values (NULL < numerics < strings; numerics compared
/// numerically across kInt64/kDouble) so values can be sorted, grouped and
/// used as hash-map keys deterministically. Predicate evaluation over NULL
/// operands yields false (see exec/expression.h).
class Value {
 public:
  /// Constructs a NULL value.
  Value() : rep_(std::monostate{}) {}
  static Value Null() { return Value(); }
  static Value Int64(int64_t v) { return Value(Rep(v)); }
  static Value Double(double v) { return Value(Rep(v)); }
  static Value String(std::string v) { return Value(Rep(std::move(v))); }

  Value(const Value&) = default;
  Value& operator=(const Value&) = default;
  Value(Value&&) = default;
  Value& operator=(Value&&) = default;

  ValueType type() const { return static_cast<ValueType>(rep_.index()); }
  bool is_null() const { return type() == ValueType::kNull; }
  bool is_numeric() const {
    return type() == ValueType::kInt64 || type() == ValueType::kDouble;
  }

  /// Accessors; calling the wrong one is a programming error.
  int64_t int64() const { return std::get<int64_t>(rep_); }
  double dbl() const { return std::get<double>(rep_); }
  const std::string& str() const { return std::get<std::string>(rep_); }

  /// Numeric value as double; valid only for numeric types.
  double AsDouble() const;

  /// Total-order comparison: returns <0, 0, >0. NULL sorts first; all
  /// numerics sort together by numeric value (INT64 against INT64 exactly,
  /// anything involving a DOUBLE as doubles, so 1 and 1.0 tie); strings
  /// last.
  int Compare(const Value& other) const;

  /// Value equality under the total order (NULL == NULL here).
  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// SQL-comparison equality: false if either side is NULL; INT64 against
  /// INT64 compares exactly, other numeric pairs by double value.
  bool SqlEquals(const Value& other) const;

  size_t Hash() const;

  /// Renders the value as an SQL literal ("NULL", 42, 3.5, 'abc').
  std::string ToString() const;

 private:
  using Rep = std::variant<std::monostate, int64_t, double, std::string>;
  explicit Value(Rep rep) : rep_(std::move(rep)) {}
  Rep rep_;
};

std::ostream& operator<<(std::ostream& os, const Value& v);

/// A row of values. Tables and query results are multisets of Rows.
using Row = std::vector<Value>;

/// Lexicographic total-order comparison of rows of equal arity.
int CompareRows(const Row& a, const Row& b);

struct RowHash {
  size_t operator()(const Row& row) const;
};
struct RowEq {
  bool operator()(const Row& a, const Row& b) const;
};

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace aqv

#endif  // AQV_BASE_VALUE_H_
