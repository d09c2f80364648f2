#include "base/value.h"

#include <cmath>
#include <cstdio>

namespace aqv {

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return "INT64";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
  }
  return "unknown";
}

double Value::AsDouble() const {
  if (type() == ValueType::kInt64) return static_cast<double>(int64());
  return dbl();
}

namespace {

// Orders types into comparison families: NULL(0) < numeric(1) < string(2).
int Family(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return 0;
    case ValueType::kInt64:
    case ValueType::kDouble:
      return 1;
    case ValueType::kString:
      return 2;
  }
  return 3;
}

int CompareDoubles(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

}  // namespace

int Value::Compare(const Value& other) const {
  int fa = Family(type());
  int fb = Family(other.type());
  if (fa != fb) return fa < fb ? -1 : 1;
  switch (type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kInt64:
    case ValueType::kDouble: {
      // Compare numerically; exact int64/int64 path avoids double rounding.
      if (type() == ValueType::kInt64 && other.type() == ValueType::kInt64) {
        int64_t a = int64(), b = other.int64();
        if (a != b) return a < b ? -1 : 1;
        return 0;
      }
      // Numerically equal INT64 and DOUBLE values compare equal, matching
      // SQL equality, hashing, grouping and DISTINCT.
      return CompareDoubles(AsDouble(), other.AsDouble());
    }
    case ValueType::kString:
      return str().compare(other.str());
  }
  return 0;
}

bool Value::SqlEquals(const Value& other) const {
  if (is_null() || other.is_null()) return false;
  if (type() == ValueType::kInt64 && other.type() == ValueType::kInt64) {
    return int64() == other.int64();
  }
  if (is_numeric() && other.is_numeric()) return AsDouble() == other.AsDouble();
  if (type() != other.type()) return false;
  return Compare(other) == 0;
}

size_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case ValueType::kInt64:
      return std::hash<int64_t>{}(int64());
    case ValueType::kDouble: {
      // Hash doubles holding integral values like the equal int64 would, so
      // grouping keys that compare equal hash equal: every integral double
      // in [-2^63, 2^63) converts to an int64 exactly.
      double d = dbl();
      if (std::nearbyint(d) == d && d >= -0x1p63 && d < 0x1p63) {
        return std::hash<int64_t>{}(static_cast<int64_t>(d));
      }
      return std::hash<double>{}(d);
    }
    case ValueType::kString:
      return std::hash<std::string>{}(str());
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return std::to_string(int64());
    case ValueType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", dbl());
      return buf;
    }
    case ValueType::kString:
      return "'" + str() + "'";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

int CompareRows(const Row& a, const Row& b) {
  size_t n = a.size() < b.size() ? a.size() : b.size();
  for (size_t i = 0; i < n; ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) return c;
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return 0;
}

size_t RowHash::operator()(const Row& row) const {
  size_t h = 0x345678;
  for (const Value& v : row) {
    h = h * 1000003 ^ v.Hash();
  }
  return h;
}

bool RowEq::operator()(const Row& a, const Row& b) const {
  return CompareRows(a, b) == 0;
}

}  // namespace aqv
