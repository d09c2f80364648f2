#ifndef AQV_EXEC_AGG_STATE_H_
#define AQV_EXEC_AGG_STATE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "base/value.h"
#include "ir/query.h"

namespace aqv {

/// The accumulator of one SQL aggregate over one group, shared by the row
/// engine (through Aggregator), the batch engine (one per group and
/// aggregate, group-major) and the view maintainer (a delta folded with
/// Add/Retract, then merged into the stored value). Operations that depend
/// on the aggregate function take it; the state does not store it.
///
/// SUM and AVG add every input into `sum_d` in input order, and INT64
/// inputs also exactly into `sum_i`: a SUM is `sum_i` while every input was
/// INT64 and `sum_d` otherwise. MIN and MAX keep a typed extreme, ordered as
/// EvalCmp orders values (INT64 against an INT64 extreme exactly, anything
/// else as doubles) and strictly, so the first value wins a tie. A string
/// extreme is a code in the caller's dictionary; numbers and strings never
/// replace each other (the first family wins). NULLs are the caller's to
/// skip.
struct AggState {
  enum Extreme : uint8_t { kNone, kInt, kDbl, kStr };

  __int128 sum_i = 0;  // exact sum of the INT64 inputs
  double sum_d = 0.0;  // every input as a double, added in input order
  int64_t count = 0;   // inputs added minus inputs retracted
  union {
    int64_t ext_i = 0;  // ext == kInt
    double ext_d;       // ext == kDbl
    int32_t ext_code;   // ext == kStr
  };
  Extreme ext = kNone;
  bool any = false;     // some input was added or retracted
  bool all_int = true;  // every SUM/AVG input was INT64

  // SUM and AVG; Retract takes out an input that was added.
  void Add(int64_t v) { Fold(v, 1); }
  void Add(double v) { Fold(v, 1); }
  void Retract(int64_t v) { Fold(v, -1); }
  void Retract(double v) { Fold(v, -1); }

  // COUNT, which reads no value.
  void AddCount() { Count(1); }
  void RetractCount() { Count(-1); }

  // MIN (`is_min`) and MAX; there is no retraction.
  void AddExtreme(bool is_min, int64_t v) {
    if (ext == kInt   ? Beats(is_min, v, ext_i)
        : ext == kDbl ? Beats(is_min, static_cast<double>(v), ext_d)
                      : ext == kNone) {
      ext = kInt;
      ext_i = v;
    }
    any = true;
  }
  void AddExtreme(bool is_min, double v) {
    if (ext == kInt   ? Beats(is_min, v, static_cast<double>(ext_i))
        : ext == kDbl ? Beats(is_min, v, ext_d)
                      : ext == kNone) {
      ext = kDbl;
      ext_d = v;
    }
    any = true;
  }
  /// `code` indexes `dict`, as does the extreme already held.
  void AddExtreme(bool is_min, int32_t code,
                  const std::vector<std::string>& dict) {
    if (ext == kNone) {
      ext = kStr;
      ext_code = code;
    } else if (ext == kStr && code != ext_code) {
      const int cmp = dict[static_cast<size_t>(code)].compare(
          dict[static_cast<size_t>(ext_code)]);
      if (is_min ? cmp < 0 : cmp > 0) ext_code = code;
    }
    any = true;
  }

  /// Folds `later` (a state over inputs that come after this one's) in, as
  /// if its inputs had been added here: sums and counts add, and a numeric
  /// extreme of `later` replaces this one only if it beats it. A string
  /// extreme of `later` is left to the caller, who holds the strings.
  void Merge(AggFn fn, const AggState& later) {
    if (!later.any) return;
    sum_i += later.sum_i;
    sum_d += later.sum_d;
    count += later.count;
    all_int = all_int && later.all_int;
    const bool is_min = fn == AggFn::kMin;
    if (later.ext == kInt) AddExtreme(is_min, later.ext_i);
    if (later.ext == kDbl) AddExtreme(is_min, later.ext_d);
    any = true;
  }

  /// The aggregate's value, or nullopt when an INT64 SUM's exact total
  /// leaves the INT64 range (each caller maps that to its own error). A
  /// group that saw no input finishes to NULL, except COUNT, which
  /// finishes to 0. A string extreme is looked up in `dict`.
  std::optional<Value> Finish(
      AggFn fn, const std::vector<std::string>* dict = nullptr) const {
    switch (fn) {
      case AggFn::kMin:
      case AggFn::kMax:
        if (ext == kInt) return Value::Int64(ext_i);
        if (ext == kDbl) return Value::Double(ext_d);
        if (ext == kStr) return Value::String((*dict)[ext_code]);
        return Value::Null();
      case AggFn::kSum: {
        if (!any) return Value::Null();
        if (!all_int) return Value::Double(sum_d);
        if (sum_i < INT64_MIN || sum_i > INT64_MAX) return std::nullopt;
        return Value::Int64(static_cast<int64_t>(sum_i));
      }
      case AggFn::kCount:
        return Value::Int64(count);
      case AggFn::kAvg:
        if (count == 0) return Value::Null();
        return Value::Double(sum_d / static_cast<double>(count));
    }
    return Value::Null();
  }

 private:
  void Fold(int64_t v, int sign) {
    sum_i += sign * static_cast<__int128>(v);
    sum_d += sign * static_cast<double>(v);
    Count(sign);
  }
  void Fold(double v, int sign) {
    sum_d += sign * v;
    all_int = false;
    Count(sign);
  }
  void Count(int sign) {
    count += sign;
    any = true;
  }
  template <typename T>
  static bool Beats(bool is_min, T v, T extreme) {
    return is_min ? v < extreme : extreme < v;
  }
};

static_assert(std::is_trivially_copyable_v<AggState>);
static_assert(sizeof(AggState) <= 64);

}  // namespace aqv

#endif  // AQV_EXEC_AGG_STATE_H_
