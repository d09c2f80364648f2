#include "exec/operators.h"

#include <unordered_map>
#include <unordered_set>

namespace aqv {

Status SumOutOfRange() {
  return Status::OutOfRange("INT64 SUM overflow: the exact sum does not fit "
                            "in a 64-bit integer");
}

void Aggregator::Add(const Value& v) {
  if (v.is_null()) return;
  switch (fn_) {
    case AggFn::kMin:
      if (!any_ || EvalCmp(v, CmpOp::kLt, extreme_)) extreme_ = v;
      break;
    case AggFn::kMax:
      if (!any_ || EvalCmp(v, CmpOp::kGt, extreme_)) extreme_ = v;
      break;
    case AggFn::kSum:
    case AggFn::kAvg:
      if (v.type() == ValueType::kInt64 && all_int_) {
        sum_int_ += v.int64();
      } else {
        all_int_ = false;
      }
      sum_dbl_ += v.AsDouble();
      ++count_;
      break;
    case AggFn::kCount:
      ++count_;
      break;
  }
  any_ = true;
}

Value Aggregator::Finish() const {
  switch (fn_) {
    case AggFn::kMin:
    case AggFn::kMax:
      return any_ ? extreme_ : Value::Null();
    case AggFn::kSum: {
      if (!any_) return Value::Null();
      if (!all_int_) return Value::Double(sum_dbl_);
      int64_t sum;
      return NarrowSum(sum_int_, &sum) ? Value::Int64(sum) : Value::Null();
    }
    case AggFn::kCount:
      return Value::Int64(count_);
    case AggFn::kAvg:
      if (count_ == 0) return Value::Null();
      return Value::Double(sum_dbl_ / static_cast<double>(count_));
  }
  return Value::Null();
}

bool Aggregator::Overflowed() const {
  int64_t unused;
  return fn_ == AggFn::kSum && any_ && all_int_ &&
         !NarrowSum(sum_int_, &unused);
}

Status ProductOutOfRange() {
  return Status::OutOfRange("INT64 product overflow: a scaled aggregate "
                            "argument does not fit in a 64-bit integer");
}

Result<Value> NumericProduct(const Value& a, const Value& b) {
  if (!a.is_numeric() || !b.is_numeric()) return Value::Null();
  if (a.type() == ValueType::kInt64 && b.type() == ValueType::kInt64) {
    int64_t product;
    if (__builtin_mul_overflow(a.int64(), b.int64(), &product)) {
      return ProductOutOfRange();
    }
    return Value::Int64(product);
  }
  return Value::Double(a.AsDouble() * b.AsDouble());
}

namespace {

bool PassesAll(const std::vector<Predicate>& preds, const Row& row,
               const ColumnIndexMap& layout) {
  for (const Predicate& p : preds) {
    if (!EvalScalarPredicate(p, row, layout)) return false;
  }
  return true;
}

}  // namespace

std::vector<Row> FilterRows(const std::vector<Row>& rows,
                            const std::vector<Predicate>& preds,
                            const ColumnIndexMap& layout, ExecContext* ctx) {
  if (preds.empty()) return rows;
  std::vector<Row> out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    if (ctx != nullptr && !ctx->TickRows()) break;
    if (PassesAll(preds, row, layout)) out.push_back(row);
  }
  return out;
}

void FilterRows(const ColumnarTable& table,
                const std::vector<Predicate>& preds,
                const ColumnIndexMap& layout, ExecContext* ctx,
                std::vector<Row>* out) {
  Row row;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (ctx != nullptr && !ctx->TickRows()) break;
    row.clear();
    table.AppendRowTo(r, &row);
    if (PassesAll(preds, row, layout)) out->push_back(std::move(row));
  }
}

namespace {

// Canonicalizes a join-key value so SQL-equal values hash and compare equal:
// integral doubles collapse to INT64.
Value CanonicalKey(const Value& v) {
  if (v.type() == ValueType::kDouble) {
    double d = v.dbl();
    int64_t i = static_cast<int64_t>(d);
    if (static_cast<double>(i) == d) return Value::Int64(i);
  }
  return v;
}

bool ExtractKey(const Row& row, const std::vector<int>& ordinals, Row* key) {
  key->clear();
  key->reserve(ordinals.size());
  for (int o : ordinals) {
    const Value& v = row[o];
    if (v.is_null()) return false;  // NULL keys never join
    key->push_back(CanonicalKey(v));
  }
  return true;
}

}  // namespace

std::vector<Row> HashJoin(const std::vector<Row>& left,
                          const std::vector<Row>& right,
                          const std::vector<std::pair<int, int>>& keys,
                          ExecContext* ctx) {
  std::vector<int> left_keys, right_keys;
  left_keys.reserve(keys.size());
  right_keys.reserve(keys.size());
  for (const auto& [l, r] : keys) {
    left_keys.push_back(l);
    right_keys.push_back(r);
  }

  // Build on the smaller side.
  bool build_left = left.size() <= right.size();
  const std::vector<Row>& build = build_left ? left : right;
  const std::vector<Row>& probe = build_left ? right : left;
  const std::vector<int>& build_ordinals = build_left ? left_keys : right_keys;
  const std::vector<int>& probe_ordinals = build_left ? right_keys : left_keys;

  std::unordered_map<Row, std::vector<const Row*>, RowHash, RowEq> hash_table;
  hash_table.reserve(build.size());
  Row key;
  for (const Row& row : build) {
    if (ctx != nullptr && !ctx->TickRows()) return {};
    if (!ExtractKey(row, build_ordinals, &key)) continue;
    hash_table[key].push_back(&row);
  }

  std::vector<Row> out;
  for (const Row& probe_row : probe) {
    if (ctx != nullptr && !ctx->TickRows()) break;
    if (!ExtractKey(probe_row, probe_ordinals, &key)) continue;
    auto it = hash_table.find(key);
    if (it == hash_table.end()) continue;
    for (const Row* build_row : it->second) {
      if (ctx != nullptr && !ctx->TickRows()) break;
      const Row& l = build_left ? *build_row : probe_row;
      const Row& r = build_left ? probe_row : *build_row;
      Row combined;
      combined.reserve(l.size() + r.size());
      combined.insert(combined.end(), l.begin(), l.end());
      combined.insert(combined.end(), r.begin(), r.end());
      out.push_back(std::move(combined));
    }
  }
  return out;
}

std::vector<Row> CartesianProduct(const std::vector<Row>& left,
                                  const std::vector<Row>& right,
                                  ExecContext* ctx) {
  std::vector<Row> out;
  if (ctx == nullptr || !ctx->limited()) {
    out.reserve(left.size() * right.size());
  }
  for (const Row& l : left) {
    for (const Row& r : right) {
      if (ctx != nullptr && !ctx->TickRows()) return out;
      Row combined;
      combined.reserve(l.size() + r.size());
      combined.insert(combined.end(), l.begin(), l.end());
      combined.insert(combined.end(), r.begin(), r.end());
      out.push_back(std::move(combined));
    }
  }
  return out;
}

std::vector<Row> GroupAggregate(const std::vector<Row>& rows,
                                const std::vector<int>& group_cols,
                                const std::vector<AggSpec>& aggs,
                                ExecContext* ctx) {
  // Group key -> (first group row's key values, accumulators).
  struct GroupState {
    Row key;
    std::vector<Aggregator> accumulators;
  };
  std::unordered_map<Row, GroupState, RowHash, RowEq> groups;
  groups.reserve(rows.size() / 4 + 1);

  auto make_accumulators = [&aggs]() {
    std::vector<Aggregator> acc;
    acc.reserve(aggs.size());
    for (const AggSpec& a : aggs) acc.emplace_back(a.fn);
    return acc;
  };

  Row key;
  for (const Row& row : rows) {
    if (ctx != nullptr && !ctx->TickRows()) break;
    key.clear();
    key.reserve(group_cols.size());
    for (int o : group_cols) key.push_back(CanonicalKey(row[o]));
    auto [it, inserted] = groups.try_emplace(key);
    if (inserted) {
      // Keep the original (non-canonicalized) values for output.
      Row original;
      original.reserve(group_cols.size());
      for (int o : group_cols) original.push_back(row[o]);
      it->second.key = std::move(original);
      it->second.accumulators = make_accumulators();
    }
    for (size_t i = 0; i < aggs.size(); ++i) {
      const AggSpec& spec = aggs[i];
      if (spec.multiplier >= 0) {
        Result<Value> product =
            NumericProduct(row[spec.column], row[spec.multiplier]);
        if (product.ok()) {
          it->second.accumulators[i].Add(*product);
        } else if (ctx != nullptr) {
          ctx->Fail(product.status());
          return {};
        }
      } else {
        it->second.accumulators[i].Add(row[spec.column]);
      }
    }
  }

  std::vector<Row> out;
  if (groups.empty() && group_cols.empty()) {
    // Global aggregate over an empty input still emits one row.
    std::vector<Aggregator> acc = make_accumulators();
    Row row;
    row.reserve(aggs.size());
    for (const Aggregator& a : acc) row.push_back(a.Finish());
    out.push_back(std::move(row));
    return out;
  }

  out.reserve(groups.size());
  for (auto& [k, state] : groups) {
    Row row = std::move(state.key);
    row.reserve(row.size() + aggs.size());
    for (const Aggregator& a : state.accumulators) {
      if (a.Overflowed() && ctx != nullptr) {
        ctx->Fail(SumOutOfRange());
        return out;
      }
      row.push_back(a.Finish());
    }
    out.push_back(std::move(row));
  }
  return out;
}

std::vector<Row> DistinctRows(const std::vector<Row>& rows,
                              ExecContext* ctx) {
  std::unordered_set<Row, RowHash, RowEq> seen;
  seen.reserve(rows.size());
  std::vector<Row> out;
  for (const Row& row : rows) {
    if (ctx != nullptr && !ctx->TickRows()) break;
    if (seen.insert(row).second) out.push_back(row);
  }
  return out;
}

std::vector<Row> ProjectRows(const std::vector<Row>& rows,
                             const std::vector<int>& ordinals,
                             ExecContext* ctx) {
  std::vector<Row> out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    if (ctx != nullptr && !ctx->TickRows()) break;
    Row projected;
    projected.reserve(ordinals.size());
    for (int o : ordinals) projected.push_back(row[o]);
    out.push_back(std::move(projected));
  }
  return out;
}

}  // namespace aqv
