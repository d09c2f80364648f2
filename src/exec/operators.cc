#include "exec/operators.h"

#include <unordered_map>
#include <unordered_set>

namespace aqv {

Status SumOutOfRange() {
  return Status::OutOfRange("INT64 SUM overflow: the exact sum does not fit "
                            "in a 64-bit integer");
}

Aggregator Aggregator::Seeded(AggFn fn, const Value& stored) {
  Aggregator a(fn);
  if (fn != AggFn::kCount) {
    a.Add(stored);
  } else if (!stored.is_null()) {
    a.state_.count = stored.int64();
  }
  return a;
}

void Aggregator::Add(const Value& v) {
  if (v.is_null()) return;
  const bool is_min = fn_ == AggFn::kMin;
  switch (fn_) {
    case AggFn::kMin:
    case AggFn::kMax:
      if (v.type() == ValueType::kInt64) {
        state_.AddExtreme(is_min, v.int64());
      } else if (v.type() == ValueType::kDouble) {
        state_.AddExtreme(is_min, v.dbl());
      } else if (state_.ext == AggState::kNone ||
                 (state_.ext == AggState::kStr &&
                  (is_min ? v.str() < text_.str() : text_.str() < v.str()))) {
        state_.ext = AggState::kStr;
        state_.any = true;
        text_ = v;
      }
      break;
    case AggFn::kSum:
    case AggFn::kAvg:
      if (v.type() == ValueType::kInt64) {
        state_.Add(v.int64());
      } else {
        state_.Add(v.AsDouble());
      }
      break;
    case AggFn::kCount:
      state_.AddCount();
      break;
  }
}

void Aggregator::Retract(const Value& v) {
  if (v.is_null()) return;
  if (fn_ == AggFn::kCount) {
    state_.RetractCount();
  } else if (v.type() == ValueType::kInt64) {
    state_.Retract(v.int64());
  } else {
    state_.Retract(v.AsDouble());
  }
}

void Aggregator::Merge(const Aggregator& later) {
  if (later.state_.ext == AggState::kStr) {
    Add(later.text_);
  } else {
    state_.Merge(fn_, later.state_);
  }
}

std::optional<Value> Aggregator::Finish() const {
  if (state_.ext == AggState::kStr) return text_;
  return state_.Finish(fn_);
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

  std::vector<Aggregator> fresh;
  fresh.reserve(aggs.size());
  for (const AggSpec& a : aggs) fresh.emplace_back(a.fn);

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
      it->second.accumulators = fresh;
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

  if (groups.empty() && group_cols.empty()) {
    // Global aggregate over an empty input still emits one row.
    groups[Row{}].accumulators = fresh;
  }

  std::vector<Row> out;
  out.reserve(groups.size());
  for (auto& [k, state] : groups) {
    Row row = std::move(state.key);
    row.reserve(row.size() + aggs.size());
    for (const Aggregator& a : state.accumulators) {
      std::optional<Value> v = a.Finish();
      if (!v.has_value()) {
        if (ctx != nullptr) {
          ctx->Fail(SumOutOfRange());
          return out;
        }
        v = Value::Null();
      }
      row.push_back(*std::move(v));
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
