#include "maintain/incremental.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "base/failpoint.h"
#include "exec/evaluator.h"
#include "exec/expression.h"
#include "exec/operators.h"
#include "ir/validate.h"

namespace aqv {

bool Delta::has_deletes() const {
  for (const auto& [table, rows] : deletes) {
    if (!rows.empty()) return true;
  }
  return false;
}

Status ApplyDeltaToBase(const Delta& delta, Database* db) {
  for (const auto& [name, rows] : delta.inserts) {
    AQV_ASSIGN_OR_RETURN(const Table* t, db->Get(name));
    Table updated = *t;
    AQV_RETURN_NOT_OK(updated.AddRows(rows));
    db->Put(name, std::move(updated));
  }
  for (const auto& [name, rows] : delta.deletes) {
    AQV_ASSIGN_OR_RETURN(const Table* t, db->Get(name));
    Table updated = *t;
    if (!updated.RemoveRows(rows).ok()) {
      return Status::InvalidArgument(
          "delete batch removes a row not present in '" + name + "'");
    }
    db->Put(name, std::move(updated));
  }
  return Status::OK();
}

Result<IncrementalMaintainer> IncrementalMaintainer::Create(
    const ViewDef& view, EvalOptions eval_options) {
  AQV_RETURN_NOT_OK(ValidateQuery(view.query));
  const Query& q = view.query;
  if (!q.having.empty()) {
    return Status::Unsupported(
        "views with HAVING are not incrementally maintainable (suppressed "
        "groups are not retained)");
  }
  if (q.distinct) {
    return Status::Unsupported("DISTINCT views need duplicate counts");
  }
  for (const SelectItem& s : q.select) {
    if (s.kind == SelectItem::Kind::kRatio) {
      return Status::Unsupported("ratio outputs are not maintainable");
    }
    if (s.kind == SelectItem::Kind::kAggregate && s.agg == AggFn::kAvg) {
      return Status::Unsupported(
          "AVG outputs are not maintainable; materialize SUM and COUNT");
    }
  }
  if (q.IsAggregation()) {
    // Every grouping column must be an output, or group identities are
    // ambiguous in the materialization.
    std::vector<std::string> colsel = q.ColSel();
    for (const std::string& g : q.group_by) {
      if (std::find(colsel.begin(), colsel.end(), g) == colsel.end()) {
        return Status::Unsupported("grouping column '" + g +
                                   "' is not in the view's SELECT clause");
      }
    }
  }
  return IncrementalMaintainer(view, eval_options);
}

namespace {

// Scalar value of an aggregate argument against a core row. A scaled
// INT64 argument whose product overflows is kUnsupported, so the write
// falls back to a recompute, which fails it with kOutOfRange.
Result<Value> ArgValue(const AggArg& arg, const Row& row,
                       const ColumnIndexMap& layout) {
  auto get = [&](const std::string& col) -> Value {
    auto it = layout.find(col);
    if (it == layout.end()) return Value::Null();
    return row[it->second];
  };
  Value v = get(arg.column);
  if (!arg.scaled()) return v;
  Result<Value> product = NumericProduct(v, get(arg.multiplier));
  if (!product.ok()) {
    return Status::Unsupported("INT64 product overflow in maintenance; "
                               "recompute");
  }
  return product;
}

}  // namespace

Result<std::vector<IncrementalMaintainer::SignedRow>>
IncrementalMaintainer::DeltaCoreRows(const Delta& delta,
                                     const Database& before) const {
  const Query& q = view_.query;
  size_t k = q.from.size();

  // "After" state for the telescoping prefix, built lazily: a single-table
  // view (the common summary-table case) never needs it.
  Database after;
  bool after_built = false;
  auto ensure_after = [&]() -> Status {
    if (after_built) return Status::OK();
    after = before;
    after_built = true;
    return ApplyDeltaToBase(delta, &after);
  };

  // A conjunctive core query over synthetic per-occurrence table names, so
  // each occurrence can be bound to a different snapshot (after / delta /
  // before).
  Query core;
  core.from = q.from;
  core.where = q.where;
  for (size_t i = 0; i < k; ++i) {
    core.from[i].table = "@occ" + std::to_string(i);
    for (const std::string& c : core.from[i].columns) {
      core.select.push_back(SelectItem::MakeColumn(c));
    }
  }

  std::vector<SignedRow> out;
  for (size_t i = 0; i < k; ++i) {
    const std::string& table = q.from[i].table;
    for (int sign : {+1, -1}) {
      const auto& changes = sign > 0 ? delta.inserts : delta.deletes;
      auto it = changes.find(table);
      if (it == changes.end() || it->second.empty()) continue;

      Database term_db;
      for (size_t j = 0; j < k; ++j) {
        if (j < i) AQV_RETURN_NOT_OK(ensure_after());
        const Database& source = j < i ? after : before;
        if (j == i) {
          AQV_ASSIGN_OR_RETURN(const Table* base, before.Get(table));
          Table dt(base->columns());
          AQV_RETURN_NOT_OK(dt.AddRows(it->second));
          term_db.Put(core.from[j].table, std::move(dt));
        } else {
          AQV_ASSIGN_OR_RETURN(const Table* t, source.Get(q.from[j].table));
          term_db.Put(core.from[j].table, *t);
        }
      }
      Evaluator eval(&term_db, nullptr, eval_options_);
      AQV_ASSIGN_OR_RETURN(Table term_rows, eval.Execute(core));
      for (const Row& row : term_rows.rows()) {
        out.push_back(SignedRow{row, sign});
      }
    }
  }
  return out;
}

Result<Table> IncrementalMaintainer::Apply(const Delta& delta,
                                           const Database& before,
                                           const Table& current) const {
  AQV_FAILPOINT("maintain.apply");
  if (delta.empty()) return current;
  const Query& q = view_.query;

  AQV_ASSIGN_OR_RETURN(std::vector<SignedRow> cores,
                       DeltaCoreRows(delta, before));
  if (cores.empty()) return current;

  ColumnIndexMap layout;
  {
    int offset = 0;
    for (const TableRef& t : q.from) {
      for (const std::string& c : t.columns) layout[c] = offset++;
    }
  }
  // The next version starts as the current one: a copy of its chunk
  // pointers. Every chunk the delta does not touch stays shared.
  Table next = current;

  // ---- Conjunctive views: remove and append projected occurrences. ----
  if (q.IsConjunctive()) {
    // Net the signed projections first: when one batch both inserts and
    // deletes rows of the same table (an UPDATE, say) and the table occurs
    // more than once in the view, the telescoped terms contain insert×delete
    // cross products — equal rows of opposite sign that must cancel against
    // EACH OTHER, not against the stored materialization.
    RowCounts net;
    for (const SignedRow& core : cores) {
      Row projected;
      projected.reserve(q.select.size());
      for (const SelectItem& s : q.select) {
        projected.push_back(core.row[layout.at(s.column)]);
      }
      net[std::move(projected)] += core.weight;
    }
    std::vector<Row> added;
    std::vector<Row> removed;
    for (const auto& [projected, weight] : net) {
      for (int64_t w = weight; w > 0; --w) added.push_back(projected);
      for (int64_t w = weight; w < 0; ++w) removed.push_back(projected);
    }
    if (!next.RemoveRows(removed).ok()) {
      return Status::Internal(
          "delta removes a view row absent from the materialization");
    }
    AQV_RETURN_NOT_OK(next.AddRows(added));
    return next;
  }

  // ---- Grouped views: fold signed updates into the aggregates. ----
  // Positions of grouping columns and of a COUNT output in the view schema.
  std::vector<int> group_positions;
  for (const std::string& g : q.group_by) {
    for (size_t p = 0; p < q.select.size(); ++p) {
      if (q.select[p].kind == SelectItem::Kind::kColumn &&
          q.select[p].column == g) {
        group_positions.push_back(static_cast<int>(p));
        break;
      }
    }
  }
  int count_position = -1;
  for (size_t p = 0; p < q.select.size(); ++p) {
    if (q.select[p].kind == SelectItem::Kind::kAggregate &&
        q.select[p].agg == AggFn::kCount) {
      count_position = static_cast<int>(p);
      break;
    }
  }
  bool has_negative =
      std::any_of(cores.begin(), cores.end(),
                  [](const SignedRow& s) { return s.weight < 0; });
  if (has_negative && count_position < 0) {
    return Status::Unsupported(
        "deletes need a COUNT output to track group liveness");
  }

  // Group key (grouping values as they appear in core rows) -> the delta's
  // accumulators, one per select position: SUM and COUNT fold inserts in
  // and retract deletes, MIN and MAX fold inserts only. `deleted` holds the
  // extreme of the deleted values of each MIN/MAX position.
  struct GroupUpdate {
    std::vector<Aggregator> delta;
    std::vector<Aggregator> deleted;
  };
  size_t width = q.select.size();
  std::vector<Aggregator> fresh;
  fresh.reserve(width);
  for (const SelectItem& s : q.select) {
    fresh.emplace_back(s.kind == SelectItem::Kind::kAggregate ? s.agg
                                                             : AggFn::kCount);
  }
  auto is_extreme = [&](size_t p) {
    const SelectItem& s = q.select[p];
    return s.kind == SelectItem::Kind::kAggregate &&
           (s.agg == AggFn::kMin || s.agg == AggFn::kMax);
  };
  std::unordered_map<Row, GroupUpdate, RowHash, RowEq> updates;

  for (const SignedRow& core : cores) {
    Row key;
    key.reserve(q.group_by.size());
    for (const std::string& g : q.group_by) {
      key.push_back(core.row[layout.at(g)]);
    }
    auto [it, inserted] = updates.try_emplace(std::move(key));
    GroupUpdate& u = it->second;
    if (inserted) {
      u.delta = fresh;
      u.deleted = fresh;
    }
    for (size_t p = 0; p < width; ++p) {
      const SelectItem& s = q.select[p];
      if (s.kind != SelectItem::Kind::kAggregate) continue;
      AQV_ASSIGN_OR_RETURN(Value v, ArgValue(s.arg, core.row, layout));
      if (core.weight > 0) {
        u.delta[p].Add(v);
      } else if (is_extreme(p)) {
        u.deleted[p].Add(v);
      } else {
        u.delta[p].Retract(v);
      }
    }
  }

  // One pass over the group-key columns finds the stored row of each
  // touched group, at most one per group; an untouched group builds no Row.
  RowCounts wanted;
  for (const auto& [key, u] : updates) wanted.emplace(key, 1);
  RowPositions found = current.LocateRows(&wanted, group_positions);

  // Folds group update `u` into `row` (the group's stored row, or NULLs
  // for a group absent from the view) and keeps the result if it is alive.
  std::vector<Row> merged;
  auto fold = [&](Row row, const GroupUpdate& u, bool stored) -> Status {
    // MIN/MAX first: a delete that reaches the extremum (a deleted value >=
    // the stored MAX, <= the stored MIN) forces recomputation, unless the
    // same batch inserts a covering value into the group (>= the extremum
    // for MAX, <= for MIN). Every surviving old value is bounded by the old
    // extremum, so the covering insert dominates and the merge below yields
    // the correct new extremum.
    for (size_t p = 0; p < width; ++p) {
      if (!is_extreme(p) || u.deleted[p].Finish()->is_null()) continue;
      // An absent group can still see deletes when one batch inserts and
      // deletes rows of a self-joined table: the telescoped cross terms
      // land signed updates on a key that only the same batch created.
      // Folding those needs the inserts and deletes cancelled value-by-value
      // (MIN/MAX have no signed form); punt to the recompute instead.
      if (!stored) {
        return Status::Unsupported(
            "a delete lands in a group absent from the materialization; "
            "recompute");
      }
      const bool is_max = q.select[p].agg == AggFn::kMax;
      auto reaches = [&](const Aggregator& agg) {
        Value v = *agg.Finish();
        if (v.is_null()) return false;
        int cmp = v.Compare(row[p]);
        return is_max ? cmp >= 0 : cmp <= 0;
      };
      if (reaches(u.deleted[p]) && !reaches(u.delta[p])) {
        return Status::Unsupported(
            "a delete removes the current extremum of a group; recompute");
      }
    }
    for (size_t p = 0; p < width; ++p) {
      const SelectItem& s = q.select[p];
      if (s.kind != SelectItem::Kind::kAggregate) continue;
      Aggregator agg = Aggregator::Seeded(s.agg, row[p]);
      agg.Merge(u.delta[p]);
      std::optional<Value> v = agg.Finish();
      // A SUM whose exact INT64 total does not fit: the recompute fails the
      // write with kOutOfRange.
      if (!v.has_value()) {
        return Status::Unsupported(
            "INT64 SUM overflow in maintenance; recompute");
      }
      row[p] = *std::move(v);
    }
    if (count_position < 0 || row[count_position].int64() > 0) {
      merged.push_back(std::move(row));
    }
    return Status::OK();
  };
  for (const auto& [chunk, hits] : found) {
    for (uint32_t r : hits) {
      Row row = current.chunks()[chunk]->RowAt(r);
      Row key;
      for (int p : group_positions) key.push_back(row[p]);
      auto it = updates.find(key);
      if (it == updates.end()) {
        return Status::Internal("a located view group has no update");
      }
      AQV_RETURN_NOT_OK(fold(std::move(row), it->second, true));
      updates.erase(it);
    }
  }
  for (const auto& [key, u] : updates) {
    Row absent(width, Value::Null());
    for (size_t i = 0; i < group_positions.size(); ++i) {
      absent[group_positions[i]] = key[i];
    }
    AQV_RETURN_NOT_OK(fold(std::move(absent), u, false));
  }
  // Every touched group leaves its chunk; its merged row, like a new
  // group's, is appended to the tail.
  next.RemoveAt(found);
  AQV_RETURN_NOT_OK(next.AddRows(merged));
  return next;
}

}  // namespace aqv
