#include "exec/evaluator.h"

#include <utility>
#include <chrono>

#include "base/failpoint.h"
#include "exec/operators.h"
#include "exec/vectorized.h"
#include "ir/validate.h"

namespace aqv {

namespace {

using ProfClock = std::chrono::steady_clock;

uint64_t MicrosSince(ProfClock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(ProfClock::now() -
                                                            start)
          .count());
}

/// Final projection: per row, each item's input ordinal, or the ratio of two
/// SUM positions (NULL on a NULL, non-numeric or zero denominator).
std::vector<Row> ProjectItems(const std::vector<Row>& rows,
                              const std::vector<std::pair<int, int>>& items,
                              ExecContext* ctx) {
  std::vector<Row> out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    if (ctx != nullptr && !ctx->TickRows()) break;
    Row projected;
    projected.reserve(items.size());
    for (const auto& [pos, den_pos] : items) {
      if (den_pos < 0) {
        projected.push_back(row[pos]);
        continue;
      }
      const Value& num = row[pos];
      const Value& den = row[den_pos];
      if (num.is_null() || den.is_null() || !den.is_numeric() ||
          den.AsDouble() == 0.0) {
        projected.push_back(Value::Null());
      } else {
        projected.push_back(Value::Double(num.AsDouble() / den.AsDouble()));
      }
    }
    out.push_back(std::move(projected));
  }
  return out;
}

}  // namespace

Result<const Table*> Evaluator::InputTable(const std::string& name, int depth) {
  // Stored contents win: this is how a materialized view is served. Take
  // shared ownership of the version read first, so a concurrent writer
  // replacing it (copy-on-write Put) cannot free the rows mid-execution;
  // every read of `name` within this Evaluator sees that same version.
  if (db_ != nullptr) {
    auto it = pinned_.find(name);
    if (it != pinned_.end()) return it->second.get();
    TablePtr pinned = db_->GetShared(name);
    if (pinned != nullptr) {
      const Table* raw = pinned.get();
      pinned_.emplace(name, std::move(pinned));
      return raw;
    }
  }
  if (views_ != nullptr && views_->Has(name)) {
    auto it = view_cache_.find(name);
    if (it == view_cache_.end()) {
      if (depth >= kMaxViewDepth) {
        return Status::InvalidArgument("view nesting exceeds depth limit at '" +
                                       name + "'");
      }
      AQV_ASSIGN_OR_RETURN(const ViewDef* def, views_->Get(name));
      AQV_ASSIGN_OR_RETURN(Table t, ExecuteInternal(def->query, depth + 1));
      ++stats_.views_materialized;
      it = view_cache_.emplace(name, std::move(t)).first;
    }
    return &it->second;
  }
  return Status::NotFound("'" + name + "' is neither a stored table nor a view");
}

Result<Table> Evaluator::Execute(const Query& query) {
  // Rows this call charges against the context become the statement's
  // rows_processed attribution; the delta keeps repeated Execute calls on
  // one context (degraded retries) from double-counting earlier work.
  size_t rows_before =
      ctx_ != nullptr && ctx_->stats() != nullptr ? ctx_->rows_charged() : 0;
  executed_.reset();
  Result<Table> result = ExecuteInternal(query, 0);
  if (ctx_ != nullptr && ctx_->stats() != nullptr) {
    ctx_->stats()->rows_processed += ctx_->rows_charged() - rows_before;
  }
  return result;
}

Result<Table> Evaluator::MaterializeView(const std::string& name) {
  AQV_ASSIGN_OR_RETURN(const Table* t, InputTable(name, 0));
  return *t;
}

Result<Table> Evaluator::ExecuteInternal(const Query& query, int depth) {
  AQV_FAILPOINT("exec.operator");
  if (ctx_ != nullptr && !ctx_->CheckNow()) return ctx_->status();
  AQV_RETURN_NOT_OK(ValidateQuery(query));

  // ---- Bind FROM entries to stored tables / materialized views. ----
  size_t n = query.from.size();
  std::vector<PlanInput> inputs(n);
  for (size_t i = 0; i < n; ++i) {
    const std::string& name = query.from[i].table;
    AQV_ASSIGN_OR_RETURN(const Table* table, InputTable(name, depth));
    if (table->num_columns() != static_cast<int>(query.from[i].columns.size())) {
      return Status::InvalidArgument(
          "FROM entry '" + name + "' has arity " +
          std::to_string(query.from[i].columns.size()) + " but the table has " +
          std::to_string(table->num_columns()) + " columns");
    }
    inputs[i] = PlanInput{static_cast<double>(table->num_rows()), table};
  }

  std::unique_ptr<PlanNode> plan = PlanQuery(query, inputs, options_);
  AQV_ASSIGN_OR_RETURN(std::vector<Row> rows, Run(*plan));
  if (depth == 0) executed_ = std::move(plan);
  Table out(query.OutputColumns());
  *out.mutable_rows() = std::move(rows);
  return out;
}

Result<std::vector<Row>> Evaluator::Run(PlanNode& node) {
  using Kind = PlanNode::Kind;
  PlanNode::Actual& actual = node.actual;
  std::vector<Row> out;
  if (node.columnar_agg != nullptr) {
    // Scan + aggregate entirely over the table's columnar image: the scan's
    // selection vector feeds the aggregation with no row gather.
    PlanNode& scan = *node.children[0];
    const ColumnarTable& ct = scan.source->columnar();
    ProfClock::time_point start = ProfClock::now();
    SelVector sel;
    const bool use_sel = !scan.preds.empty();
    if (use_sel) sel = scan.filter->Run(ct, ctx_);
    scan.actual = {Engine::kVectorized, ct.num_rows(),
                   use_sel ? sel.size() : ct.num_rows(), MicrosSince(start)};
    start = ProfClock::now();
    out = node.columnar_agg->Run(ct, use_sel ? &sel : nullptr, ctx_);
    actual = {Engine::kVectorized, scan.actual.rows_out, out.size(),
              MicrosSince(start)};
    stats_.vectorized_ops += 2;
  } else {
    std::vector<std::vector<Row>> in;
    in.reserve(node.children.size());
    for (const std::unique_ptr<PlanNode>& child : node.children) {
      AQV_ASSIGN_OR_RETURN(std::vector<Row> rows, Run(*child));
      in.push_back(std::move(rows));
    }
    ProfClock::time_point start = ProfClock::now();
    actual.engine = Engine::kRow;
    actual.rows_in = in.empty() ? 0 : in[0].size();
    switch (node.kind) {
      case Kind::kScan: {
        const Table& table = *node.source;
        actual.rows_in = table.num_rows();
        if (node.filter != nullptr) {
          const ColumnarTable& ct = table.columnar();
          out = GatherRows(ct, node.filter->Run(ct, ctx_));
          actual.engine = Engine::kVectorized;
        } else {
          out = FilterRows(table.rows(), node.preds, node.layout, ctx_);
        }
        break;
      }
      case Kind::kHashJoin:
        out = HashJoin(in[0], in[1], node.key_ordinals, ctx_);
        break;
      case Kind::kCartesian:
        out = CartesianProduct(in[0], in[1], ctx_);
        break;
      case Kind::kFilter:
      case Kind::kHaving:
        out = FilterRows(in[0], node.preds, node.layout, ctx_);
        break;
      case Kind::kAggregate: {
        bool used_vectorized = false;
        out = node.engine == Engine::kVectorized
                  ? VectorizedGroupAggregateRows(in[0], node.group_ordinals,
                                                 node.specs, ctx_,
                                                 &used_vectorized)
                  : GroupAggregate(in[0], node.group_ordinals, node.specs,
                                   ctx_);
        if (used_vectorized) actual.engine = Engine::kVectorized;
        break;
      }
      case Kind::kProject:
        out = ProjectItems(in[0], node.project_ordinals, ctx_);
        if (node.distinct) out = DistinctRows(out, ctx_);
        break;
    }
    actual.rows_out = out.size();
    actual.micros = MicrosSince(start);
    if (actual.engine == Engine::kVectorized) ++stats_.vectorized_ops;
  }
  // A tripped limit leaves partial output; discard it and surface the
  // violation rather than computing on truncated input.
  if (ctx_ != nullptr && !ctx_->ok()) return ctx_->status();
  return out;
}

}  // namespace aqv
