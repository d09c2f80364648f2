#include "exec/evaluator.h"

#include <chrono>
#include <iterator>
#include <optional>
#include <utility>

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
  return Table(query.OutputColumns(), std::move(rows));
}

Result<std::vector<Row>> Evaluator::Run(PlanNode& node) {
  using Kind = PlanNode::Kind;
  PlanNode::Actual& actual = node.actual;
  std::vector<Row> out;
  // Aggregation reports an INT64 SUM that leaves its range by failing its
  // context, so it always gets one, even when the statement has none.
  ExecContext unlimited;
  ExecContext* agg_ctx = ctx_ != nullptr ? ctx_ : &unlimited;
  if (node.columnar_agg != nullptr) {
    // Scan + aggregate entirely over the chunks' typed columns: each
    // chunk's selection vector feeds the aggregation with no row gather.
    PlanNode& scan = *node.children[0];
    const Table& table = *scan.source;
    const bool use_sel = !scan.preds.empty();
    ProfClock::duration scan_time{};
    ProfClock::duration agg_time{};
    size_t selected = 0;
    size_t scanned = 0;
    VectorizedAggregation::Groups groups;
    for (size_t c = 0; c < table.chunks().size(); ++c) {
      const Chunk& chunk = *table.chunks()[c];
      const std::optional<CompiledFilter>& filter = (*scan.filter)[c];
      if (!filter) {
        // Ruled out by its zone maps at plan time: charged, as the row
        // engine's scan charges it, but not read.
        if (ctx_ != nullptr && !ctx_->TickRows(chunk.num_rows())) break;
        continue;
      }
      ProfClock::time_point t0 = ProfClock::now();
      ++scanned;
      const ColumnarTable& ct = chunk.columnar();
      SelVector sel;
      if (use_sel) sel = filter->Run(ct, ctx_);
      selected += use_sel ? sel.size() : ct.num_rows();
      ProfClock::time_point t1 = ProfClock::now();
      node.columnar_agg->Accumulate(ct, use_sel ? &sel : nullptr, agg_ctx,
                                    &groups);
      scan_time += t1 - t0;
      agg_time += ProfClock::now() - t1;
    }
    ProfClock::time_point t0 = ProfClock::now();
    out = node.columnar_agg->Finish(&groups, agg_ctx);
    agg_time += ProfClock::now() - t0;
    auto micros = [](ProfClock::duration d) {
      return static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(d).count());
    };
    scan.actual = {Engine::kVectorized, table.num_rows(), selected,
                   micros(scan_time), scanned, table.chunks().size()};
    actual = {Engine::kVectorized, selected, out.size(), micros(agg_time)};
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
        actual.chunks_total = table.chunks().size();
        if (node.preds.empty()) out.reserve(table.num_rows());
        for (size_t c = 0; c < table.chunks().size(); ++c) {
          const Chunk& chunk = *table.chunks()[c];
          if (node.filter != nullptr) {
            const std::optional<CompiledFilter>& filter = (*node.filter)[c];
            if (!filter) {  // ruled out at plan time: charged, not read
              if (ctx_ != nullptr && !ctx_->TickRows(chunk.num_rows())) break;
              continue;
            }
            GatherRows(chunk.columnar(), filter->Run(chunk.columnar(), ctx_),
                       &out);
          } else if (node.preds.empty()) {
            const ColumnarTable& cols = chunk.columnar();
            for (size_t r = 0; r < cols.num_rows(); ++r) {
              out.push_back(cols.RowAt(r));
            }
          } else {
            FilterRows(chunk.columnar(), node.preds, node.layout, ctx_, &out);
          }
          ++actual.chunks_scanned;
        }
        if (node.filter != nullptr) actual.engine = Engine::kVectorized;
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
                                                 node.specs, agg_ctx,
                                                 &used_vectorized)
                  : GroupAggregate(in[0], node.group_ordinals, node.specs,
                                   agg_ctx);
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
  if (!agg_ctx->ok()) return agg_ctx->status();
  return out;
}

}  // namespace aqv
