#include "exec/planner.h"

#include <algorithm>
#include <set>

#include "exec/vectorized.h"

namespace aqv {

PredicateClassification ClassifyPredicates(const Query& query) {
  PredicateClassification out;
  out.single_table.resize(query.from.size());

  auto table_of = [&query](const std::string& column) {
    auto loc = query.FindColumn(column);
    return loc ? loc->first : -1;
  };

  for (const Predicate& p : query.where) {
    std::set<int> tables;
    for (const std::string& c : p.ReferencedColumns()) {
      int t = table_of(c);
      if (t >= 0) tables.insert(t);
    }
    if (tables.size() <= 1) {
      int t = tables.empty() ? 0 : *tables.begin();
      out.single_table[t].push_back(p);
      continue;
    }
    if (tables.size() == 2 && p.op == CmpOp::kEq && p.lhs.is_column() &&
        p.rhs.is_column()) {
      int lt = table_of(p.lhs.column);
      int rt = table_of(p.rhs.column);
      out.equi_joins.push_back(PredicateClassification::JoinEdge{
          lt, rt, p.lhs.column, p.rhs.column});
      continue;
    }
    out.multi_table.push_back(p);
  }
  return out;
}

std::vector<int> GreedyJoinOrder(
    const std::vector<size_t>& sizes,
    const std::vector<PredicateClassification::JoinEdge>& edges) {
  int n = static_cast<int>(sizes.size());
  std::vector<int> order;
  if (n == 0) return order;

  std::vector<bool> bound(n, false);
  auto connected = [&edges, &bound](int table) {
    for (const auto& e : edges) {
      if ((e.left_table == table && bound[e.right_table]) ||
          (e.right_table == table && bound[e.left_table])) {
        return true;
      }
    }
    return false;
  };

  // Seed with the smallest input.
  int first = 0;
  for (int i = 1; i < n; ++i) {
    if (sizes[i] < sizes[first]) first = i;
  }
  order.push_back(first);
  bound[first] = true;

  while (static_cast<int>(order.size()) < n) {
    int best = -1;
    bool best_connected = false;
    for (int i = 0; i < n; ++i) {
      if (bound[i]) continue;
      bool conn = connected(i);
      if (best < 0 || (conn && !best_connected) ||
          (conn == best_connected && sizes[i] < sizes[best])) {
        best = i;
        best_connected = conn;
      }
    }
    order.push_back(best);
    bound[best] = true;
  }
  return order;
}

namespace {

/// The joined row under construction: where each joined FROM entry's
/// columns start (-1 until it is joined), which resolves column names to
/// the ordinals the operators use.
struct JoinedRow {
  const Query& query;
  std::vector<int> offset;
  int width = 0;

  bool Has(int t) const { return offset[t] >= 0; }
  void Add(int t) {
    offset[t] = width;
    width += static_cast<int>(query.from[t].columns.size());
  }
  int Ordinal(const std::string& column) const {
    auto loc = query.FindColumn(column);
    return loc && Has(loc->first) ? offset[loc->first] + loc->second : -1;
  }
  /// Name -> ordinal, for operators that resolve predicates by name.
  ColumnIndexMap Layout() const {
    ColumnIndexMap layout;
    for (size_t t = 0; t < offset.size(); ++t) {
      if (!Has(static_cast<int>(t))) continue;
      for (size_t j = 0; j < query.from[t].columns.size(); ++j) {
        layout[query.from[t].columns[j]] = offset[t] + static_cast<int>(j);
      }
    }
    return layout;
  }
};

/// A node of `kind` over `child`, inheriting its estimate.
std::unique_ptr<PlanNode> Over(PlanNode::Kind kind,
                               std::unique_ptr<PlanNode> child) {
  auto node = std::make_unique<PlanNode>();
  node->kind = kind;
  node->est_rows = child->est_rows;
  node->children.push_back(std::move(child));
  return node;
}

std::unique_ptr<PlanNode> Scan(const Query& query, int i,
                               const PlanInput& input,
                               std::vector<Predicate> filters) {
  auto node = std::make_unique<PlanNode>();
  node->table = query.from[i].table;
  node->source = input.table;
  node->input_rows = input.rows;
  node->est_rows = input.rows;
  for (size_t k = 0; k < filters.size(); ++k) {
    node->est_rows *= kFilterSelectivity;
  }
  node->preds = std::move(filters);
  if (input.table != nullptr && !node->preds.empty()) {
    const std::vector<std::string>& columns = query.from[i].columns;
    for (size_t j = 0; j < columns.size(); ++j) {
      node->layout[columns[j]] = static_cast<int>(j);
    }
  }
  return node;
}

/// `scan`'s filter compiled against the chunks of `table` its zone maps
/// keep (see CompileChunkFilters); null if some chunk refuses.
std::shared_ptr<const ChunkFilters> ScanFilters(const PlanNode& scan,
                                                const Table& table) {
  auto filter = std::make_shared<ChunkFilters>();
  if (!CompileChunkFilters(scan.preds, scan.layout, table, filter.get())) {
    return nullptr;
  }
  return filter;
}

/// Joins `scan` onto `left`: a HashJoin on the equalities `keys`, or a
/// Cartesian step when there are none.
std::unique_ptr<PlanNode> Join(std::unique_ptr<PlanNode> left,
                               std::unique_ptr<PlanNode> scan,
                               std::vector<Predicate> keys,
                               std::vector<std::pair<int, int>> key_ordinals) {
  auto node = std::make_unique<PlanNode>();
  node->kind =
      keys.empty() ? PlanNode::Kind::kCartesian : PlanNode::Kind::kHashJoin;
  double joined = left->est_rows * scan->est_rows;
  for (size_t k = 0; k < keys.size(); ++k) joined *= kJoinSelectivity;
  node->est_rows = std::max(1.0, joined);
  node->preds = std::move(keys);
  node->key_ordinals = std::move(key_ordinals);
  node->children.push_back(std::move(left));
  node->children.push_back(std::move(scan));
  return node;
}

std::unique_ptr<PlanNode> Filter(std::unique_ptr<PlanNode> child,
                                 std::vector<Predicate> preds,
                                 const JoinedRow& joined) {
  auto filter = Over(PlanNode::Kind::kFilter, std::move(child));
  filter->preds = std::move(preds);
  filter->layout = joined.Layout();
  return filter;
}

/// The join phase: filtered scans joined in greedy order, each multi-table
/// conjunct applied as soon as every table it references is joined.
std::unique_ptr<PlanNode> JoinPhase(const Query& query,
                                    const std::vector<PlanInput>& inputs,
                                    const EvalOptions& options,
                                    JoinedRow* joined) {
  size_t n = query.from.size();
  std::unique_ptr<PlanNode> top;
  if (!options.use_hash_join) {
    // The reference plan: Cartesian steps in FROM order, then the whole
    // WHERE clause as one Filter. It is the executable specification tests
    // compare everything against, so it stays pure row-at-a-time.
    for (size_t i = 0; i < n; ++i) {
      auto scan = Scan(query, static_cast<int>(i), inputs[i], {});
      top = top == nullptr ? std::move(scan)
                           : Join(std::move(top), std::move(scan), {}, {});
      joined->Add(static_cast<int>(i));
    }
    if (query.where.empty()) return top;
    return Filter(std::move(top), query.where, *joined);
  }

  PredicateClassification cls = ClassifyPredicates(query);
  std::vector<std::unique_ptr<PlanNode>> scans(n);
  std::vector<size_t> sizes(n);
  for (size_t i = 0; i < n; ++i) {
    scans[i] = Scan(query, static_cast<int>(i), inputs[i],
                    cls.single_table[i]);
    if (options.vectorized && inputs[i].table != nullptr &&
        !scans[i]->preds.empty()) {
      scans[i]->filter = ScanFilters(*scans[i], *inputs[i].table);
      if (scans[i]->filter != nullptr) scans[i]->engine = Engine::kVectorized;
    }
    sizes[i] = static_cast<size_t>(std::max(1.0, scans[i]->est_rows));
  }

  std::vector<bool> applied(cls.multi_table.size(), false);
  for (int t : GreedyJoinOrder(sizes, cls.equi_joins)) {
    if (top == nullptr) {
      top = std::move(scans[t]);
    } else {
      // Keys: every equi edge connecting t to the joined set.
      std::vector<Predicate> keys;
      std::vector<std::pair<int, int>> key_ordinals;
      for (const auto& e : cls.equi_joins) {
        bool left_new = e.left_table == t && joined->Has(e.right_table);
        bool right_new = e.right_table == t && joined->Has(e.left_table);
        if (!left_new && !right_new) continue;
        keys.push_back(Predicate{Operand::Column(e.left_column), CmpOp::kEq,
                                 Operand::Column(e.right_column)});
        key_ordinals.emplace_back(
            joined->Ordinal(left_new ? e.right_column : e.left_column),
            query.FindColumn(left_new ? e.left_column : e.right_column)
                ->second);
      }
      top = Join(std::move(top), std::move(scans[t]), std::move(keys),
                 std::move(key_ordinals));
    }
    joined->Add(t);

    std::vector<Predicate> ready;
    for (size_t k = 0; k < cls.multi_table.size(); ++k) {
      if (applied[k]) continue;
      bool all_joined = true;
      for (const std::string& c : cls.multi_table[k].ReferencedColumns()) {
        auto loc = query.FindColumn(c);
        if (loc && !joined->Has(loc->first)) all_joined = false;
      }
      if (all_joined) {
        ready.push_back(cls.multi_table[k]);
        applied[k] = true;
      }
    }
    if (!ready.empty()) top = Filter(std::move(top), std::move(ready), *joined);
  }
  return top;
}

}  // namespace

std::unique_ptr<PlanNode> PlanJoinPhase(const Query& query,
                                        const std::vector<PlanInput>& inputs,
                                        const EvalOptions& options) {
  JoinedRow joined{query, std::vector<int>(query.from.size(), -1)};
  return JoinPhase(query, inputs, options, &joined);
}

std::unique_ptr<PlanNode> PlanQuery(const Query& query,
                                    const std::vector<PlanInput>& inputs,
                                    const EvalOptions& options) {
  JoinedRow joined{query, std::vector<int>(query.from.size(), -1)};
  std::unique_ptr<PlanNode> top = JoinPhase(query, inputs, options, &joined);
  // The projection reads join-phase columns, or the Aggregate's output: the
  // groups, then one column per aggregate term, named after the term.
  ColumnIndexMap grouped;
  auto ordinal = [&](const std::string& column) {
    if (query.IsConjunctive()) return joined.Ordinal(column);
    auto it = grouped.find(column);
    return it == grouped.end() ? -1 : it->second;
  };

  if (query.IsAggregation()) {
    auto agg = Over(PlanNode::Kind::kAggregate, std::move(top));
    agg->groups = query.group_by;
    agg->aggs = query.AggregateTerms();
    for (const std::string& g : agg->groups) {
      grouped[g] = static_cast<int>(agg->group_ordinals.size());
      agg->group_ordinals.push_back(joined.Ordinal(g));
    }
    for (const Operand& term : agg->aggs) {
      grouped[term.ToString()] =
          static_cast<int>(agg->groups.size() + agg->specs.size());
      agg->specs.push_back(AggSpec{
          term.agg, joined.Ordinal(term.column),
          term.multiplier.empty() ? -1 : joined.Ordinal(term.multiplier)});
    }
    if (agg->groups.empty()) agg->est_rows = 1;
    if (options.vectorized && options.use_hash_join) {
      agg->engine = Engine::kVectorized;
      // A single-table aggregation whose aggregation and filter both compile
      // aggregates straight off the scan's selection vector, over the
      // chunks the filter keeps.
      const Table* table = inputs[0].table;
      PlanNode* scan = agg->children[0].get();
      std::shared_ptr<const ChunkFilters> filter = scan->filter;
      if (query.from.size() == 1 && table != nullptr && filter == nullptr) {
        filter = ScanFilters(*scan, *table);
      }
      if (query.from.size() == 1 && filter != nullptr) {
        std::vector<const ColumnarTable*> images;
        for (size_t c = 0; c < filter->size(); ++c) {
          if ((*filter)[c]) images.push_back(&table->chunks()[c]->columnar());
        }
        auto columnar = std::make_shared<VectorizedAggregation>();
        if (VectorizedAggregation::Compile(images, agg->group_ordinals,
                                           agg->specs, columnar.get())) {
          agg->columnar_agg = std::move(columnar);
          scan->filter = std::move(filter);
          scan->engine = Engine::kVectorized;
        }
      }
    }
    top = std::move(agg);

    if (!query.having.empty()) {
      top = Over(PlanNode::Kind::kHaving, std::move(top));
      top->layout = grouped;
      // Aggregate operands read the column named after their term, so the
      // conditions still print as written.
      for (Predicate p : query.having) {
        for (Operand* o : {&p.lhs, &p.rhs}) {
          if (o->is_aggregate()) *o = Operand::Column(o->ToString());
        }
        top->preds.push_back(std::move(p));
      }
    }
  }

  auto project = Over(PlanNode::Kind::kProject, std::move(top));
  auto term = [&ordinal](AggFn fn, const AggArg& arg) {
    return ordinal(Operand::Aggregate(fn, arg.column, arg.multiplier).ToString());
  };
  for (const SelectItem& s : query.select) {
    if (s.kind == SelectItem::Kind::kColumn) {
      project->project_ordinals.emplace_back(ordinal(s.column), -1);
    } else if (s.kind == SelectItem::Kind::kAggregate) {
      project->project_ordinals.emplace_back(term(s.agg, s.arg), -1);
    } else {  // a ratio of two SUMs
      project->project_ordinals.emplace_back(term(AggFn::kSum, s.arg),
                                             term(AggFn::kSum, s.den));
    }
  }
  project->select = query.select;
  project->distinct = query.distinct;
  return project;
}

}  // namespace aqv
