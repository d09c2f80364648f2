#include "exec/explain_plan.h"

#include <cstdio>
#include <utility>
#include <vector>

#include "base/strings.h"
#include "ir/validate.h"

namespace aqv {

namespace {

using Kind = PlanNode::Kind;

std::string Conjunction(const std::vector<Predicate>& preds,
                        const char* separator = " AND ") {
  std::vector<std::string> parts;
  parts.reserve(preds.size());
  for (const Predicate& p : preds) parts.push_back(p.ToString());
  return Join(parts, separator);
}

std::string VecTag(const PlanNode& node, bool analyzed) {
  Engine engine = analyzed ? node.actual.engine : node.engine;
  return engine == Engine::kVectorized ? " [vec]" : "";
}

std::string DescribeScan(const PlanNode& scan, bool analyzed) {
  std::string s = scan.table;
  s += scan.source == nullptr
           ? " [virtual]"
           : " [" + std::to_string(static_cast<size_t>(scan.input_rows)) +
                 " rows]";
  if (!scan.preds.empty()) s += " filter(" + Conjunction(scan.preds) + ")";
  return s + VecTag(scan, analyzed);
}

std::string Label(const PlanNode& node, bool analyzed) {
  switch (node.kind) {
    case Kind::kScan:
      return "Scan " + DescribeScan(node, analyzed);
    case Kind::kHashJoin:
    case Kind::kCartesian:
      return (node.preds.empty() ? std::string("CartesianProduct")
                                 : "HashJoin(" + Conjunction(node.preds, ", ") +
                                       ")") +
             " with " + DescribeScan(*node.children[1], analyzed);
    case Kind::kFilter:
      return "Filter(" + Conjunction(node.preds) + ")";
    case Kind::kAggregate: {
      std::vector<std::string> aggs;
      for (const Operand& term : node.aggs) aggs.push_back(term.ToString());
      return "HashAggregate(groups: " +
             (node.groups.empty() ? std::string("<global>")
                                  : Join(node.groups, ", ")) +
             "; aggregates: " + Join(aggs, ", ") + ")" +
             VecTag(node, analyzed);
    }
    case Kind::kHaving:
      return "Having(" + Conjunction(node.preds) + ")";
    case Kind::kProject: {
      std::vector<std::string> items;
      for (const SelectItem& s : node.select) items.push_back(s.ToString());
      return std::string(node.distinct ? "ProjectDistinct(" : "Project(") +
             Join(items, ", ") + ")";
    }
  }
  return "?";
}

/// Estimated rows, actual rows and exclusive time of one node.
std::string Figures(const PlanNode& node, bool analyzed) {
  char est[32];
  std::snprintf(est, sizeof(est), node.est_rows < 100 ? "est=%.3g" : "est=%.0f",
                node.est_rows);
  if (!analyzed) return est;
  std::string chunks;
  if (node.kind == Kind::kScan && node.source != nullptr) {
    chunks = "chunks=" + std::to_string(node.actual.chunks_scanned) + "/" +
             std::to_string(node.actual.chunks_total) + ", ";
  }
  return "actual rows=" + std::to_string(node.actual.rows_in) + " -> " +
         std::to_string(node.actual.rows_out) + ", " + chunks + est + ", " +
         std::to_string(node.actual.micros) + " us";
}

/// Appends `node`'s line after its (left) input's. A join's right-hand
/// scan shares the join's line, its figures after the join's.
void Render(const PlanNode& node, bool analyzed, std::string* out) {
  if (!node.children.empty()) Render(*node.children[0], analyzed, out);
  std::string figures = Figures(node, analyzed);
  if (node.children.size() == 2) {
    figures += "; scan " + Figures(*node.children[1], analyzed);
  }
  *out += Label(node, analyzed) + "  (" + figures + ")\n";
}

}  // namespace

std::string RenderPlan(const PlanNode& root, bool analyzed) {
  std::string out;
  Render(root, analyzed, &out);
  return out;
}

Result<std::string> ExplainPlan(const Query& query, const Database& db,
                                const ViewRegistry* views,
                                const EvalOptions& options) {
  AQV_RETURN_NOT_OK(ValidateQuery(query));
  // Hold the versions read for the duration of planning.
  std::vector<TablePtr> pins;
  std::vector<PlanInput> inputs(query.from.size());
  for (size_t i = 0; i < query.from.size(); ++i) {
    const std::string& name = query.from[i].table;
    TablePtr table = db.GetShared(name);
    if (table != nullptr) {
      inputs[i] = PlanInput{static_cast<double>(table->num_rows()),
                            table.get()};
      pins.push_back(std::move(table));
    } else if (views != nullptr && views->Has(name)) {
      inputs[i] = PlanInput{kUnknownInputRows};
    } else {
      return Status::NotFound("'" + name +
                              "' is neither a stored table nor a view");
    }
  }
  return RenderPlan(*PlanQuery(query, inputs, options), false);
}

}  // namespace aqv
