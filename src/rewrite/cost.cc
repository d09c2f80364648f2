#include "rewrite/cost.h"

#include <memory>

#include "exec/planner.h"

namespace aqv {

namespace {

/// Adds the estimated rows of every join step, bottom-up, to `cost`; returns
/// the estimated output of the join phase (a Filter keeps its input's
/// estimate).
double AddJoinSteps(const PlanNode& node, double* cost) {
  if (node.children.empty()) return node.est_rows;  // a scan
  double below = AddJoinSteps(*node.children[0], cost);
  if (node.children.size() == 1) return below;
  *cost += node.est_rows;  // a join step materializes its intermediate
  return node.est_rows;
}

}  // namespace

double CostModel::Estimate(const Query& query, const Database& db,
                           double unknown_input_rows) const {
  std::vector<PlanInput> inputs(query.from.size(),
                                PlanInput{unknown_input_rows});
  double cost = 0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    Result<const Table*> t = db.Get(query.from[i].table);
    if (t.ok()) inputs[i] = PlanInput{static_cast<double>((*t)->num_rows())};
    cost += inputs[i].rows;  // scan cost
  }
  std::unique_ptr<PlanNode> joins = PlanJoinPhase(query, inputs, EvalOptions{});
  double card = AddJoinSteps(*joins, &cost);
  return cost + card;  // final pass (grouping/projection)
}

}  // namespace aqv
