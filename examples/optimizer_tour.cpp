// A tour of the reasoning machinery an optimizer would call into:
//
//   1. condition closure and entailment (footnote 2 of the paper),
//   2. residual computation — condition C3's Conds',
//   3. HAVING-to-WHERE normalization (Section 3.3),
//   4. key-based set reasoning and many-to-1 mappings (Section 5,
//      Example 5.1),
//   5. enumerating *all* rewritings over a view library and picking the
//      cheapest with the cost model (Section 3.2 / Theorem 3.2).

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "exec/evaluator.h"
#include "ir/builder.h"
#include "ir/printer.h"
#include "parser/parser.h"
#include "reason/closure.h"
#include "reason/having_normalize.h"
#include "reason/residual.h"
#include "rewrite/cost.h"
#include "rewrite/optimizer.h"
#include "rewrite/rewriter.h"
#include "rewrite/set_rewriter.h"
#include "workload/random_db.h"

using namespace aqv;  // NOLINT: example brevity

namespace {

template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, result.status().ToString().c_str());
    std::exit(1);
  }
  return *std::move(result);
}

Predicate P(const char* lhs, CmpOp op, const char* rhs) {
  return Predicate{Operand::Column(lhs), op, Operand::Column(rhs)};
}
Predicate PC(const char* lhs, CmpOp op, int64_t c) {
  return Predicate{Operand::Column(lhs), op, Operand::Constant(Value::Int64(c))};
}

void Header(const char* title) { std::printf("\n=== %s ===\n", title); }

}  // namespace

int main() {
  // ------------------------------------------------------------------
  Header("1. closure & entailment");
  std::vector<Predicate> conds = {P("A", CmpOp::kEq, "B"),
                                  P("B", CmpOp::kLe, "C"),
                                  PC("C", CmpOp::kLt, 10)};
  ConstraintClosure closure =
      Unwrap(ConstraintClosure::Build(conds), "build closure");
  struct {
    Predicate atom;
  } probes[] = {{P("A", CmpOp::kLe, "C")}, {PC("A", CmpOp::kLt, 10)},
                {PC("B", CmpOp::kNe, 12)}, {PC("A", CmpOp::kLt, 5)}};
  std::printf("given: A = B AND B <= C AND C < 10\n");
  for (const auto& probe : probes) {
    std::printf("  entails %-10s ? %s\n", probe.atom.ToString().c_str(),
                closure.Implies(probe.atom) ? "yes" : "no");
  }

  // ------------------------------------------------------------------
  Header("2. residual computation (condition C3)");
  std::vector<Predicate> query_conds = {P("A1", CmpOp::kEq, "C1"),
                                        PC("B1", CmpOp::kEq, 6),
                                        PC("D1", CmpOp::kEq, 6)};
  std::vector<Predicate> view_conds = {P("A1", CmpOp::kEq, "C1"),
                                       P("B1", CmpOp::kEq, "D1")};
  std::vector<Predicate> residual = Unwrap(
      ComputeResidual(query_conds, view_conds, {"C1", "D1"}), "residual");
  std::printf("Conds(Q)   = A1 = C1 AND B1 = 6 AND D1 = 6\n");
  std::printf("phi(Conds(V)) = A1 = C1 AND B1 = D1\n");
  std::printf("Conds'     =");
  for (const Predicate& p : residual) std::printf(" %s", p.ToString().c_str());
  std::printf("   (over the view's output columns only)\n");

  // ------------------------------------------------------------------
  Header("3. HAVING normalization (Section 3.3)");
  Query having_query = Unwrap(
      ParseQuery("SELECT A1, MAX(B1) FROM R(A1, B1) "
                 "GROUPBY A1 HAVING MAX(B1) > 10 AND A1 >= 2"),
      "parse");
  std::printf("before: %s\n", ToSql(having_query).c_str());
  int moved = NormalizeHaving(&having_query);
  std::printf("after:  %s   (%d conjuncts moved)\n",
              ToSql(having_query).c_str(), moved);

  // ------------------------------------------------------------------
  Header("4. keys enable many-to-1 mappings (Example 5.1)");
  Catalog catalog;
  TableDef r1("R1", {"A", "B", "C"});
  (void)r1.AddKeyByName({"A"});
  (void)catalog.AddTable(r1);
  Query q51 = Unwrap(
      ParseQuery("SELECT A1 FROM R1(A1, B1, C1) WHERE B1 = C1"), "parse q");
  ViewDef v51 = Unwrap(
      ParseView("CREATE VIEW V51 AS SELECT A2, A3 FROM "
                "R1(A2, B2, C2), R1(A3, B3, C3) WHERE B2 = C3"),
      "parse v");
  std::printf("Q result is a set: %s\n",
              IsSetQuery(q51, catalog, nullptr) ? "yes" : "no");
  ViewRegistry views51;
  (void)views51.Register(v51);
  Rewriter without_keys(&views51);
  std::printf("usable without keys: %s\n",
              without_keys.RewriteUsingView(q51, "V51").ok() ? "yes" : "no");
  RewriteOptions with_keys_opts;
  with_keys_opts.use_key_information = true;
  Rewriter with_keys(&views51, &catalog, with_keys_opts);
  Query q51_rw = Unwrap(with_keys.RewriteUsingView(q51, "V51"), "rewrite 5.1");
  std::printf("usable with keys:    yes -> %s\n", ToSql(q51_rw).c_str());

  // ------------------------------------------------------------------
  Header("5. enumerate all rewritings, pick the cheapest");
  Catalog cat2;
  (void)cat2.AddTable(TableDef("R", {"A", "B"}));
  (void)cat2.AddTable(TableDef("S", {"C", "D"}));
  Database db = MakeRandomDatabase(cat2, 2000, 200, 3);
  Query big_q = Unwrap(ParseQuery("SELECT A1, COUNT(D1) FROM R(A1, B1), "
                                  "S(C1, D1) WHERE B1 = C1 GROUPBY A1"),
                       "parse");
  ViewRegistry lib;
  (void)lib.Register(Unwrap(
      ParseView("CREATE VIEW VR AS SELECT A2, B2 FROM R(A2, B2)"), "vr"));
  (void)lib.Register(Unwrap(
      ParseView("CREATE VIEW VS AS SELECT C2, D2 FROM S(C2, D2)"), "vs"));
  (void)lib.Register(Unwrap(
      ParseView("CREATE VIEW VJOIN AS SELECT A2, D2 FROM R(A2, B2), "
                "S(C2, D2) WHERE B2 = C2"),
      "vjoin"));
  (void)lib.Register(Unwrap(
      ParseView("CREATE VIEW VAGG AS SELECT A2, COUNT(B2) FROM R(A2, B2) "
                "GROUPBY A2"),
      "vagg"));  // unusable here: the query's join column is aggregated away
  Rewriter rewriter(&lib);
  std::vector<Query> all = Unwrap(
      rewriter.EnumerateAllRewritings(big_q, {"VR", "VS", "VJOIN", "VAGG"}),
      "enumerate");
  // Materialize the library so the cost model can price the candidates.
  Evaluator eval(&db, &lib);
  for (const char* name : {"VR", "VS", "VJOIN", "VAGG"}) {
    db.Put(name, Unwrap(eval.MaterializeView(name), "materialize"));
  }
  CostModel model;
  std::printf("%zu distinct rewritings:\n", all.size());
  for (const Query& q : all) {
    std::printf("  cost %10.0f  %s\n", model.Estimate(q, db), ToSql(q).c_str());
  }
  PlanCandidates candidates{big_q, all};
  PlanChoice choice = ChoosePlan(candidates, db);
  const Query& best = ChosenQuery(candidates, choice);
  std::printf("chosen (%s): %s\n",
              choice.index < 0 ? "original" : "rewriting", ToSql(best).c_str());

  // Sanity: the chosen plan computes the same answer.
  Evaluator check(&db, &lib);
  Table lhs = Unwrap(check.Execute(big_q), "run Q");
  Table rhs = Unwrap(check.Execute(best), "run best");
  std::printf("answers agree: %s\n",
              MultisetEqual(lhs, rhs) ? "yes" : "NO (bug!)");
  return MultisetEqual(lhs, rhs) ? 0 : 1;
}
