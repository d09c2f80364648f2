#include <random>
#include <set>

#include <gtest/gtest.h>

#include "reason/closure.h"
#include "tests/test_util.h"

namespace aqv {
namespace {

Operand Col(const std::string& c) { return Operand::Column(c); }
Operand Int(int64_t v) { return Operand::Constant(Value::Int64(v)); }

Predicate P(Operand a, CmpOp op, Operand b) {
  return Predicate{std::move(a), op, std::move(b)};
}

TEST(ClosureTest, EmptyConjunctionEntailsOnlyTautologies) {
  ASSERT_OK_AND_ASSIGN(ConstraintClosure c, ConstraintClosure::Build({}));
  EXPECT_TRUE(c.satisfiable());
  EXPECT_TRUE(c.Implies(P(Col("A"), CmpOp::kEq, Col("A"))));
  EXPECT_TRUE(c.Implies(P(Col("A"), CmpOp::kLe, Col("A"))));
  EXPECT_TRUE(c.Implies(P(Col("A"), CmpOp::kGe, Col("A"))));
  EXPECT_FALSE(c.Implies(P(Col("A"), CmpOp::kLt, Col("A"))));
  EXPECT_FALSE(c.Implies(P(Col("A"), CmpOp::kEq, Col("B"))));
  // Ground facts about constants hold vacuously.
  EXPECT_TRUE(c.Implies(P(Int(1), CmpOp::kLt, Int(2))));
  EXPECT_FALSE(c.Implies(P(Int(2), CmpOp::kLt, Int(1))));
  EXPECT_TRUE(c.Implies(P(Int(1), CmpOp::kNe, Int(2))));
}

// Constants beyond 2^53 that share a double are still distinct: A = 2^53
// and A = 2^53 + 1 together are unsatisfiable.
TEST(ClosureTest, Int64ConstantsAreComparedExactly) {
  ASSERT_OK_AND_ASSIGN(
      ConstraintClosure c,
      ConstraintClosure::Build({P(Col("A"), CmpOp::kEq, Int(9007199254740992)),
                                P(Col("A"), CmpOp::kEq,
                                  Int(9007199254740993))}));
  EXPECT_FALSE(c.satisfiable());
  ASSERT_OK_AND_ASSIGN(ConstraintClosure d, ConstraintClosure::Build({}));
  EXPECT_TRUE(
      d.Implies(P(Int(9007199254740992), CmpOp::kLt, Int(9007199254740993))));
}

TEST(ClosureTest, EqualityIsTransitive) {
  ASSERT_OK_AND_ASSIGN(
      ConstraintClosure c,
      ConstraintClosure::Build({P(Col("A"), CmpOp::kEq, Col("B")),
                                P(Col("B"), CmpOp::kEq, Col("C"))}));
  EXPECT_TRUE(c.Implies(P(Col("A"), CmpOp::kEq, Col("C"))));
  EXPECT_TRUE(c.AreEqual(Col("C"), Col("A")));
  EXPECT_FALSE(c.Implies(P(Col("A"), CmpOp::kNe, Col("C"))));
}

TEST(ClosureTest, EqualityPropagatesConstants) {
  ASSERT_OK_AND_ASSIGN(
      ConstraintClosure c,
      ConstraintClosure::Build({P(Col("A"), CmpOp::kEq, Col("B")),
                                P(Col("B"), CmpOp::kEq, Int(5))}));
  EXPECT_TRUE(c.Implies(P(Col("A"), CmpOp::kEq, Int(5))));
  EXPECT_TRUE(c.Implies(P(Col("A"), CmpOp::kNe, Int(6))));
  EXPECT_TRUE(c.Implies(P(Col("A"), CmpOp::kLt, Int(7))));
  EXPECT_TRUE(c.Implies(P(Col("A"), CmpOp::kGt, Int(3))));
  ASSERT_TRUE(c.ConstantFor("A").has_value());
  EXPECT_EQ(*c.ConstantFor("A"), Value::Int64(5));
}

TEST(ClosureTest, OrderIsTransitiveAndStrictens) {
  ASSERT_OK_AND_ASSIGN(
      ConstraintClosure c,
      ConstraintClosure::Build({P(Col("A"), CmpOp::kLe, Col("B")),
                                P(Col("B"), CmpOp::kLt, Col("C")),
                                P(Col("C"), CmpOp::kLe, Col("D"))}));
  EXPECT_TRUE(c.Implies(P(Col("A"), CmpOp::kLt, Col("D"))));
  EXPECT_TRUE(c.Implies(P(Col("A"), CmpOp::kLe, Col("D"))));
  EXPECT_TRUE(c.Implies(P(Col("A"), CmpOp::kNe, Col("D"))));  // via <
  EXPECT_TRUE(c.Implies(P(Col("D"), CmpOp::kGt, Col("A"))));
  EXPECT_FALSE(c.Implies(P(Col("A"), CmpOp::kLt, Col("B"))));
}

TEST(ClosureTest, AntisymmetryMergesClasses) {
  ASSERT_OK_AND_ASSIGN(
      ConstraintClosure c,
      ConstraintClosure::Build({P(Col("A"), CmpOp::kLe, Col("B")),
                                P(Col("B"), CmpOp::kLe, Col("A"))}));
  EXPECT_TRUE(c.Implies(P(Col("A"), CmpOp::kEq, Col("B"))));
}

TEST(ClosureTest, LeAndNeGiveLt) {
  ASSERT_OK_AND_ASSIGN(
      ConstraintClosure c,
      ConstraintClosure::Build({P(Col("A"), CmpOp::kLe, Col("B")),
                                P(Col("A"), CmpOp::kNe, Col("B"))}));
  EXPECT_TRUE(c.Implies(P(Col("A"), CmpOp::kLt, Col("B"))));
}

TEST(ClosureTest, ConstantsBoundColumnsThroughOrder) {
  ASSERT_OK_AND_ASSIGN(
      ConstraintClosure c,
      ConstraintClosure::Build({P(Col("A"), CmpOp::kLe, Int(5)),
                                P(Int(7), CmpOp::kLe, Col("B"))}));
  EXPECT_TRUE(c.Implies(P(Col("A"), CmpOp::kLt, Col("B"))));
  EXPECT_TRUE(c.Implies(P(Col("A"), CmpOp::kNe, Col("B"))));
}

TEST(ClosureTest, UnsatDetection) {
  struct Case {
    std::vector<Predicate> conds;
  };
  std::vector<Case> cases = {
      {{P(Col("A"), CmpOp::kLt, Col("A"))}},
      {{P(Col("A"), CmpOp::kNe, Col("A"))}},
      {{P(Col("A"), CmpOp::kLt, Col("B")), P(Col("B"), CmpOp::kLt, Col("A"))}},
      {{P(Col("A"), CmpOp::kEq, Int(1)), P(Col("A"), CmpOp::kEq, Int(2))}},
      {{P(Col("A"), CmpOp::kLt, Int(1)), P(Col("A"), CmpOp::kGt, Int(2))}},
      {{P(Col("A"), CmpOp::kEq, Col("B")), P(Col("B"), CmpOp::kEq, Col("C")),
        P(Col("A"), CmpOp::kNe, Col("C"))}},
      {{P(Col("A"), CmpOp::kLe, Col("B")), P(Col("B"), CmpOp::kLe, Col("A")),
        P(Col("A"), CmpOp::kNe, Col("B"))}},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    ASSERT_OK_AND_ASSIGN(ConstraintClosure c,
                         ConstraintClosure::Build(cases[i].conds));
    EXPECT_FALSE(c.satisfiable()) << "case " << i;
    EXPECT_FALSE(Satisfiable(cases[i].conds)) << "case " << i;
    // Ex falso quodlibet.
    EXPECT_TRUE(c.Implies(P(Col("Z"), CmpOp::kLt, Col("Z")))) << "case " << i;
  }
}

TEST(ClosureTest, SatisfiableCases) {
  EXPECT_TRUE(Satisfiable({P(Col("A"), CmpOp::kLe, Col("B")),
                           P(Col("B"), CmpOp::kLe, Col("A"))}));
  EXPECT_TRUE(Satisfiable({P(Col("A"), CmpOp::kLt, Int(5)),
                           P(Col("A"), CmpOp::kGt, Int(3))}));
  EXPECT_TRUE(Satisfiable({}));
}

TEST(ClosureTest, UnknownTermsAreUnconstrained) {
  ASSERT_OK_AND_ASSIGN(ConstraintClosure c, ConstraintClosure::Build(
                                                {P(Col("A"), CmpOp::kEq, Int(1))}));
  EXPECT_FALSE(c.Implies(P(Col("Z"), CmpOp::kEq, Int(1))));
  EXPECT_TRUE(c.Implies(P(Col("Z"), CmpOp::kEq, Col("Z"))));
}

TEST(ClosureTest, EquivalentToIsMutualEntailment) {
  std::vector<Predicate> a = {P(Col("A"), CmpOp::kEq, Col("B")),
                              P(Col("B"), CmpOp::kEq, Col("C"))};
  std::vector<Predicate> b = {P(Col("A"), CmpOp::kEq, Col("C")),
                              P(Col("C"), CmpOp::kEq, Col("B"))};
  std::vector<Predicate> weaker = {P(Col("A"), CmpOp::kEq, Col("C"))};
  EXPECT_TRUE(Equivalent(a, b));
  EXPECT_FALSE(Equivalent(a, weaker));
  ASSERT_OK_AND_ASSIGN(ConstraintClosure ca, ConstraintClosure::Build(a));
  EXPECT_TRUE(ca.ImpliesAll(weaker));
}

TEST(ClosureTest, EqualColumns) {
  ASSERT_OK_AND_ASSIGN(
      ConstraintClosure c,
      ConstraintClosure::Build({P(Col("A"), CmpOp::kEq, Col("B")),
                                P(Col("C"), CmpOp::kLt, Col("A"))}));
  std::vector<std::string> eq = c.EqualColumns("B");
  EXPECT_EQ(eq, (std::vector<std::string>{"A", "B"}));
  EXPECT_TRUE(c.EqualColumns("missing").empty());
}

TEST(ClosureTest, RestrictedAtomsProjectsClosure) {
  // A = B, B = C, C < D: restricted to {A, D} we should still learn A < D.
  ASSERT_OK_AND_ASSIGN(
      ConstraintClosure c,
      ConstraintClosure::Build({P(Col("A"), CmpOp::kEq, Col("B")),
                                P(Col("B"), CmpOp::kEq, Col("C")),
                                P(Col("C"), CmpOp::kLt, Col("D"))}));
  std::vector<Predicate> atoms = c.RestrictedAtoms({"A", "D"});
  ASSERT_OK_AND_ASSIGN(ConstraintClosure projected,
                       ConstraintClosure::Build(atoms));
  EXPECT_TRUE(projected.Implies(P(Col("A"), CmpOp::kLt, Col("D"))));
  // Nothing about B and C leaks through.
  for (const Predicate& atom : atoms) {
    for (const std::string& col : atom.ReferencedColumns()) {
      EXPECT_TRUE(col == "A" || col == "D") << atom.ToString();
    }
  }
}

TEST(ClosureTest, RestrictedAtomsCarryConstants) {
  ASSERT_OK_AND_ASSIGN(
      ConstraintClosure c,
      ConstraintClosure::Build({P(Col("A"), CmpOp::kEq, Col("B")),
                                P(Col("B"), CmpOp::kEq, Int(5))}));
  std::vector<Predicate> atoms = c.RestrictedAtoms({"A"});
  ASSERT_OK_AND_ASSIGN(ConstraintClosure projected,
                       ConstraintClosure::Build(atoms));
  EXPECT_TRUE(projected.Implies(P(Col("A"), CmpOp::kEq, Int(5))));
}

TEST(ClosureTest, RestrictedAtomsOfUnsatIsFalse) {
  ASSERT_OK_AND_ASSIGN(ConstraintClosure c,
                       ConstraintClosure::Build({P(Col("A"), CmpOp::kLt, Col("A"))}));
  std::vector<Predicate> atoms = c.RestrictedAtoms({});
  ASSERT_EQ(atoms.size(), 1u);
  EXPECT_FALSE(Satisfiable(atoms));
}

TEST(ClosureTest, RejectsAggregateOperands) {
  std::vector<Predicate> conds = {
      P(Operand::Aggregate(AggFn::kSum, "B"), CmpOp::kLt, Int(10))};
  EXPECT_FALSE(ConstraintClosure::Build(conds).ok());
}

TEST(ClosureTest, MixedTypeConstantsNeverEqual) {
  ASSERT_OK_AND_ASSIGN(
      ConstraintClosure c,
      ConstraintClosure::Build(
          {P(Col("A"), CmpOp::kEq, Int(1)),
           P(Col("B"), CmpOp::kEq, Operand::Constant(Value::String("1")))}));
  EXPECT_TRUE(c.satisfiable());
  EXPECT_TRUE(c.Implies(P(Col("A"), CmpOp::kNe, Col("B"))));
}

TEST(ClosureTest, IntAndDoubleConstantsUnify) {
  ASSERT_OK_AND_ASSIGN(
      ConstraintClosure c,
      ConstraintClosure::Build(
          {P(Col("A"), CmpOp::kEq, Int(5)),
           P(Col("B"), CmpOp::kEq, Operand::Constant(Value::Double(5.0)))}));
  EXPECT_TRUE(c.satisfiable());
  EXPECT_TRUE(c.Implies(P(Col("A"), CmpOp::kEq, Col("B"))));
}


TEST(ClosureTest, BoundEntailmentWithFreshConstants) {
  // Constants never mentioned in the conjunction are decided through known
  // bounds: A < 5 entails A < 7, A <= 7, A <> 7 — but not A < 3.
  ASSERT_OK_AND_ASSIGN(ConstraintClosure c,
                       ConstraintClosure::Build({P(Col("A"), CmpOp::kLt, Int(5))}));
  EXPECT_TRUE(c.Implies(P(Col("A"), CmpOp::kLt, Int(7))));
  EXPECT_TRUE(c.Implies(P(Col("A"), CmpOp::kLe, Int(7))));
  EXPECT_TRUE(c.Implies(P(Col("A"), CmpOp::kNe, Int(7))));
  EXPECT_TRUE(c.Implies(P(Int(7), CmpOp::kGt, Col("A"))));  // flipped form
  EXPECT_FALSE(c.Implies(P(Col("A"), CmpOp::kLt, Int(3))));
  EXPECT_FALSE(c.Implies(P(Col("A"), CmpOp::kGt, Int(3))));
  EXPECT_FALSE(c.Implies(P(Col("A"), CmpOp::kEq, Int(4))));
}

TEST(ClosureTest, BoundEntailmentLowerSide) {
  ASSERT_OK_AND_ASSIGN(ConstraintClosure c,
                       ConstraintClosure::Build({P(Col("A"), CmpOp::kGe, Int(2))}));
  EXPECT_TRUE(c.Implies(P(Col("A"), CmpOp::kGt, Int(1))));
  EXPECT_TRUE(c.Implies(P(Col("A"), CmpOp::kGe, Int(1))));
  EXPECT_TRUE(c.Implies(P(Col("A"), CmpOp::kNe, Int(1))));
  EXPECT_FALSE(c.Implies(P(Col("A"), CmpOp::kGt, Int(2))));  // could equal 2
  EXPECT_FALSE(c.Implies(P(Col("A"), CmpOp::kNe, Int(2))));
}

TEST(ClosureTest, BoundEntailmentThroughChains) {
  // A < B and B < 4 bound A even though A has no direct constant atom.
  ASSERT_OK_AND_ASSIGN(
      ConstraintClosure c,
      ConstraintClosure::Build({P(Col("A"), CmpOp::kLt, Col("B")),
                                P(Col("B"), CmpOp::kLt, Int(4))}));
  EXPECT_TRUE(c.Implies(P(Col("A"), CmpOp::kLt, Int(9))));
  EXPECT_TRUE(c.Implies(P(Col("A"), CmpOp::kLt, Int(4))));
  EXPECT_FALSE(c.Implies(P(Col("A"), CmpOp::kLt, Int(2))));
}

TEST(ClosureTest, PinnedColumnDecidesFreshConstantAtoms) {
  ASSERT_OK_AND_ASSIGN(
      ConstraintClosure c,
      ConstraintClosure::Build({P(Col("A"), CmpOp::kEq, Col("B")),
                                P(Col("B"), CmpOp::kEq, Int(5))}));
  EXPECT_TRUE(c.Implies(P(Col("A"), CmpOp::kLt, Int(7))));
  EXPECT_TRUE(c.Implies(P(Col("A"), CmpOp::kGe, Int(5))));
  EXPECT_TRUE(c.Implies(P(Col("A"), CmpOp::kNe, Int(6))));
  EXPECT_FALSE(c.Implies(P(Col("A"), CmpOp::kEq, Int(6))));
  // Two pinned columns compare on ground values.
  ASSERT_OK_AND_ASSIGN(
      ConstraintClosure c2,
      ConstraintClosure::Build({P(Col("A"), CmpOp::kEq, Int(5)),
                                P(Col("B"), CmpOp::kEq, Int(9))}));
  EXPECT_TRUE(c2.Implies(P(Col("A"), CmpOp::kLt, Col("B"))));
}

TEST(ClosureTest, NeRouteThroughEqualConstant) {
  // A <> 5 and the probe constant equals 5 numerically (5.0).
  ASSERT_OK_AND_ASSIGN(ConstraintClosure c,
                       ConstraintClosure::Build({P(Col("A"), CmpOp::kNe, Int(5))}));
  EXPECT_TRUE(c.Implies(P(Col("A"), CmpOp::kNe,
                          Operand::Constant(Value::Double(5.0)))));
  EXPECT_FALSE(c.Implies(P(Col("A"), CmpOp::kNe, Int(6))));
}

// Property sweep: closure idempotence — rebuilding from RestrictedAtoms over
// all columns yields an equivalent constraint set.
class ClosureIdempotenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ClosureIdempotenceTest, RebuildEquivalent) {
  std::mt19937_64 rng(GetParam());
  const std::vector<std::string> cols = {"A", "B", "C", "D", "E"};
  const std::vector<CmpOp> ops = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                                  CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
  std::vector<Predicate> conds;
  int n = 1 + static_cast<int>(rng() % 6);
  std::set<std::string> used;
  for (int i = 0; i < n; ++i) {
    Operand lhs = Col(cols[rng() % cols.size()]);
    Operand rhs = (rng() % 3 == 0)
                      ? Int(static_cast<int64_t>(rng() % 4))
                      : Col(cols[rng() % cols.size()]);
    conds.push_back(P(lhs, ops[rng() % ops.size()], rhs));
    for (const std::string& c : conds.back().ReferencedColumns()) used.insert(c);
  }
  ASSERT_OK_AND_ASSIGN(ConstraintClosure c, ConstraintClosure::Build(conds));
  if (!c.satisfiable()) {
    EXPECT_FALSE(Satisfiable(c.RestrictedAtoms(used)));
    return;
  }
  std::vector<Predicate> atoms = c.RestrictedAtoms(used);
  EXPECT_TRUE(Equivalent(conds, atoms))
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, ClosureIdempotenceTest,
                         ::testing::Range(0, 60));

}  // namespace
}  // namespace aqv
