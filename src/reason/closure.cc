#include "reason/closure.h"

#include <algorithm>

namespace aqv {

namespace {

// Strongest of two order relations.
ConstraintClosure::Rel Strongest(ConstraintClosure::Rel a,
                                 ConstraintClosure::Rel b);

}  // namespace

int ConstraintClosure::TermIndex(const Operand& term) const {
  if (term.is_column()) {
    auto it = column_index_.find(term.column);
    return it == column_index_.end() ? -1 : it->second;
  }
  for (int t : constant_terms_) {
    if (terms_[t].constant == term.constant) return t;
  }
  return -1;
}

int ConstraintClosure::Find(int term) const {
  while (parent_[term] != term) term = parent_[term];
  return term;
}

ConstraintClosure::Rel ConstraintClosure::RelBetween(int root_a,
                                                     int root_b) const {
  return rel_[root_a][root_b];
}

bool ConstraintClosure::NotEqual(int root_a, int root_b) const {
  if (root_a == root_b) return false;
  auto key = root_a < root_b ? std::make_pair(root_a, root_b)
                             : std::make_pair(root_b, root_a);
  return neq_.count(key) > 0;
}

namespace {

ConstraintClosure::Rel Strongest(ConstraintClosure::Rel a,
                                 ConstraintClosure::Rel b) {
  return static_cast<ConstraintClosure::Rel>(std::max(static_cast<int>(a),
                                                      static_cast<int>(b)));
}

// Composition of order relations along a path: any < makes the result <.
ConstraintClosure::Rel Compose(ConstraintClosure::Rel a,
                               ConstraintClosure::Rel b) {
  if (a == ConstraintClosure::kNone || b == ConstraintClosure::kNone) {
    return ConstraintClosure::kNone;
  }
  if (a == ConstraintClosure::kLt || b == ConstraintClosure::kLt) {
    return ConstraintClosure::kLt;
  }
  return ConstraintClosure::kLe;
}

// Ground relation between two constants: -1 unsupported (cross-family),
// otherwise sets *eq / *lt for a<b.
void ConstantRelation(const Value& a, const Value& b, bool* eq, bool* lt,
                      bool* comparable) {
  *eq = a.SqlEquals(b);
  bool numeric = a.is_numeric() && b.is_numeric();
  bool strings =
      a.type() == ValueType::kString && b.type() == ValueType::kString;
  *comparable = numeric || strings;
  if (*comparable && !*eq) {
    *lt = a.Compare(b) < 0;
  } else {
    *lt = false;
  }
}

}  // namespace

Result<ConstraintClosure> ConstraintClosure::Build(
    const std::vector<Predicate>& conds) {
  ConstraintClosure c;
  AQV_RETURN_NOT_OK(c.AddAtoms(conds));
  c.Saturate();
  return c;
}

Status ConstraintClosure::AddAtoms(const std::vector<Predicate>& conds) {
  // Pass 1: register terms.
  auto register_term = [this](const Operand& o) {
    if (o.is_column()) {
      if (column_index_.count(o.column) == 0) {
        column_index_[o.column] = static_cast<int>(terms_.size());
        terms_.push_back(o);
      }
    } else {
      if (TermIndex(o) < 0) {
        constant_terms_.push_back(static_cast<int>(terms_.size()));
        terms_.push_back(o);
      }
    }
  };
  for (const Predicate& p : conds) {
    if (!p.IsScalar()) {
      return Status::InvalidArgument(
          "aggregate operand in scalar condition set: " + p.ToString());
    }
    register_term(p.lhs);
    register_term(p.rhs);
  }

  int n = static_cast<int>(terms_.size());
  parent_.resize(n);
  for (int i = 0; i < n; ++i) parent_[i] = i;
  rel_.assign(n, std::vector<Rel>(n, kNone));

  // Ground truth between constants.
  for (size_t i = 0; i < constant_terms_.size(); ++i) {
    for (size_t j = i + 1; j < constant_terms_.size(); ++j) {
      int a = constant_terms_[i], b = constant_terms_[j];
      bool eq, lt, comparable;
      ConstantRelation(terms_[a].constant, terms_[b].constant, &eq, &lt,
                       &comparable);
      if (eq) {
        parent_[Find(b)] = Find(a);
      } else {
        neq_.emplace(std::min(a, b), std::max(a, b));
        if (comparable) {
          if (lt) {
            rel_[a][b] = kLt;
          } else {
            rel_[b][a] = kLt;
          }
        }
      }
    }
  }

  // Seed the user's atoms.
  for (const Predicate& p : conds) {
    int a = TermIndex(p.lhs);
    int b = TermIndex(p.rhs);
    CmpOp op = p.op;
    switch (op) {
      case CmpOp::kEq:
        parent_[Find(b)] = Find(a);
        break;
      case CmpOp::kNe:
        if (a == b) {
          satisfiable_ = false;
        } else {
          neq_.emplace(std::min(a, b), std::max(a, b));
        }
        break;
      case CmpOp::kGt:
      case CmpOp::kGe:
        std::swap(a, b);
        op = FlipCmpOp(op);
        [[fallthrough]];
      case CmpOp::kLt:
      case CmpOp::kLe:
        if (a == b && op == CmpOp::kLt) {
          satisfiable_ = false;
        } else if (a != b) {
          rel_[a][b] = Strongest(rel_[a][b], op == CmpOp::kLt ? kLt : kLe);
        }
        break;
    }
  }
  return Status::OK();
}

void ConstraintClosure::Saturate() {
  int n = static_cast<int>(terms_.size());
  if (n == 0) return;

  bool changed = true;
  while (changed) {
    changed = false;

    // Canonicalize relations and disequalities onto current roots.
    std::vector<std::vector<Rel>> root_rel(n, std::vector<Rel>(n, kNone));
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (rel_[i][j] == kNone) continue;
        int ri = Find(i), rj = Find(j);
        if (ri == rj) {
          if (rel_[i][j] == kLt) satisfiable_ = false;
          continue;
        }
        root_rel[ri][rj] = Strongest(root_rel[ri][rj], rel_[i][j]);
      }
    }
    rel_ = std::move(root_rel);

    std::set<std::pair<int, int>> root_neq;
    for (const auto& [a, b] : neq_) {
      int ra = Find(a), rb = Find(b);
      if (ra == rb) {
        satisfiable_ = false;
        continue;
      }
      root_neq.emplace(std::min(ra, rb), std::max(ra, rb));
    }
    neq_ = std::move(root_neq);

    // Transitive saturation over roots (Floyd–Warshall with Compose).
    std::vector<int> roots;
    for (int i = 0; i < n; ++i) {
      if (Find(i) == i) roots.push_back(i);
    }
    for (int k : roots) {
      for (int i : roots) {
        if (rel_[i][k] == kNone) continue;
        for (int j : roots) {
          Rel through = Compose(rel_[i][k], rel_[k][j]);
          if (through != kNone && Strongest(rel_[i][j], through) != rel_[i][j]) {
            rel_[i][j] = Strongest(rel_[i][j], through);
          }
        }
      }
    }

    // Derive consequences: antisymmetry merges; <= plus <> becomes <;
    // a path a < ... < a is a contradiction.
    for (int i : roots) {
      if (rel_[i][i] == kLt) satisfiable_ = false;
      for (int j : roots) {
        if (i >= j) continue;
        bool fwd = rel_[i][j] != kNone, bwd = rel_[j][i] != kNone;
        if (rel_[i][j] == kLt && rel_[j][i] != kNone) satisfiable_ = false;
        if (rel_[j][i] == kLt && rel_[i][j] != kNone) satisfiable_ = false;
        if (rel_[i][j] == kLe && rel_[j][i] == kLe) {
          // i <= j and j <= i: merge the classes.
          parent_[j] = i;
          changed = true;
          continue;
        }
        bool ne = neq_.count({i, j}) > 0;
        if (ne) {
          if (rel_[i][j] == kLe) {
            rel_[i][j] = kLt;
            changed = true;
          }
          if (rel_[j][i] == kLe) {
            rel_[j][i] = kLt;
            changed = true;
          }
        }
        (void)fwd;
        (void)bwd;
      }
    }

    // Two distinct constants in one class is a contradiction (covers both
    // user-asserted equality chains and merges from antisymmetry).
    for (size_t i = 0; i < constant_terms_.size(); ++i) {
      for (size_t j = i + 1; j < constant_terms_.size(); ++j) {
        int a = constant_terms_[i], b = constant_terms_[j];
        if (Find(a) == Find(b) &&
            !terms_[a].constant.SqlEquals(terms_[b].constant)) {
          satisfiable_ = false;
        }
      }
    }
  }
}

namespace {

// Truth of `a op b` for two known constant values.
bool EvalGroundAtom(const Value& a, CmpOp op, const Value& b) {
  bool eq, lt, comparable;
  ConstantRelation(a, b, &eq, &lt, &comparable);
  switch (op) {
    case CmpOp::kEq:
      return eq;
    case CmpOp::kNe:
      return !eq;
    case CmpOp::kLt:
      return comparable && lt;
    case CmpOp::kLe:
      return eq || (comparable && lt);
    case CmpOp::kGt:
      return comparable && !eq && !lt;
    case CmpOp::kGe:
      return eq || (comparable && !eq && !lt);
  }
  return false;
}

}  // namespace

bool ConstraintClosure::Implies(const Predicate& atom) const {
  if (!satisfiable_) return true;
  if (!atom.IsScalar()) return false;

  // Atoms whose operands both have known constant values — constants
  // themselves, or columns pinned to a constant by the conjunction — are
  // decided on ground values. This covers constants that never occur in the
  // conjunction (e.g. A = 5 entails A < 7).
  auto ground_value = [this](const Operand& o) -> std::optional<Value> {
    if (o.is_constant()) return o.constant;
    auto it = column_index_.find(o.column);
    if (it == column_index_.end()) return std::nullopt;
    int root = Find(it->second);
    for (int t : constant_terms_) {
      if (Find(t) == root) return terms_[t].constant;
    }
    return std::nullopt;
  };
  std::optional<Value> ga = ground_value(atom.lhs);
  std::optional<Value> gb = ground_value(atom.rhs);
  if (ga && gb) return EvalGroundAtom(*ga, atom.op, *gb);

  // Bound-based entailment for a column compared against a constant the
  // conjunction never mentions: a known bound through some constant of the
  // conjunction composes with the ground relation between the two constants
  // (e.g. A < 5 entails A < 7; A > 2 entails A <> 1).
  {
    Operand col = atom.lhs, cst = atom.rhs;
    CmpOp op = atom.op;
    if (col.is_constant() && cst.is_column()) {
      std::swap(col, cst);
      op = FlipCmpOp(op);
    }
    auto cit = col.is_column() ? column_index_.find(col.column)
                               : column_index_.end();
    if (col.is_column() && cst.is_constant() && cit != column_index_.end()) {
      int r = Find(cit->second);
      const Value& k = cst.constant;
      for (int ct : constant_terms_) {
        int cr = Find(ct);
        const Value& c = terms_[ct].constant;
        bool a_lt_c = RelBetween(r, cr) == kLt;
        bool a_le_c = RelBetween(r, cr) != kNone;
        bool c_lt_a = RelBetween(cr, r) == kLt;
        bool c_le_a = RelBetween(cr, r) != kNone;
        bool above = (a_lt_c && EvalGroundAtom(c, CmpOp::kLe, k)) ||
                     (a_le_c && EvalGroundAtom(c, CmpOp::kLt, k));
        bool below = (c_lt_a && EvalGroundAtom(c, CmpOp::kGe, k)) ||
                     (c_le_a && EvalGroundAtom(c, CmpOp::kGt, k));
        switch (op) {
          case CmpOp::kLt:
            if (above) return true;
            break;
          case CmpOp::kLe:
            if (above || (a_le_c && EvalGroundAtom(c, CmpOp::kLe, k))) {
              return true;
            }
            break;
          case CmpOp::kGt:
            if (below) return true;
            break;
          case CmpOp::kGe:
            if (below || (c_le_a && EvalGroundAtom(c, CmpOp::kGe, k))) {
              return true;
            }
            break;
          case CmpOp::kNe:
            if (above || below) return true;
            if (NotEqual(r, cr) && EvalGroundAtom(c, CmpOp::kEq, k)) {
              return true;
            }
            break;
          case CmpOp::kEq:
            break;  // only a pinned constant decides equality (handled above)
        }
      }
    }
  }

  // Trivially true reflexive atoms.
  if (atom.lhs == atom.rhs &&
      (atom.op == CmpOp::kEq || atom.op == CmpOp::kLe || atom.op == CmpOp::kGe)) {
    return true;
  }

  int a = TermIndex(atom.lhs);
  int b = TermIndex(atom.rhs);
  if (a < 0 || b < 0) return false;  // unconstrained term
  int ra = Find(a), rb = Find(b);

  CmpOp op = atom.op;
  if (op == CmpOp::kGt || op == CmpOp::kGe) {
    std::swap(ra, rb);
    op = FlipCmpOp(op);
  }
  switch (op) {
    case CmpOp::kEq:
      return ra == rb;
    case CmpOp::kNe:
      return NotEqual(ra, rb) || (ra != rb && (RelBetween(ra, rb) == kLt ||
                                               RelBetween(rb, ra) == kLt));
    case CmpOp::kLt:
      return ra != rb && RelBetween(ra, rb) == kLt;
    case CmpOp::kLe:
      return ra == rb || RelBetween(ra, rb) != kNone;
    default:
      return false;
  }
}

bool ConstraintClosure::ImpliesAll(const std::vector<Predicate>& conds) const {
  for (const Predicate& p : conds) {
    if (!Implies(p)) return false;
  }
  return true;
}

bool ConstraintClosure::EquivalentTo(const std::vector<Predicate>& conds) const {
  if (!ImpliesAll(conds)) return false;
  Result<ConstraintClosure> other = Build(conds);
  if (!other.ok()) return false;
  // Gather this closure's defining atoms: we can reuse RestrictedAtoms with
  // an unrestricted column set.
  std::set<std::string> all;
  for (const auto& [name, idx] : column_index_) all.insert(name);
  return other->ImpliesAll(RestrictedAtoms(all));
}

bool ConstraintClosure::AreEqual(const Operand& a, const Operand& b) const {
  return Implies(Predicate{a, CmpOp::kEq, b});
}

std::vector<Predicate> ConstraintClosure::RestrictedAtoms(
    const std::set<std::string>& allowed) const {
  std::vector<Predicate> atoms;
  if (!satisfiable_) {
    atoms.push_back(Predicate{Operand::Constant(Value::Int64(0)), CmpOp::kEq,
                              Operand::Constant(Value::Int64(1))});
    return atoms;
  }

  int n = static_cast<int>(terms_.size());
  auto term_allowed = [&](int t) {
    return terms_[t].is_constant() || allowed.count(terms_[t].column) > 0;
  };

  // Representative per class: prefer a constant, else first allowed term.
  std::vector<int> rep(n, -1);
  for (int t = 0; t < n; ++t) {
    if (!term_allowed(t)) continue;
    int r = Find(t);
    if (rep[r] < 0 || (terms_[t].is_constant() && !terms_[rep[r]].is_constant())) {
      rep[r] = t;
    }
  }

  // Atoms are oriented column-first for readability ("D1 = 6", not
  // "6 = D1").
  auto oriented = [](Operand a, CmpOp op, Operand b) {
    if (a.is_constant() && b.is_column()) {
      std::swap(a, b);
      op = FlipCmpOp(op);
    }
    return Predicate{std::move(a), op, std::move(b)};
  };

  // Equalities within a class: rep = member.
  for (int t = 0; t < n; ++t) {
    if (!term_allowed(t)) continue;
    int r = rep[Find(t)];
    if (r != t && !(terms_[r].is_constant() && terms_[t].is_constant())) {
      atoms.push_back(oriented(terms_[r], CmpOp::kEq, terms_[t]));
    }
  }

  // Cross-class relations between representatives.
  for (int i = 0; i < n; ++i) {
    if (Find(i) != i || rep[i] < 0) continue;
    for (int j = 0; j < n; ++j) {
      if (i == j || Find(j) != j || rep[j] < 0) continue;
      int ti = rep[i], tj = rep[j];
      if (terms_[ti].is_constant() && terms_[tj].is_constant()) continue;
      Rel r = RelBetween(i, j);
      if (r == kLt) {
        atoms.push_back(oriented(terms_[ti], CmpOp::kLt, terms_[tj]));
      } else if (r == kLe) {
        atoms.push_back(oriented(terms_[ti], CmpOp::kLe, terms_[tj]));
      }
      if (i < j && NotEqual(i, j) && r != kLt && RelBetween(j, i) != kLt) {
        atoms.push_back(oriented(terms_[ti], CmpOp::kNe, terms_[tj]));
      }
    }
  }
  return atoms;
}

std::vector<std::string> ConstraintClosure::EqualColumns(
    const std::string& column) const {
  std::vector<std::string> result;
  auto it = column_index_.find(column);
  if (it == column_index_.end()) return result;
  int root = Find(it->second);
  for (const auto& [name, idx] : column_index_) {
    if (Find(idx) == root) result.push_back(name);
  }
  return result;
}

std::optional<Value> ConstraintClosure::ConstantFor(
    const std::string& column) const {
  auto it = column_index_.find(column);
  if (it == column_index_.end()) return std::nullopt;
  int root = Find(it->second);
  for (int t : constant_terms_) {
    if (Find(t) == root) return terms_[t].constant;
  }
  return std::nullopt;
}

bool Implies(const std::vector<Predicate>& conds, const Predicate& atom) {
  Result<ConstraintClosure> c = ConstraintClosure::Build(conds);
  return c.ok() && c->Implies(atom);
}

bool Equivalent(const std::vector<Predicate>& a,
                const std::vector<Predicate>& b) {
  Result<ConstraintClosure> ca = ConstraintClosure::Build(a);
  return ca.ok() && ca->EquivalentTo(b);
}

bool Satisfiable(const std::vector<Predicate>& conds) {
  Result<ConstraintClosure> c = ConstraintClosure::Build(conds);
  return c.ok() && c->satisfiable();
}

}  // namespace aqv
