#include "parser/parser.h"

#include <cstdint>
#include <optional>
#include <vector>

#include "base/failpoint.h"
#include "base/strings.h"
#include "base/trace.h"
#include "ir/validate.h"
#include "parser/binder.h"
#include "parser/lexer.h"

namespace aqv {

namespace {

/// An integer literal token, negated when a sign token preceded it. INT64
/// min arrives already folded (the lexer takes `-9223372036854775808` as
/// one literal), so only its negation is out of range.
Result<int64_t> SignedInteger(bool negate, const Token& t) {
  if (!negate) return t.int_value;
  if (t.int_value == INT64_MIN) {
    return Status::InvalidArgument("negated literal is out of range at offset " +
                                   std::to_string(t.offset));
  }
  return -t.int_value;
}

std::optional<AggFn> AggFnFromName(const std::string& name) {
  if (EqualsIgnoreCase(name, "MIN")) return AggFn::kMin;
  if (EqualsIgnoreCase(name, "MAX")) return AggFn::kMax;
  if (EqualsIgnoreCase(name, "SUM")) return AggFn::kSum;
  if (EqualsIgnoreCase(name, "COUNT")) return AggFn::kCount;
  if (EqualsIgnoreCase(name, "AVG")) return AggFn::kAvg;
  return std::nullopt;
}

std::optional<CmpOp> CmpOpFromToken(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEq:
      return CmpOp::kEq;
    case TokenKind::kNe:
      return CmpOp::kNe;
    case TokenKind::kLt:
      return CmpOp::kLt;
    case TokenKind::kLe:
      return CmpOp::kLe;
    case TokenKind::kGt:
      return CmpOp::kGt;
    case TokenKind::kGe:
      return CmpOp::kGe;
    default:
      return std::nullopt;
  }
}

// An unresolved column reference.
struct RawRef {
  std::string qualifier;  // empty if bare
  std::string column;
};

// An unresolved aggregate argument: col [* col].
struct RawArg {
  RawRef column;
  std::optional<RawRef> multiplier;
};

// An unresolved SELECT item.
struct RawItem {
  enum class Kind { kColumn, kAggregate, kRatio } kind = Kind::kColumn;
  RawRef column;
  AggFn agg = AggFn::kMin;
  RawArg arg;
  RawArg den;
  std::string alias;
};

class Parser {
 public:
  Parser(std::vector<Token> tokens, const Catalog* catalog)
      : tokens_(std::move(tokens)), catalog_(catalog) {}

  Result<Query> ParseQueryBlock();
  Result<ViewDef> ParseViewStatement();
  Result<DeleteStatement> ParseDeleteStatement();
  Result<UpdateStatement> ParseUpdateStatement();

 private:
  const Token& Peek(size_t k = 0) const {
    size_t i = pos_ + k;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Next() {
    const Token& t = Peek();
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return t;
  }
  bool ConsumeKeyword(std::string_view keyword) {
    if (Peek().IsKeyword(keyword)) {
      Next();
      return true;
    }
    return false;
  }
  Status Expect(TokenKind kind, const char* what) {
    if (Peek().kind != kind) {
      return Status::InvalidArgument(std::string("expected ") + what +
                                     " at offset " +
                                     std::to_string(Peek().offset));
    }
    Next();
    return Status::OK();
  }

  // True when the next tokens start a clause keyword or the end of input.
  bool AtClauseBoundary() const {
    const Token& t = Peek();
    return t.kind == TokenKind::kEnd || t.IsKeyword("FROM") ||
           t.IsKeyword("WHERE") || t.IsKeyword("GROUPBY") ||
           t.IsKeyword("GROUP") || t.IsKeyword("HAVING");
  }

  Result<RawRef> ParseRawRef();
  Result<RawArg> ParseRawArg();
  Result<RawItem> ParseSelectItem();
  Status ParseFrom(Query* query, BindingScope* scope);
  Result<Operand> ParseOperand(const BindingScope& scope);
  Result<std::vector<Predicate>> ParseConjunction(const BindingScope& scope);
  /// Binds the DML target table's schema columns verbatim into `scope` (no
  /// per-occurrence renaming: DML predicates evaluate row-at-a-time against
  /// the stored layout, so the names must match the schema exactly).
  Result<const TableDef*> BindDmlTarget(const std::string& table,
                                        BindingScope* scope);
  Result<SetExpr> ParseSetExpr(const BindingScope& scope);
  /// Scalar-only WHERE tail shared by DELETE and UPDATE: optional, and no
  /// aggregate operands (there is no group to aggregate over).
  Result<std::vector<Predicate>> ParseDmlWhere(const BindingScope& scope,
                                               const char* verb);

  Result<std::string> Bind(const BindingScope& scope, const RawRef& ref) {
    return scope.Resolve(ref.qualifier, ref.column);
  }
  Result<AggArg> Bind(const BindingScope& scope, const RawArg& arg) {
    AggArg out;
    AQV_ASSIGN_OR_RETURN(out.column, Bind(scope, arg.column));
    if (arg.multiplier) {
      AQV_ASSIGN_OR_RETURN(out.multiplier, Bind(scope, *arg.multiplier));
    }
    return out;
  }

  std::vector<Token> tokens_;
  const Catalog* catalog_;
  size_t pos_ = 0;
  int occurrence_count_ = 0;
  NameGenerator default_aliases_;
};

Result<RawRef> Parser::ParseRawRef() {
  if (Peek().kind != TokenKind::kIdentifier) {
    return Status::InvalidArgument("expected a column reference at offset " +
                                   std::to_string(Peek().offset));
  }
  RawRef ref;
  ref.column = Next().text;
  if (Peek().kind == TokenKind::kDot) {
    Next();
    if (Peek().kind != TokenKind::kIdentifier) {
      return Status::InvalidArgument("expected a column after '.' at offset " +
                                     std::to_string(Peek().offset));
    }
    ref.qualifier = std::move(ref.column);
    ref.column = Next().text;
  }
  return ref;
}

Result<RawArg> Parser::ParseRawArg() {
  RawArg arg;
  AQV_ASSIGN_OR_RETURN(arg.column, ParseRawRef());
  if (Peek().kind == TokenKind::kStar) {
    Next();
    AQV_ASSIGN_OR_RETURN(RawRef mult, ParseRawRef());
    arg.multiplier = std::move(mult);
  }
  return arg;
}

Result<RawItem> Parser::ParseSelectItem() {
  RawItem item;
  std::optional<AggFn> fn;
  if (Peek().kind == TokenKind::kIdentifier &&
      Peek(1).kind == TokenKind::kLParen) {
    fn = AggFnFromName(Peek().text);
  }
  if (fn) {
    Next();  // function name
    AQV_RETURN_NOT_OK(Expect(TokenKind::kLParen, "'('"));
    AQV_ASSIGN_OR_RETURN(item.arg, ParseRawArg());
    AQV_RETURN_NOT_OK(Expect(TokenKind::kRParen, "')'"));
    item.kind = RawItem::Kind::kAggregate;
    item.agg = *fn;
    if (Peek().kind == TokenKind::kSlash) {
      // Ratio form: SUM(arg) / SUM(arg).
      if (*fn != AggFn::kSum) {
        return Status::InvalidArgument("ratio items must divide two SUMs");
      }
      Next();
      if (!(Peek().kind == TokenKind::kIdentifier &&
            AggFnFromName(Peek().text) == AggFn::kSum &&
            Peek(1).kind == TokenKind::kLParen)) {
        return Status::InvalidArgument("expected SUM(...) after '/'");
      }
      Next();
      AQV_RETURN_NOT_OK(Expect(TokenKind::kLParen, "'('"));
      AQV_ASSIGN_OR_RETURN(item.den, ParseRawArg());
      AQV_RETURN_NOT_OK(Expect(TokenKind::kRParen, "')'"));
      item.kind = RawItem::Kind::kRatio;
    }
  } else {
    AQV_ASSIGN_OR_RETURN(item.column, ParseRawRef());
    item.kind = RawItem::Kind::kColumn;
  }
  if (ConsumeKeyword("AS")) {
    if (Peek().kind != TokenKind::kIdentifier) {
      return Status::InvalidArgument("expected an alias after AS at offset " +
                                     std::to_string(Peek().offset));
    }
    item.alias = Next().text;
  }
  return item;
}

Status Parser::ParseFrom(Query* query, BindingScope* scope) {
  // FROM is where occurrences bind against the catalog (the Section 2
  // per-occurrence renaming), so this span is the "bind" stage.
  TraceSpan span("bind");
  while (true) {
    if (Peek().kind != TokenKind::kIdentifier) {
      return Status::InvalidArgument("expected a table name at offset " +
                                     std::to_string(Peek().offset));
    }
    std::string table = Next().text;
    ++occurrence_count_;
    TableRef ref;
    ref.table = table;
    if (Peek().kind == TokenKind::kLParen) {
      // Explicit notation: R1(A1, B1). Names are used verbatim.
      Next();
      std::vector<std::string> columns;
      while (true) {
        if (Peek().kind != TokenKind::kIdentifier) {
          return Status::InvalidArgument("expected a column name at offset " +
                                         std::to_string(Peek().offset));
        }
        columns.push_back(Next().text);
        if (Peek().kind == TokenKind::kComma) {
          Next();
          continue;
        }
        break;
      }
      AQV_RETURN_NOT_OK(Expect(TokenKind::kRParen, "')'"));
      std::string alias;
      if (Peek().kind == TokenKind::kIdentifier && !AtClauseBoundary() &&
          !Peek().IsKeyword("AS")) {
        alias = Next().text;
      } else if (ConsumeKeyword("AS")) {
        alias = Next().text;
      } else {
        // Defaulted alias: uniquify so explicit-notation self-joins parse
        // ("R1(A2, B2), R1(A3, B3)" — the columns are already unique, so
        // qualification is rarely needed anyway).
        alias = default_aliases_.Fresh(table);
      }
      AQV_RETURN_NOT_OK(scope->AddOccurrence(table, alias, columns, columns));
      ref.columns = std::move(columns);
    } else {
      // Catalog-bound notation: the occurrence's columns are renamed to
      // <Col>_<k> per the Section 2 convention.
      if (catalog_ == nullptr) {
        return Status::InvalidArgument(
            "FROM entry '" + table +
            "' has no column list and no catalog was provided");
      }
      AQV_ASSIGN_OR_RETURN(const TableDef* def, catalog_->GetTable(table));
      std::string alias = table;
      if (ConsumeKeyword("AS")) {
        if (Peek().kind != TokenKind::kIdentifier) {
          return Status::InvalidArgument("expected an alias after AS");
        }
        alias = Next().text;
      } else if (Peek().kind == TokenKind::kIdentifier && !AtClauseBoundary()) {
        alias = Next().text;
      }
      std::vector<std::string> unique;
      unique.reserve(def->columns().size());
      for (const std::string& c : def->columns()) {
        unique.push_back(c + "_" + std::to_string(occurrence_count_));
      }
      AQV_RETURN_NOT_OK(
          scope->AddOccurrence(table, alias, def->columns(), unique));
      ref.columns = std::move(unique);
    }
    query->from.push_back(std::move(ref));
    if (Peek().kind == TokenKind::kComma) {
      Next();
      continue;
    }
    break;
  }
  return Status::OK();
}

Result<Operand> Parser::ParseOperand(const BindingScope& scope) {
  // Optional sign prefix on numeric constants (`WHERE A_1 > -5`).
  if (Peek().kind == TokenKind::kMinus || Peek().kind == TokenKind::kPlus) {
    bool negate = Next().kind == TokenKind::kMinus;
    const Token& num = Peek();
    if (num.kind == TokenKind::kInteger) {
      AQV_ASSIGN_OR_RETURN(int64_t v, SignedInteger(negate, Next()));
      return Operand::Constant(Value::Int64(v));
    }
    if (num.kind == TokenKind::kFloat) {
      double v = Next().float_value;
      return Operand::Constant(Value::Double(negate ? -v : v));
    }
    return Status::InvalidArgument(
        "expected a numeric constant after the sign at offset " +
        std::to_string(num.offset));
  }
  const Token& t = Peek();
  switch (t.kind) {
    case TokenKind::kInteger: {
      int64_t v = Next().int_value;
      return Operand::Constant(Value::Int64(v));
    }
    case TokenKind::kFloat: {
      double v = Next().float_value;
      return Operand::Constant(Value::Double(v));
    }
    case TokenKind::kString: {
      std::string v = Next().text;
      return Operand::Constant(Value::String(std::move(v)));
    }
    case TokenKind::kIdentifier: {
      std::optional<AggFn> fn;
      if (Peek(1).kind == TokenKind::kLParen) fn = AggFnFromName(t.text);
      if (fn) {
        Next();
        AQV_RETURN_NOT_OK(Expect(TokenKind::kLParen, "'('"));
        AQV_ASSIGN_OR_RETURN(RawArg raw, ParseRawArg());
        AQV_RETURN_NOT_OK(Expect(TokenKind::kRParen, "')'"));
        AQV_ASSIGN_OR_RETURN(AggArg arg, Bind(scope, raw));
        return Operand::Aggregate(*fn, arg.column, arg.multiplier);
      }
      AQV_ASSIGN_OR_RETURN(RawRef raw, ParseRawRef());
      AQV_ASSIGN_OR_RETURN(std::string column, Bind(scope, raw));
      return Operand::Column(std::move(column));
    }
    default:
      return Status::InvalidArgument("expected an operand at offset " +
                                     std::to_string(t.offset));
  }
}

Result<std::vector<Predicate>> Parser::ParseConjunction(
    const BindingScope& scope) {
  std::vector<Predicate> preds;
  while (true) {
    Predicate p;
    AQV_ASSIGN_OR_RETURN(p.lhs, ParseOperand(scope));
    std::optional<CmpOp> op = CmpOpFromToken(Peek().kind);
    if (!op) {
      return Status::InvalidArgument("expected a comparison at offset " +
                                     std::to_string(Peek().offset));
    }
    Next();
    p.op = *op;
    AQV_ASSIGN_OR_RETURN(p.rhs, ParseOperand(scope));
    preds.push_back(std::move(p));
    if (ConsumeKeyword("AND")) continue;
    break;
  }
  return preds;
}

Result<Query> Parser::ParseQueryBlock() {
  if (!ConsumeKeyword("SELECT")) {
    return Status::InvalidArgument("query must start with SELECT");
  }
  Query query;
  query.distinct = ConsumeKeyword("DISTINCT");

  // SELECT items are parsed raw and bound after FROM is known.
  std::vector<RawItem> raw_items;
  while (true) {
    AQV_ASSIGN_OR_RETURN(RawItem item, ParseSelectItem());
    raw_items.push_back(std::move(item));
    if (Peek().kind == TokenKind::kComma) {
      Next();
      continue;
    }
    break;
  }

  if (!ConsumeKeyword("FROM")) {
    return Status::InvalidArgument("expected FROM at offset " +
                                   std::to_string(Peek().offset));
  }
  BindingScope scope;
  AQV_RETURN_NOT_OK(ParseFrom(&query, &scope));

  for (const RawItem& raw : raw_items) {
    switch (raw.kind) {
      case RawItem::Kind::kColumn: {
        AQV_ASSIGN_OR_RETURN(std::string col, Bind(scope, raw.column));
        query.select.push_back(SelectItem::MakeColumn(std::move(col), raw.alias));
        break;
      }
      case RawItem::Kind::kAggregate: {
        AQV_ASSIGN_OR_RETURN(AggArg arg, Bind(scope, raw.arg));
        std::string alias = raw.alias;
        if (alias.empty()) {
          alias = std::string(AggFnToString(raw.agg)) + "_" + arg.column;
        }
        query.select.push_back(SelectItem::MakeScaledAggregate(
            raw.agg, std::move(arg), std::move(alias)));
        break;
      }
      case RawItem::Kind::kRatio: {
        AQV_ASSIGN_OR_RETURN(AggArg num, Bind(scope, raw.arg));
        AQV_ASSIGN_OR_RETURN(AggArg den, Bind(scope, raw.den));
        std::string alias = raw.alias;
        if (alias.empty()) alias = "ratio_" + num.column;
        query.select.push_back(SelectItem::MakeRatio(
            std::move(num), std::move(den), std::move(alias)));
        break;
      }
    }
  }

  if (ConsumeKeyword("WHERE")) {
    AQV_ASSIGN_OR_RETURN(query.where, ParseConjunction(scope));
  }
  bool has_groupby = false;
  if (ConsumeKeyword("GROUPBY")) {
    has_groupby = true;
  } else if (Peek().IsKeyword("GROUP") && Peek(1).IsKeyword("BY")) {
    Next();
    Next();
    has_groupby = true;
  }
  if (has_groupby) {
    while (true) {
      AQV_ASSIGN_OR_RETURN(RawRef raw, ParseRawRef());
      AQV_ASSIGN_OR_RETURN(std::string col, Bind(scope, raw));
      query.group_by.push_back(std::move(col));
      if (Peek().kind == TokenKind::kComma) {
        Next();
        continue;
      }
      break;
    }
  }
  if (ConsumeKeyword("HAVING")) {
    AQV_ASSIGN_OR_RETURN(query.having, ParseConjunction(scope));
  }
  if (Peek().kind != TokenKind::kEnd) {
    return Status::InvalidArgument("unexpected trailing input at offset " +
                                   std::to_string(Peek().offset));
  }
  AQV_RETURN_NOT_OK(ValidateQuery(query));
  return query;
}

Result<const TableDef*> Parser::BindDmlTarget(const std::string& table,
                                              BindingScope* scope) {
  if (catalog_ == nullptr) {
    return Status::InvalidArgument(
        "DELETE/UPDATE need a catalog to bind '" + table + "' against");
  }
  AQV_ASSIGN_OR_RETURN(const TableDef* def, catalog_->GetTable(table));
  AQV_RETURN_NOT_OK(
      scope->AddOccurrence(table, table, def->columns(), def->columns()));
  return def;
}

Result<std::vector<Predicate>> Parser::ParseDmlWhere(const BindingScope& scope,
                                                     const char* verb) {
  std::vector<Predicate> where;
  if (ConsumeKeyword("WHERE")) {
    AQV_ASSIGN_OR_RETURN(where, ParseConjunction(scope));
    for (const Predicate& p : where) {
      if (!p.IsScalar()) {
        return Status::InvalidArgument(std::string(verb) +
                                       " predicates must be scalar (no "
                                       "aggregate terms)");
      }
    }
  }
  if (Peek().kind != TokenKind::kEnd) {
    return Status::InvalidArgument("unexpected trailing input at offset " +
                                   std::to_string(Peek().offset));
  }
  return where;
}

Result<DeleteStatement> Parser::ParseDeleteStatement() {
  if (!ConsumeKeyword("DELETE") || !ConsumeKeyword("FROM")) {
    return Status::InvalidArgument("expected DELETE FROM");
  }
  if (Peek().kind != TokenKind::kIdentifier) {
    return Status::InvalidArgument("expected a table name at offset " +
                                   std::to_string(Peek().offset));
  }
  DeleteStatement out;
  out.table = Next().text;
  BindingScope scope;
  AQV_RETURN_NOT_OK(BindDmlTarget(out.table, &scope).status());
  AQV_ASSIGN_OR_RETURN(out.where, ParseDmlWhere(scope, "DELETE"));
  return out;
}

Result<SetExpr> Parser::ParseSetExpr(const BindingScope& scope) {
  SetExpr expr;
  const Token& t = Peek();
  // A bare identifier that is not NULL is a column reference; everything
  // else (signed numerics, strings, NULL) is a literal.
  if (t.kind == TokenKind::kIdentifier && !t.IsKeyword("NULL")) {
    AQV_ASSIGN_OR_RETURN(RawRef raw, ParseRawRef());
    AQV_ASSIGN_OR_RETURN(expr.column, Bind(scope, raw));
    expr.kind = SetExpr::Kind::kColumn;
    char op = 0;
    if (Peek().kind == TokenKind::kPlus) op = '+';
    if (Peek().kind == TokenKind::kMinus) op = '-';
    if (Peek().kind == TokenKind::kStar) op = '*';
    if (op == 0) return expr;
    Next();
    expr.kind = SetExpr::Kind::kBinary;
    expr.op = op;
    // fall through to the literal right operand
  }
  bool negate = false;
  if (Peek().kind == TokenKind::kMinus || Peek().kind == TokenKind::kPlus) {
    negate = Next().kind == TokenKind::kMinus;
    if (Peek().kind != TokenKind::kInteger &&
        Peek().kind != TokenKind::kFloat) {
      return Status::InvalidArgument(
          "expected a numeric literal after the sign at offset " +
          std::to_string(Peek().offset));
    }
  }
  const Token& lit = Peek();
  switch (lit.kind) {
    case TokenKind::kInteger: {
      AQV_ASSIGN_OR_RETURN(int64_t v, SignedInteger(negate, Next()));
      expr.literal = Value::Int64(v);
      break;
    }
    case TokenKind::kFloat: {
      double v = Next().float_value;
      expr.literal = Value::Double(negate ? -v : v);
      break;
    }
    case TokenKind::kString:
      if (expr.kind == SetExpr::Kind::kBinary) {
        return Status::InvalidArgument(
            "UPDATE arithmetic takes a numeric right operand at offset " +
            std::to_string(lit.offset));
      }
      expr.literal = Value::String(Next().text);
      break;
    case TokenKind::kIdentifier:
      if (lit.IsKeyword("NULL") && expr.kind != SetExpr::Kind::kBinary) {
        Next();
        expr.literal = Value::Null();
        break;
      }
      [[fallthrough]];
    default:
      return Status::InvalidArgument(
          "expected a literal or column after '=' at offset " +
          std::to_string(lit.offset));
  }
  return expr;
}

Result<UpdateStatement> Parser::ParseUpdateStatement() {
  if (!ConsumeKeyword("UPDATE")) {
    return Status::InvalidArgument("expected UPDATE");
  }
  if (Peek().kind != TokenKind::kIdentifier) {
    return Status::InvalidArgument("expected a table name at offset " +
                                   std::to_string(Peek().offset));
  }
  UpdateStatement out;
  out.table = Next().text;
  BindingScope scope;
  AQV_RETURN_NOT_OK(BindDmlTarget(out.table, &scope).status());
  if (!ConsumeKeyword("SET")) {
    return Status::InvalidArgument("expected SET at offset " +
                                   std::to_string(Peek().offset));
  }
  while (true) {
    AQV_ASSIGN_OR_RETURN(RawRef raw, ParseRawRef());
    Assignment assign;
    AQV_ASSIGN_OR_RETURN(assign.column, Bind(scope, raw));
    for (const Assignment& prev : out.sets) {
      if (prev.column == assign.column) {
        return Status::InvalidArgument("column '" + assign.column +
                                       "' assigned twice in one UPDATE");
      }
    }
    if (Peek().kind != TokenKind::kEq) {
      return Status::InvalidArgument("expected '=' at offset " +
                                     std::to_string(Peek().offset));
    }
    Next();
    AQV_ASSIGN_OR_RETURN(assign.expr, ParseSetExpr(scope));
    out.sets.push_back(std::move(assign));
    if (Peek().kind == TokenKind::kComma) {
      Next();
      continue;
    }
    break;
  }
  AQV_ASSIGN_OR_RETURN(out.where, ParseDmlWhere(scope, "UPDATE"));
  return out;
}

Result<ViewDef> Parser::ParseViewStatement() {
  bool create = ConsumeKeyword("CREATE");
  ConsumeKeyword("MATERIALIZED");  // storing the view is the caller's call
  if (!create || !ConsumeKeyword("VIEW")) {
    return Status::InvalidArgument("expected CREATE VIEW");
  }
  if (Peek().kind != TokenKind::kIdentifier) {
    return Status::InvalidArgument("expected a view name");
  }
  std::string name = Next().text;
  if (!ConsumeKeyword("AS")) {
    return Status::InvalidArgument("expected AS after the view name");
  }
  AQV_ASSIGN_OR_RETURN(Query query, ParseQueryBlock());
  return ViewDef{std::move(name), std::move(query)};
}

}  // namespace

Result<Query> ParseQuery(std::string_view sql, const Catalog* catalog) {
  AQV_FAILPOINT("parse");
  TraceSpan span("parse");
  AQV_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  if (span.active()) span.AddAttr("tokens", static_cast<int>(tokens.size()));
  Parser parser(std::move(tokens), catalog);
  return parser.ParseQueryBlock();
}

Result<ViewDef> ParseView(std::string_view sql, const Catalog* catalog) {
  AQV_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens), catalog);
  return parser.ParseViewStatement();
}

Result<DeleteStatement> ParseDelete(std::string_view sql,
                                    const Catalog* catalog) {
  AQV_FAILPOINT("parse");
  AQV_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens), catalog);
  return parser.ParseDeleteStatement();
}

Result<UpdateStatement> ParseUpdate(std::string_view sql,
                                    const Catalog* catalog) {
  AQV_FAILPOINT("parse");
  AQV_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens), catalog);
  return parser.ParseUpdateStatement();
}

Result<InsertStatement> ParseInsert(std::string_view sql) {
  AQV_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  size_t pos = 0;
  auto peek = [&]() -> const Token& {
    return pos < tokens.size() ? tokens[pos] : tokens.back();
  };
  auto next = [&]() -> const Token& {
    const Token& t = peek();
    if (pos + 1 < tokens.size()) ++pos;
    return t;
  };
  auto consume_keyword = [&](std::string_view kw) {
    if (peek().IsKeyword(kw)) {
      next();
      return true;
    }
    return false;
  };
  auto parse_literal = [&]() -> Result<Value> {
    bool negate = false;
    if (peek().kind == TokenKind::kMinus || peek().kind == TokenKind::kPlus) {
      negate = next().kind == TokenKind::kMinus;
      if (peek().kind != TokenKind::kInteger &&
          peek().kind != TokenKind::kFloat) {
        return Status::InvalidArgument(
            "expected a numeric literal after the sign at offset " +
            std::to_string(peek().offset));
      }
    }
    const Token& t = peek();
    switch (t.kind) {
      case TokenKind::kInteger: {
        AQV_ASSIGN_OR_RETURN(int64_t v, SignedInteger(negate, next()));
        return Value::Int64(v);
      }
      case TokenKind::kFloat: {
        double v = next().float_value;
        return Value::Double(negate ? -v : v);
      }
      case TokenKind::kString:
        return Value::String(next().text);
      case TokenKind::kIdentifier:
        if (t.IsKeyword("NULL")) {
          next();
          return Value::Null();
        }
        [[fallthrough]];
      default:
        return Status::InvalidArgument("expected a literal at offset " +
                                       std::to_string(t.offset));
    }
  };

  if (!consume_keyword("INSERT") || !consume_keyword("INTO")) {
    return Status::InvalidArgument("expected INSERT INTO");
  }
  InsertStatement out;
  if (peek().kind != TokenKind::kIdentifier) {
    return Status::InvalidArgument("expected a table name at offset " +
                                   std::to_string(peek().offset));
  }
  out.table = next().text;
  if (!consume_keyword("VALUES")) {
    return Status::InvalidArgument("expected VALUES at offset " +
                                   std::to_string(peek().offset));
  }
  if (peek().kind != TokenKind::kLParen) {
    return Status::InvalidArgument(
        "expected at least one (tuple) after VALUES at offset " +
        std::to_string(peek().offset));
  }
  while (true) {
    next();  // '('
    Row row;
    while (true) {
      AQV_ASSIGN_OR_RETURN(Value v, parse_literal());
      row.push_back(std::move(v));
      if (peek().kind == TokenKind::kComma) {
        next();
        continue;
      }
      break;
    }
    if (peek().kind != TokenKind::kRParen) {
      return Status::InvalidArgument("expected ')' at offset " +
                                     std::to_string(peek().offset));
    }
    next();
    out.rows.push_back(std::move(row));
    if (peek().kind != TokenKind::kComma) break;
    next();
    if (peek().kind != TokenKind::kLParen) {
      return Status::InvalidArgument("expected '(' at offset " +
                                     std::to_string(peek().offset));
    }
  }
  if (peek().kind != TokenKind::kEnd) {
    return Status::InvalidArgument("unexpected trailing input at offset " +
                                   std::to_string(peek().offset));
  }
  return out;
}

}  // namespace aqv
