#ifndef AQV_PARSER_PARSER_H_
#define AQV_PARSER_PARSER_H_

#include <string_view>

#include "base/result.h"
#include "catalog/catalog.h"
#include "ir/query.h"

namespace aqv {

/// Parses a single-block query:
///
///   SELECT [DISTINCT] item, ...
///   FROM entry, ...
///   [WHERE conj] [GROUPBY cols | GROUP BY cols] [HAVING conj]
///
/// where an item is a column reference, `AGG(arg)` with an optional
/// `AS alias`, or the ratio form `SUM(arg) / SUM(arg)`; an arg is a column
/// optionally scaled as `col * col`; and a FROM entry is either the paper's
/// explicit notation `R1(A1, B1)` or a plain `table [alias]` resolved
/// against `catalog` with the Section 2 renaming convention (`A_1`, `B_1`,
/// ... per occurrence). Conditions are conjunctions of comparisons between
/// columns, constants and (in HAVING) aggregate terms.
///
/// `catalog` may be null when every FROM entry uses the explicit notation.
/// The result is validated (ir/validate.h) before being returned, so
/// ToSql() of a parsed query re-parses to an equal query.
Result<Query> ParseQuery(std::string_view sql, const Catalog* catalog = nullptr);

/// Parses `CREATE [MATERIALIZED] VIEW name AS <query>`; whether the view
/// is stored is the caller's decision.
Result<ViewDef> ParseView(std::string_view sql, const Catalog* catalog = nullptr);

/// A parsed multi-row `INSERT INTO table VALUES (lit, ...), (lit, ...)`.
struct InsertStatement {
  std::string table;
  std::vector<Row> rows;
};

/// Parses a multi-row INSERT. A literal is an optionally signed integer or
/// float, a quoted string, or NULL. At least one tuple is required, and any
/// trailing input after the last tuple is an error (it used to be silently
/// ignored). Arity against the table's schema is the caller's check.
Result<InsertStatement> ParseInsert(std::string_view sql);

/// A parsed `DELETE FROM table [WHERE conj]`. The WHERE conjunction is bound
/// against the table's own (unrenamed) schema columns, so predicates can be
/// evaluated directly against stored rows; an empty `where` deletes every
/// row. Which rows actually match is the executor's job — the parser only
/// validates names and shapes.
struct DeleteStatement {
  std::string table;
  std::vector<Predicate> where;  // scalar conjuncts over the table's columns
};

/// Parses a DELETE. `catalog` is required: the WHERE clause binds against
/// the target table's schema. Aggregate operands are rejected (a DELETE
/// predicate is row-at-a-time scalar).
Result<DeleteStatement> ParseDelete(std::string_view sql,
                                    const Catalog* catalog);

/// The right-hand side of one UPDATE assignment: a literal, a column of the
/// same table, or `column (+|-|*) literal` (arithmetic on NULL yields NULL;
/// on a string it is an execution-time error).
struct SetExpr {
  enum class Kind { kLiteral, kColumn, kBinary };
  Kind kind = Kind::kLiteral;
  Value literal;       // kLiteral; kBinary: the right operand
  std::string column;  // kColumn / kBinary: the source column
  char op = '+';       // kBinary: '+', '-' or '*'
};

/// One `column = expr` assignment of an UPDATE SET list.
struct Assignment {
  std::string column;  // target column (validated against the schema)
  SetExpr expr;
};

/// A parsed `UPDATE table SET col = expr, ... [WHERE conj]`, bound like
/// DeleteStatement (schema columns verbatim, scalar predicates only).
struct UpdateStatement {
  std::string table;
  std::vector<Assignment> sets;
  std::vector<Predicate> where;
};

/// Parses an UPDATE. `catalog` is required; assigning the same column twice
/// is an error, as is an aggregate operand anywhere in SET or WHERE.
Result<UpdateStatement> ParseUpdate(std::string_view sql,
                                    const Catalog* catalog);

}  // namespace aqv

#endif  // AQV_PARSER_PARSER_H_
