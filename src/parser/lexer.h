#ifndef AQV_PARSER_LEXER_H_
#define AQV_PARSER_LEXER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"

namespace aqv {

/// Token kinds of the single-block SQL dialect.
enum class TokenKind {
  kIdentifier,  // plan_name, R1, Calls
  kInteger,     // 1995, -7 (a sign where no operand precedes folds in)
  kFloat,       // 3.5
  kString,      // 'abc'
  kLParen,
  kRParen,
  kComma,
  kDot,
  kStar,
  kSlash,
  kMinus,  // sign prefix on numeric literals
  kPlus,
  kEq,   // =
  kNe,   // <> or !=
  kLt,
  kLe,
  kGt,
  kGe,
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;     // identifier/string contents
  int64_t int_value = 0;
  double float_value = 0.0;
  size_t offset = 0;  // byte offset in the input, for error messages

  /// Case-insensitive keyword test for identifier tokens.
  bool IsKeyword(std::string_view keyword) const;
};

/// Splits `sql` into tokens. Keywords are not distinguished from
/// identifiers at this level (SQL keywords are contextual here).
Result<std::vector<Token>> Tokenize(std::string_view sql);

}  // namespace aqv

#endif  // AQV_PARSER_LEXER_H_
