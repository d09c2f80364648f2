#include "parser/lexer.h"

#include <cctype>
#include <charconv>
#include <system_error>

#include "base/strings.h"

namespace aqv {

bool Token::IsKeyword(std::string_view keyword) const {
  return kind == TokenKind::kIdentifier && EqualsIgnoreCase(text, keyword);
}

namespace {

/// True when the last token ends an operand, so that a '-' after it is the
/// binary operator (`A_1-1`), not a sign.
bool FollowsOperand(const std::vector<Token>& tokens) {
  if (tokens.empty()) return false;
  switch (tokens.back().kind) {
    case TokenKind::kIdentifier:
    case TokenKind::kInteger:
    case TokenKind::kFloat:
    case TokenKind::kString:
    case TokenKind::kRParen:
      return true;
    default:
      return false;
  }
}

}  // namespace

Result<std::vector<Token>> Tokenize(std::string_view sql) {
  std::vector<Token> tokens;
  size_t i = 0;
  auto peek = [&](size_t k = 0) -> char {
    return i + k < sql.size() ? sql[i + k] : '\0';
  };

  while (i < sql.size()) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token t;
    t.offset = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '#') {
      size_t start = i;
      while (i < sql.size() &&
             (std::isalnum(static_cast<unsigned char>(sql[i])) ||
              sql[i] == '_' || sql[i] == '#')) {
        ++i;
      }
      t.kind = TokenKind::kIdentifier;
      t.text = std::string(sql.substr(start, i - start));
    } else if (std::isdigit(static_cast<unsigned char>(c)) ||
               (c == '-' && std::isdigit(static_cast<unsigned char>(peek(1))) &&
                !FollowsOperand(tokens))) {
      // A minus directly before a digit, where no operand precedes it, is
      // a sign and folds into the literal, so INT64 min is writable.
      size_t start = i;
      if (c == '-') ++i;
      size_t digits = i;
      bool is_float = false;
      while (i < sql.size() &&
             (std::isdigit(static_cast<unsigned char>(sql[i])) ||
              sql[i] == '.' || sql[i] == 'e' || sql[i] == 'E' ||
              ((sql[i] == '+' || sql[i] == '-') && i > digits &&
               (sql[i - 1] == 'e' || sql[i - 1] == 'E')))) {
        if (sql[i] == '.' || sql[i] == 'e' || sql[i] == 'E') is_float = true;
        ++i;
      }
      const char* first = sql.data() + start;
      const char* last = sql.data() + i;
      std::from_chars_result parsed;
      if (is_float) {
        t.kind = TokenKind::kFloat;
        parsed = std::from_chars(first, last, t.float_value);
      } else {
        t.kind = TokenKind::kInteger;
        parsed = std::from_chars(first, last, t.int_value);
      }
      if (parsed.ec == std::errc::result_out_of_range) {
        return Status::InvalidArgument(
            "numeric literal " + std::string(first, last) +
            " is out of range at offset " + std::to_string(start));
      }
      if (parsed.ec != std::errc() || parsed.ptr != last) {
        return Status::InvalidArgument(
            "malformed numeric literal " + std::string(first, last) +
            " at offset " + std::to_string(start));
      }
    } else if (c == '\'') {
      ++i;
      size_t start = i;
      while (i < sql.size() && sql[i] != '\'') ++i;
      if (i >= sql.size()) {
        return Status::InvalidArgument("unterminated string literal at offset " +
                                       std::to_string(t.offset));
      }
      t.kind = TokenKind::kString;
      t.text = std::string(sql.substr(start, i - start));
      ++i;  // closing quote
    } else {
      switch (c) {
        case '(':
          t.kind = TokenKind::kLParen;
          ++i;
          break;
        case ')':
          t.kind = TokenKind::kRParen;
          ++i;
          break;
        case ',':
          t.kind = TokenKind::kComma;
          ++i;
          break;
        case '.':
          t.kind = TokenKind::kDot;
          ++i;
          break;
        case '*':
          t.kind = TokenKind::kStar;
          ++i;
          break;
        case '/':
          t.kind = TokenKind::kSlash;
          ++i;
          break;
        case '-':
          t.kind = TokenKind::kMinus;
          ++i;
          break;
        case '+':
          t.kind = TokenKind::kPlus;
          ++i;
          break;
        case '=':
          t.kind = TokenKind::kEq;
          ++i;
          break;
        case '!':
          if (peek(1) == '=') {
            t.kind = TokenKind::kNe;
            i += 2;
          } else {
            return Status::InvalidArgument("unexpected '!' at offset " +
                                           std::to_string(i));
          }
          break;
        case '<':
          if (peek(1) == '>') {
            t.kind = TokenKind::kNe;
            i += 2;
          } else if (peek(1) == '=') {
            t.kind = TokenKind::kLe;
            i += 2;
          } else {
            t.kind = TokenKind::kLt;
            ++i;
          }
          break;
        case '>':
          if (peek(1) == '=') {
            t.kind = TokenKind::kGe;
            i += 2;
          } else {
            t.kind = TokenKind::kGt;
            ++i;
          }
          break;
        default:
          return Status::InvalidArgument("unexpected character '" +
                                         std::string(1, c) + "' at offset " +
                                         std::to_string(i));
      }
    }
    tokens.push_back(std::move(t));
  }
  Token end;
  end.kind = TokenKind::kEnd;
  end.offset = sql.size();
  tokens.push_back(end);
  return tokens;
}

}  // namespace aqv
