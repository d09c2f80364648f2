#include "exec/csv.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

namespace aqv {

namespace {

void AppendField(std::string* out, const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      break;  // empty field
    case ValueType::kInt64:
      out->append(std::to_string(v.int64()));
      break;
    case ValueType::kDouble: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v.dbl());
      out->append(buf);
      break;
    }
    case ValueType::kString: {
      out->push_back('"');
      for (char c : v.str()) {
        if (c == '"') out->push_back('"');
        out->push_back(c);
      }
      out->push_back('"');
      break;
    }
  }
}

// Splits one CSV record starting at `pos`; advances past the trailing
// newline. Returns false at end of input.
bool NextRecord(std::string_view text, size_t* pos,
                std::vector<std::string>* fields, std::vector<bool>* quoted,
                Status* error) {
  fields->clear();
  quoted->clear();
  size_t i = *pos;
  if (i >= text.size()) return false;

  std::string field;
  bool in_quotes = false;
  bool field_quoted = false;
  bool any = false;
  while (i < text.size()) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field.push_back('"');
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      field.push_back(c);
      ++i;
      continue;
    }
    if (c == '"' && field.empty()) {
      in_quotes = true;
      field_quoted = true;
      any = true;
      ++i;
      continue;
    }
    if (c == ',') {
      fields->push_back(std::move(field));
      quoted->push_back(field_quoted);
      field.clear();
      field_quoted = false;
      any = true;
      ++i;
      continue;
    }
    if (c == '\n' || c == '\r') {
      // Consume the line terminator (\n, \r or \r\n).
      ++i;
      if (c == '\r' && i < text.size() && text[i] == '\n') ++i;
      break;
    }
    field.push_back(c);
    any = true;
    ++i;
  }
  if (in_quotes) {
    *error = Status::InvalidArgument("unterminated quoted CSV field");
    return false;
  }
  *pos = i;
  if (!any && fields->empty() && field.empty()) {
    // Blank line: skip it by recursing to the next record.
    return NextRecord(text, pos, fields, quoted, error);
  }
  fields->push_back(std::move(field));
  quoted->push_back(field_quoted);
  return true;
}

Value ParseField(const std::string& field, bool was_quoted) {
  if (was_quoted) return Value::String(field);
  if (field.empty()) return Value::Null();
  errno = 0;
  char* end = nullptr;
  long long as_int = std::strtoll(field.c_str(), &end, 10);
  if (errno == 0 && end != nullptr && *end == '\0') {
    return Value::Int64(as_int);
  }
  errno = 0;
  double as_double = std::strtod(field.c_str(), &end);
  if (errno == 0 && end != nullptr && *end == '\0') {
    return Value::Double(as_double);
  }
  return Value::String(field);
}

}  // namespace

std::string ToCsv(const Table& table) {
  std::string out;
  for (size_t i = 0; i < table.columns().size(); ++i) {
    if (i > 0) out.push_back(',');
    out.append(table.columns()[i]);
  }
  out.push_back('\n');
  for (const Row& row : table.rows()) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out.push_back(',');
      AppendField(&out, row[i]);
    }
    out.push_back('\n');
  }
  return out;
}

Status WriteCsvFile(const Table& table, const std::string& path) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    return Status::InvalidArgument("cannot open '" + path + "' for writing");
  }
  file << ToCsv(table);
  if (!file.good()) {
    return Status::InvalidArgument("write to '" + path + "' failed");
  }
  return Status::OK();
}

Result<Table> FromCsv(std::string_view text) {
  size_t pos = 0;
  std::vector<std::string> fields;
  std::vector<bool> quoted;
  Status error;

  if (!NextRecord(text, &pos, &fields, &quoted, &error)) {
    if (!error.ok()) return error;
    return Status::InvalidArgument("CSV input has no header row");
  }
  Table table(fields);

  std::vector<Row> rows;
  int line = 1;
  while (NextRecord(text, &pos, &fields, &quoted, &error)) {
    ++line;
    if (fields.size() != table.columns().size()) {
      return Status::InvalidArgument(
          "CSV record " + std::to_string(line) + " has " +
          std::to_string(fields.size()) + " fields; expected " +
          std::to_string(table.columns().size()));
    }
    Row row;
    row.reserve(fields.size());
    for (size_t i = 0; i < fields.size(); ++i) {
      Value v = ParseField(fields[i], quoted[i]);
      // NaN would compare equal to every number; it is refused at ingress.
      if (v.type() == ValueType::kDouble && std::isnan(v.dbl())) {
        return Status::InvalidArgument("CSV record " + std::to_string(line) +
                                       " field " + std::to_string(i + 1) +
                                       " is NaN, which is not stored");
      }
      row.push_back(std::move(v));
    }
    rows.push_back(std::move(row));
  }
  if (!error.ok()) return error;
  AQV_RETURN_NOT_OK(table.AddRows(rows));
  return table;
}

Result<Table> ReadCsvFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::ostringstream contents;
  contents << file.rdbuf();
  return FromCsv(contents.str());
}

}  // namespace aqv
