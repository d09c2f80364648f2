#ifndef AQV_EXEC_CSV_H_
#define AQV_EXEC_CSV_H_

#include <string>
#include <string_view>

#include "base/result.h"
#include "exec/table.h"

namespace aqv {

/// Renders `table` as CSV: a header row of column names, then one row per
/// tuple. Strings are double-quoted with embedded quotes doubled; NULL is
/// an empty field; numerics print unquoted (doubles with enough digits to
/// round-trip).
std::string ToCsv(const Table& table);

/// ToCsv straight to a file.
Status WriteCsvFile(const Table& table, const std::string& path);

/// Parses CSV text into a Table. The first row is the header. Field typing:
/// empty -> NULL; double-quoted -> STRING (quotes may be doubled inside);
/// otherwise INT64 if it parses as one, DOUBLE if it parses as one, else
/// STRING. An unquoted field that parses to NaN is kInvalidArgument.
/// Round-trips the output of ToCsv.
Result<Table> FromCsv(std::string_view text);

/// FromCsv over a file's contents.
Result<Table> ReadCsvFile(const std::string& path);

}  // namespace aqv

#endif  // AQV_EXEC_CSV_H_
