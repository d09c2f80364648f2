#ifndef AQV_EXEC_COLUMN_BATCH_H_
#define AQV_EXEC_COLUMN_BATCH_H_

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/value.h"

namespace aqv {

/// Rows per processing batch: vectorized operators charge the ExecContext
/// and re-check deadlines/cancellation at this granularity, so governance
/// fires *inside* a long scan instead of after it. 1024 equals
/// ExecContext::kCheckStride, meaning one deadline check per batch.
inline constexpr size_t kBatchRows = 1024;

/// Storage class of one column in a ColumnarTable.
///
///   kInt64 / kDouble — contiguous typed arrays (null slots hold 0).
///   kString          — dictionary-encoded: per-row int32 codes into a
///                      per-column dictionary (null slots hold -1).
///   kMixed           — the column held more than one non-null type (or a
///                      type the typed layouts can't carry); values are kept
///                      as tagged `Value`s. Mixed columns still support
///                      ValueAt/gather, but operators treat them as
///                      non-vectorizable and fall back to the row engine.
enum class ColumnType : uint8_t { kInt64, kDouble, kString, kMixed };

const char* ColumnTypeToString(ColumnType type);

/// One typed column of a ColumnarTable: a validity bitmap plus exactly one
/// of the payload vectors, chosen by `type`. A set bit in `null_words`
/// means the row is NULL. `has_nulls` short-circuits the bitmap probe for
/// the (common) all-valid case.
struct Column {
  ColumnType type = ColumnType::kInt64;
  bool has_nulls = false;
  std::vector<uint64_t> null_words;  // ceil(rows/64) words; bit set = NULL

  std::vector<int64_t> i64;        // kInt64
  std::vector<double> f64;         // kDouble
  std::vector<int32_t> codes;      // kString: dictionary codes, -1 at NULLs
  std::vector<std::string> dict;   // kString: code -> string
  std::vector<Value> mixed;        // kMixed: full tagged values

  /// kInt64: exact bounds of the non-NULL values, kept current by every
  /// append and gather (i64_min > i64_max when there are none).
  int64_t i64_min = std::numeric_limits<int64_t>::max();
  int64_t i64_max = std::numeric_limits<int64_t>::min();

  /// Some non-NULL value has fixed `type`. An all-NULL column stays an
  /// untyped kInt64 (every slot is covered by the bitmap, so the payload
  /// type is arbitrary).
  bool typed = false;

  bool IsNull(size_t row) const {
    return has_nulls && ((null_words[row >> 6] >> (row & 63)) & 1) != 0;
  }

  /// The row's value as a tagged Value (works for every ColumnType).
  /// Inline: it builds every value the row engine reads from a table.
  Value ValueAt(size_t row) const {
    if (IsNull(row)) return Value::Null();
    switch (type) {
      case ColumnType::kInt64:
        return Value::Int64(i64[row]);
      case ColumnType::kDouble:
        return Value::Double(f64[row]);
      case ColumnType::kString:
        return Value::String(dict[static_cast<size_t>(codes[row])]);
      case ColumnType::kMixed:
        return mixed[row];
    }
    return Value::Null();
  }

  /// True if the row's value equals `v` under Value::Compare, the equality
  /// RowEq uses: NULL equals NULL, INT64 meets INT64 exactly (2^53 and
  /// 2^53 + 1 stay apart) and any other numeric pair compares as doubles
  /// (INT64 1 equals DOUBLE 1.0).
  bool Equals(size_t row, const Value& v) const;

  /// Sets bit r of `bits` (ceil(rows / 64) words) for every row r < `rows`
  /// where Equals(r, v) holds, with one typed loop over the payload: INT64
  /// meets INT64 exactly, any other numeric pair keeps Equals' tie rule (a
  /// NaN ties with every number).
  void MarkEquals(size_t rows, const Value& v, uint64_t* bits) const;
};

/// String -> code lookup over the dictionaries of a ColumnarTable that is
/// being appended to. A column's first lookup scans its dictionary (one
/// appended row pays less than building an index would); the second builds
/// the index, so a batch of n rows costs O(n), not O(n * dictionary).
class DictIndex {
 public:
  /// The code of `s` in `col`'s dictionary (column ordinal `c`), appending
  /// it if absent.
  int32_t CodeOf(size_t c, const std::string& s, Column* col);

  /// Forgets column `c` (its dictionary was dropped).
  void Reset(size_t c);

 private:
  struct PerColumn {
    size_t lookups = 0;
    std::unordered_map<std::string, int32_t> codes;
  };
  std::vector<PerColumn> cols_;
};

/// Rows as per-column typed arrays sharing one row count. A table chunk
/// stores its rows this way and nowhere else (see Chunk); operator output
/// is pivoted into one with FromRows.
///
/// Column types are inferred per column: the first non-null value fixes the
/// type; a later conflicting type degrades that column to kMixed (exact
/// tagged values, row-engine fallback). String columns are dictionary
/// encoded with first-occurrence code assignment, so equal strings share one
/// code and constant comparisons reduce to a per-code precomputed mask.
/// Appending rows one at a time (AppendRow) and gathering a subset of rows
/// (Without) both yield exactly the image FromRows builds from the same
/// rows.
class ColumnarTable {
 public:
  ColumnarTable() = default;
  /// No rows; every column untyped.
  explicit ColumnarTable(int num_columns);

  /// Builds the columnar image of `rows`, each of arity `num_columns`.
  static ColumnarTable FromRows(const std::vector<Row>& rows, int num_columns);

  /// Makes room for `rows` more rows, in each column's payload too once
  /// its type is known.
  void Reserve(size_t rows);

  /// Appends `row` (arity num_columns(), not checked) in place. `index`
  /// serves the string columns and must be used with this table only.
  void AppendRow(const Row& row, DictIndex* index);

  /// The rows whose ordinals are not in `drop` (ascending, distinct), in
  /// row order. Typed payloads and the null bitmap are copied in runs
  /// between the dropped ordinals. An INT64 column keeps its bounds without
  /// a rescan when every dropped value lies strictly inside them: the rows
  /// that hold the bounds survive.
  ColumnarTable Without(const std::vector<uint32_t>& drop) const;

  /// A copy with room for `rows` more rows in every payload, so appending
  /// them copies nothing again.
  ColumnarTable CopyWithRoom(size_t rows) const;

  size_t num_rows() const { return num_rows_; }
  int num_columns() const { return static_cast<int>(cols_.size()); }
  const Column& col(int i) const { return cols_[static_cast<size_t>(i)]; }

  /// True if operators can run tight typed loops over column `i` (i.e. it
  /// is not kMixed).
  bool ColumnVectorizable(int i) const {
    return col(i).type != ColumnType::kMixed;
  }

  Value ValueAt(int column, size_t row) const { return col(column).ValueAt(row); }

  /// Reconstructs full row `row` (all columns, schema order) into `*out`.
  void AppendRowTo(size_t row, Row* out) const;
  /// Row `row` as a Row.
  Row RowAt(size_t row) const;

  /// Approximate heap bytes of the column payloads.
  size_t ApproxBytes() const;

 private:
  size_t num_rows_ = 0;
  std::vector<Column> cols_;
};

/// A selection over a ColumnarTable: ascending row indices that survived a
/// filter. Operators consuming (table, selection) pairs avoid materializing
/// intermediate rows entirely.
using SelVector = std::vector<uint32_t>;

}  // namespace aqv

#endif  // AQV_EXEC_COLUMN_BATCH_H_
