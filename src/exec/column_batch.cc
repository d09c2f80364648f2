#include "exec/column_batch.h"

#include <algorithm>

namespace aqv {

const char* ColumnTypeToString(ColumnType type) {
  switch (type) {
    case ColumnType::kInt64:
      return "int64";
    case ColumnType::kDouble:
      return "double";
    case ColumnType::kString:
      return "string";
    case ColumnType::kMixed:
      return "mixed";
  }
  return "unknown";
}

Value Column::ValueAt(size_t row) const {
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

namespace {

void SetNull(Column* c, size_t row) {
  c->null_words[row >> 6] |= uint64_t{1} << (row & 63);
  c->has_nulls = true;
}

}  // namespace

ColumnarTable ColumnarTable::FromRows(const std::vector<Row>& rows,
                                      int num_columns) {
  ColumnarTable out;
  const size_t n = rows.size();
  out.num_rows_ = n;
  const size_t nc = static_cast<size_t>(num_columns);
  out.cols_.resize(nc);

  // One pass, row by row. The first non-null value of a column fixes its
  // type and allocates its payload; a later non-null value of another type
  // marks the column mixed, and only such columns are revisited. All-null
  // columns stay kInt64 (every slot is covered by the bitmap, so the
  // payload type is arbitrary).
  std::vector<bool> typed(nc, false);
  std::vector<bool> mixed(nc, false);
  std::vector<std::unordered_map<std::string, int32_t>> dict_index(nc);
  for (Column& col : out.cols_) col.null_words.assign((n + 63) / 64, 0);
  for (size_t r = 0; r < n; ++r) {
    const Row& row = rows[r];
    for (size_t c = 0; c < nc; ++c) {
      const Value& v = row[c];
      Column& col = out.cols_[c];
      if (v.is_null()) {
        SetNull(&col, r);
        continue;
      }
      if (mixed[c]) continue;
      const ColumnType t =
          v.type() == ValueType::kInt64    ? ColumnType::kInt64
          : v.type() == ValueType::kDouble ? ColumnType::kDouble
                                           : ColumnType::kString;
      if (!typed[c]) {
        typed[c] = true;
        col.type = t;
        switch (t) {
          case ColumnType::kInt64:
            col.i64.assign(n, 0);
            break;
          case ColumnType::kDouble:
            col.f64.assign(n, 0.0);
            break;
          default:
            col.codes.assign(n, -1);
            break;
        }
      } else if (col.type != t) {
        mixed[c] = true;
        continue;
      }
      switch (t) {
        case ColumnType::kInt64:
          col.i64[r] = v.int64();
          col.i64_min = std::min(col.i64_min, v.int64());
          col.i64_max = std::max(col.i64_max, v.int64());
          break;
        case ColumnType::kDouble:
          col.f64[r] = v.dbl();
          break;
        default: {
          auto [it, inserted] = dict_index[c].emplace(
              v.str(), static_cast<int32_t>(col.dict.size()));
          if (inserted) col.dict.push_back(v.str());
          col.codes[r] = it->second;
          break;
        }
      }
    }
  }
  for (size_t c = 0; c < nc; ++c) {
    Column& col = out.cols_[c];
    // Kernels read payload slots at NULLs too.
    if (!typed[c]) col.i64.assign(n, 0);
    if (!mixed[c]) continue;
    // A mixed column keeps exact tagged values instead (its bitmap is done).
    Column fresh;
    fresh.type = ColumnType::kMixed;
    fresh.has_nulls = col.has_nulls;
    fresh.null_words = std::move(col.null_words);
    fresh.mixed.reserve(n);
    for (const Row& row : rows) fresh.mixed.push_back(row[c]);
    col = std::move(fresh);
  }
  return out;
}

void ColumnarTable::AppendRowTo(size_t row, Row* out) const {
  out->reserve(out->size() + cols_.size());
  for (const Column& c : cols_) out->push_back(c.ValueAt(row));
}

}  // namespace aqv
