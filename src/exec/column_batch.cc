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

namespace {

// CompareDoubles(a, b) == 0 of Value::Compare: NaN ties with every number.
bool DoublesTie(double a, double b) { return !(a < b) && !(a > b); }

}  // namespace

bool Column::Equals(size_t row, const Value& v) const {
  if (IsNull(row)) return v.is_null();
  switch (type) {
    case ColumnType::kInt64:
      if (v.type() == ValueType::kInt64) return i64[row] == v.int64();
      return v.type() == ValueType::kDouble &&
             DoublesTie(static_cast<double>(i64[row]), v.dbl());
    case ColumnType::kDouble:
      return v.is_numeric() && DoublesTie(f64[row], v.AsDouble());
    case ColumnType::kString:
      return v.type() == ValueType::kString &&
             dict[static_cast<size_t>(codes[row])] == v.str();
    case ColumnType::kMixed:
      return mixed[row].Compare(v) == 0;
  }
  return false;
}

int32_t DictIndex::CodeOf(size_t c, const std::string& s, Column* col) {
  if (cols_.size() <= c) cols_.resize(c + 1);
  PerColumn& pc = cols_[c];
  std::vector<std::string>& dict = col->dict;
  if (pc.lookups++ == 0) {
    for (size_t i = 0; i < dict.size(); ++i) {
      if (dict[i] == s) return static_cast<int32_t>(i);
    }
  } else {
    // The dictionary only grows while indexed: catch up with its tail.
    for (size_t i = pc.codes.size(); i < dict.size(); ++i) {
      pc.codes.emplace(dict[i], static_cast<int32_t>(i));
    }
    auto it = pc.codes.find(s);
    if (it != pc.codes.end()) return it->second;
  }
  dict.push_back(s);
  return static_cast<int32_t>(dict.size() - 1);
}

void DictIndex::Reset(size_t c) {
  if (c < cols_.size()) cols_[c] = PerColumn();
}

namespace {

void SetNull(Column* c, size_t row) {
  c->null_words[row >> 6] |= uint64_t{1} << (row & 63);
  c->has_nulls = true;
}

ColumnType TypeOf(const Value& v) {
  switch (v.type()) {
    case ValueType::kInt64:
      return ColumnType::kInt64;
    case ValueType::kDouble:
      return ColumnType::kDouble;
    default:
      return ColumnType::kString;
  }
}

// Payload slots to reserve when a column fixes its type: the bitmap's
// capacity records how many rows the builder expects.
size_t ExpectedRows(const Column& col) {
  return col.null_words.capacity() * 64;
}

// The column met a second type at row `rows`: from now on it keeps exact
// tagged values (its bitmap stays).
void Degrade(Column* col, size_t rows) {
  Column fresh;
  fresh.type = ColumnType::kMixed;
  fresh.typed = true;
  fresh.mixed.reserve(std::max(rows + 1, ExpectedRows(*col)));
  for (size_t r = 0; r < rows; ++r) fresh.mixed.push_back(col->ValueAt(r));
  fresh.has_nulls = col->has_nulls;
  fresh.null_words = std::move(col->null_words);
  *col = std::move(fresh);
}

// Appends `v` as row `r` (the column's row count so far) of column `c`.
void Push(Column* col, size_t c, size_t r, const Value& v, DictIndex* index) {
  if ((r & 63) == 0) col->null_words.push_back(0);
  if (v.is_null()) {
    SetNull(col, r);
    switch (col->type) {
      case ColumnType::kInt64:
        col->i64.push_back(0);
        break;
      case ColumnType::kDouble:
        col->f64.push_back(0.0);
        break;
      case ColumnType::kString:
        col->codes.push_back(-1);
        break;
      case ColumnType::kMixed:
        col->mixed.emplace_back();
        break;
    }
    return;
  }
  const ColumnType t = TypeOf(v);
  if (!col->typed) {
    // Every earlier slot is NULL: the first value fixes the type.
    col->typed = true;
    col->type = t;
    col->i64 = {};
    const size_t expected = std::max(r + 1, ExpectedRows(*col));
    switch (t) {
      case ColumnType::kInt64:
        col->i64.reserve(expected);
        col->i64.assign(r, 0);
        break;
      case ColumnType::kDouble:
        col->f64.reserve(expected);
        col->f64.assign(r, 0.0);
        break;
      default:
        col->codes.reserve(expected);
        col->codes.assign(r, -1);
        break;
    }
  } else if (col->type != t && col->type != ColumnType::kMixed) {
    Degrade(col, r);
    index->Reset(c);
  }
  switch (col->type) {
    case ColumnType::kInt64: {
      const int64_t x = v.int64();
      col->i64.push_back(x);
      col->i64_min = std::min(col->i64_min, x);
      col->i64_max = std::max(col->i64_max, x);
      break;
    }
    case ColumnType::kDouble:
      col->f64.push_back(v.dbl());
      break;
    case ColumnType::kString:
      col->codes.push_back(index->CodeOf(c, v.str(), col));
      break;
    case ColumnType::kMixed:
      col->mixed.push_back(v);
      break;
  }
}

// Rows `keep` (ascending) of `col`, typed as FromRows types them.
Column Gather(const Column& col, const std::vector<uint32_t>& keep) {
  const size_t n = keep.size();
  Column out;
  if (col.type == ColumnType::kMixed) {
    // The survivors may hold one type again.
    DictIndex index;
    out.null_words.reserve((n + 63) / 64);
    for (size_t i = 0; i < n; ++i) Push(&out, 0, i, col.mixed[keep[i]], &index);
    return out;
  }
  out.null_words.assign((n + 63) / 64, 0);
  size_t nulls = 0;
  if (col.has_nulls) {
    for (size_t i = 0; i < n; ++i) {
      if (col.IsNull(keep[i])) {
        SetNull(&out, i);
        ++nulls;
      }
    }
  }
  if (nulls == n) {  // no value survives: untyped
    out.i64.assign(n, 0);
    return out;
  }
  out.type = col.type;
  out.typed = true;
  switch (col.type) {
    case ColumnType::kInt64:
      out.i64.resize(n);
      for (size_t i = 0; i < n; ++i) {
        const int64_t x = col.i64[keep[i]];
        out.i64[i] = x;
        if (out.IsNull(i)) continue;
        out.i64_min = std::min(out.i64_min, x);
        out.i64_max = std::max(out.i64_max, x);
      }
      break;
    case ColumnType::kDouble:
      out.f64.resize(n);
      for (size_t i = 0; i < n; ++i) out.f64[i] = col.f64[keep[i]];
      break;
    default: {
      // Renumber by first occurrence among the survivors, dropping the
      // strings none of them uses.
      std::vector<int32_t> remap(col.dict.size(), -1);
      out.codes.resize(n);
      for (size_t i = 0; i < n; ++i) {
        const int32_t code = col.codes[keep[i]];
        if (code < 0) {
          out.codes[i] = -1;
          continue;
        }
        int32_t& to = remap[static_cast<size_t>(code)];
        if (to < 0) {
          to = static_cast<int32_t>(out.dict.size());
          out.dict.push_back(col.dict[static_cast<size_t>(code)]);
        }
        out.codes[i] = to;
      }
      break;
    }
  }
  return out;
}

}  // namespace

ColumnarTable::ColumnarTable(int num_columns)
    : cols_(static_cast<size_t>(num_columns)) {}

ColumnarTable ColumnarTable::FromRows(const std::vector<Row>& rows,
                                      int num_columns) {
  ColumnarTable out(num_columns);
  out.Reserve(rows.size());
  DictIndex index;
  for (const Row& row : rows) out.AppendRow(row, &index);
  return out;
}

void ColumnarTable::Reserve(size_t rows) {
  const size_t total = num_rows_ + rows;
  for (Column& col : cols_) {
    col.null_words.reserve((total + 63) / 64);
    if (!col.typed) continue;
    switch (col.type) {
      case ColumnType::kInt64:
        col.i64.reserve(total);
        break;
      case ColumnType::kDouble:
        col.f64.reserve(total);
        break;
      case ColumnType::kString:
        col.codes.reserve(total);
        break;
      case ColumnType::kMixed:
        col.mixed.reserve(total);
        break;
    }
  }
}

void ColumnarTable::AppendRow(const Row& row, DictIndex* index) {
  for (size_t c = 0; c < cols_.size(); ++c) {
    Push(&cols_[c], c, num_rows_, row[c], index);
  }
  ++num_rows_;
}

ColumnarTable ColumnarTable::Without(const std::vector<uint32_t>& drop) const {
  std::vector<uint32_t> keep;
  keep.reserve(num_rows_ - drop.size());
  size_t d = 0;
  for (size_t r = 0; r < num_rows_; ++r) {
    if (d < drop.size() && drop[d] == r) {
      ++d;
      continue;
    }
    keep.push_back(static_cast<uint32_t>(r));
  }
  ColumnarTable out;
  out.num_rows_ = keep.size();
  out.cols_.reserve(cols_.size());
  for (const Column& col : cols_) out.cols_.push_back(Gather(col, keep));
  return out;
}

void ColumnarTable::AppendRowTo(size_t row, Row* out) const {
  out->reserve(out->size() + cols_.size());
  for (const Column& c : cols_) out->push_back(c.ValueAt(row));
}

Row ColumnarTable::RowAt(size_t row) const {
  Row out;
  AppendRowTo(row, &out);
  return out;
}

size_t ColumnarTable::ApproxBytes() const {
  size_t bytes = cols_.capacity() * sizeof(Column);
  for (const Column& col : cols_) {
    bytes += col.null_words.capacity() * sizeof(uint64_t);
    bytes += col.i64.capacity() * sizeof(int64_t);
    bytes += col.f64.capacity() * sizeof(double);
    bytes += col.codes.capacity() * sizeof(int32_t);
    for (const std::string& s : col.dict) {
      bytes += sizeof(std::string) + s.capacity();
    }
    for (const Value& v : col.mixed) {
      bytes += sizeof(Value);
      if (v.type() == ValueType::kString) bytes += v.str().capacity();
    }
  }
  return bytes;
}

}  // namespace aqv
