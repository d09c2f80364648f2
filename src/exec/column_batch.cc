#include "exec/column_batch.h"

#include <algorithm>
#include <cstddef>

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

void Column::MarkEquals(size_t rows, const Value& v, uint64_t* bits) const {
  if (v.is_null()) {
    if (has_nulls) {
      for (size_t w = 0; w < (rows + 63) / 64; ++w) bits[w] |= null_words[w];
    }
    return;
  }
  // ORs in, a word at a time, the non-NULL rows where `eq` holds (a NULL
  // slot's payload is a placeholder that may compare equal).
  auto mark = [&](auto eq) {
    for (size_t base = 0; base < rows; base += 64) {
      const size_t end = std::min<size_t>(64, rows - base);
      uint64_t word = 0;
      for (size_t i = 0; i < end; ++i) {
        word |= static_cast<uint64_t>(eq(base + i)) << i;
      }
      if (has_nulls) word &= ~null_words[base >> 6];
      bits[base >> 6] |= word;
    }
  };
  switch (type) {
    case ColumnType::kInt64:
      if (v.type() == ValueType::kInt64) {
        const int64_t k = v.int64();
        mark([&](size_t r) { return i64[r] == k; });
      } else if (v.type() == ValueType::kDouble) {
        const double d = v.dbl();
        mark([&](size_t r) {
          return DoublesTie(static_cast<double>(i64[r]), d);
        });
      }
      return;
    case ColumnType::kDouble:
      if (v.is_numeric()) {
        const double d = v.AsDouble();
        mark([&](size_t r) { return DoublesTie(f64[r], d); });
      }
      return;
    case ColumnType::kString: {
      if (v.type() != ValueType::kString) return;
      const auto at = std::find(dict.begin(), dict.end(), v.str());
      if (at == dict.end()) return;
      const int32_t code = static_cast<int32_t>(at - dict.begin());
      mark([&](size_t r) { return codes[r] == code; });
      return;
    }
    case ColumnType::kMixed:
      mark([&](size_t r) { return mixed[r].Compare(v) == 0; });
      return;
  }
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

// Calls f(begin, end) for each maximal run of the rows [0, rows) that
// `drop` (ascending, distinct) leaves.
template <typename F>
void ForEachKeptRun(size_t rows, const std::vector<uint32_t>& drop, F&& f) {
  size_t begin = 0;
  for (uint32_t d : drop) {
    if (d > begin) f(begin, static_cast<size_t>(d));
    begin = static_cast<size_t>(d) + 1;
  }
  if (rows > begin) f(begin, rows);
}

// Bits [from, from + count) of `words`, count <= 64, low bit first.
uint64_t LoadBits(const uint64_t* words, size_t from, size_t count) {
  const size_t w = from >> 6;
  const size_t shift = from & 63;
  uint64_t bits = words[w] >> shift;
  if (shift != 0 && shift + count > 64) bits |= words[w + 1] << (64 - shift);
  return count == 64 ? bits : bits & ((uint64_t{1} << count) - 1);
}

// ORs the `count` (<= 64) low bits of `bits` into `words` at bit `at`.
void OrBits(uint64_t* words, size_t at, uint64_t bits, size_t count) {
  const size_t w = at >> 6;
  const size_t shift = at & 63;
  words[w] |= bits << shift;
  if (shift != 0 && shift + count > 64) words[w + 1] |= bits >> (64 - shift);
}

// Appends the kept runs of `from` to `to`: one range copy per run.
template <typename T>
void CopyKeptRuns(const std::vector<T>& from, const std::vector<uint32_t>& drop,
                  size_t kept, std::vector<T>* to) {
  to->reserve(kept);
  ForEachKeptRun(from.size(), drop, [&](size_t begin, size_t end) {
    to->insert(to->end(), from.begin() + static_cast<std::ptrdiff_t>(begin),
               from.begin() + static_cast<std::ptrdiff_t>(end));
  });
}

// Sets the exact bounds of the non-NULL values of a typed kInt64 column.
void ScanInt64Bounds(Column* col) {
  int64_t lo = std::numeric_limits<int64_t>::max();
  int64_t hi = std::numeric_limits<int64_t>::min();
  const int64_t* v = col->i64.data();
  for (size_t r = 0; r < col->i64.size(); ++r) {
    if (col->IsNull(r)) continue;
    lo = std::min(lo, v[r]);
    hi = std::max(hi, v[r]);
  }
  col->i64_min = lo;
  col->i64_max = hi;
}

// `col` (of `rows` rows) without the rows `drop` lists, typed as FromRows
// types the survivors.
Column Drop(const Column& col, size_t rows, const std::vector<uint32_t>& drop) {
  const size_t n = rows - drop.size();
  Column out;
  if (col.type == ColumnType::kMixed) {
    // The survivors may hold one type again.
    DictIndex index;
    out.null_words.reserve((n + 63) / 64);
    size_t at = 0;
    ForEachKeptRun(rows, drop, [&](size_t begin, size_t end) {
      for (size_t r = begin; r < end; ++r) {
        Push(&out, 0, at++, col.mixed[r], &index);
      }
    });
    return out;
  }
  out.null_words.assign((n + 63) / 64, 0);
  size_t nulls = 0;
  if (col.has_nulls) {
    size_t at = 0;
    ForEachKeptRun(rows, drop, [&](size_t begin, size_t end) {
      for (size_t r = begin; r < end; r += 64) {
        const size_t count = std::min<size_t>(64, end - r);
        OrBits(out.null_words.data(), at,
               LoadBits(col.null_words.data(), r, count), count);
        at += count;
      }
    });
    for (uint64_t w : out.null_words) {
      nulls += static_cast<size_t>(__builtin_popcountll(w));
    }
    out.has_nulls = nulls > 0;
  }
  if (nulls == n) {  // no value survives: untyped
    out.i64.assign(n, 0);
    return out;
  }
  out.type = col.type;
  out.typed = true;
  switch (col.type) {
    case ColumnType::kInt64: {
      CopyKeptRuns(col.i64, drop, n, &out.i64);
      const bool inside =
          std::all_of(drop.begin(), drop.end(), [&](uint32_t d) {
            return col.IsNull(d) ||
                   (col.i64_min < col.i64[d] && col.i64[d] < col.i64_max);
          });
      if (inside) {
        out.i64_min = col.i64_min;
        out.i64_max = col.i64_max;
      } else {
        ScanInt64Bounds(&out);
      }
      break;
    }
    case ColumnType::kDouble:
      CopyKeptRuns(col.f64, drop, n, &out.f64);
      break;
    default: {
      // Renumber by first occurrence among the survivors, dropping the
      // strings none of them uses.
      std::vector<int32_t> remap(col.dict.size(), -1);
      out.codes.reserve(n);
      ForEachKeptRun(rows, drop, [&](size_t begin, size_t end) {
        for (size_t r = begin; r < end; ++r) {
          const int32_t code = col.codes[r];
          if (code < 0) {
            out.codes.push_back(-1);
            continue;
          }
          int32_t& to = remap[static_cast<size_t>(code)];
          if (to < 0) {
            to = static_cast<int32_t>(out.dict.size());
            out.dict.push_back(col.dict[static_cast<size_t>(code)]);
          }
          out.codes.push_back(to);
        }
      });
      break;
    }
  }
  return out;
}

// `from` with room for `capacity` elements; an empty payload stays empty.
template <typename T>
std::vector<T> CopyWithCapacity(const std::vector<T>& from, size_t capacity) {
  std::vector<T> to;
  if (from.empty()) return to;
  to.reserve(std::max(capacity, from.size()));
  to.assign(from.begin(), from.end());
  return to;
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
  ColumnarTable out;
  out.num_rows_ = num_rows_ - drop.size();
  out.cols_.reserve(cols_.size());
  for (const Column& col : cols_) {
    out.cols_.push_back(Drop(col, num_rows_, drop));
  }
  return out;
}

ColumnarTable ColumnarTable::CopyWithRoom(size_t rows) const {
  const size_t total = num_rows_ + rows;
  ColumnarTable out;
  out.num_rows_ = num_rows_;
  out.cols_.reserve(cols_.size());
  for (const Column& col : cols_) {
    // Every field of Column: a plain copy would size each payload to its
    // rows, and the first append would copy it again.
    Column& to = out.cols_.emplace_back();
    to.type = col.type;
    to.has_nulls = col.has_nulls;
    to.null_words = CopyWithCapacity(col.null_words, (total + 63) / 64);
    to.i64 = CopyWithCapacity(col.i64, total);
    to.f64 = CopyWithCapacity(col.f64, total);
    to.codes = CopyWithCapacity(col.codes, total);
    to.dict = col.dict;
    to.mixed = CopyWithCapacity(col.mixed, total);
    to.i64_min = col.i64_min;
    to.i64_max = col.i64_max;
    to.typed = col.typed;
  }
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
