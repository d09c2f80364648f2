#include "exec/table.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "base/strings.h"
#include "exec/column_batch.h"

namespace aqv {

namespace {

std::string ArityError(size_t got, int want) {
  return "row arity " + std::to_string(got) + " != table arity " +
         std::to_string(want);
}

}  // namespace

void ZoneMap::Add(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      ++null_count;
      return;
    case ValueType::kInt64:
    case ValueType::kDouble: {
      // NaN compares equal to every number in the row engine; only an
      // unbounded range stays truthful about it.
      double d = v.AsDouble();
      double lo = std::isnan(d) ? -std::numeric_limits<double>::infinity() : d;
      double hi = std::isnan(d) ? std::numeric_limits<double>::infinity() : d;
      if (!has_num) {
        num_min = lo;
        num_max = hi;
        has_num = true;
      } else {
        num_min = std::min(num_min, lo);
        num_max = std::max(num_max, hi);
      }
      return;
    }
    case ValueType::kString:
      if (!has_str) {
        str_min = str_max = v.str();
        has_str = true;
      } else if (v.str() < str_min) {
        str_min = v.str();
      } else if (v.str() > str_max) {
        str_max = v.str();
      }
      return;
  }
}

bool ZoneMap::MayContain(const Value& v) const {
  switch (v.type()) {
    case ValueType::kNull:
      return null_count > 0;
    case ValueType::kInt64:
    case ValueType::kDouble: {
      if (!has_num) return false;
      double d = v.AsDouble();
      return std::isnan(d) || (num_min <= d && d <= num_max);
    }
    case ValueType::kString:
      return has_str && str_min <= v.str() && v.str() <= str_max;
  }
  return true;
}

ZoneMap ZoneMap::Of(const Column& col, size_t rows) {
  ZoneMap z;
  if (col.has_nulls) {
    for (size_t w = 0; w < (rows + 63) / 64; ++w) {
      z.null_count +=
          static_cast<size_t>(__builtin_popcountll(col.null_words[w]));
    }
  }
  if (z.null_count == rows) return z;
  switch (col.type) {
    case ColumnType::kInt64:
      // Converting to double is monotone, so the exact bounds give the
      // double ones.
      z.has_num = true;
      z.num_min = static_cast<double>(col.i64_min);
      z.num_max = static_cast<double>(col.i64_max);
      break;
    case ColumnType::kDouble: {
      // Add over the non-NULL values, as one typed loop: `<` keeps the
      // earlier of two equal values (-0.0, 0.0) as std::min does, and a NaN
      // moves neither bound but widens the range to every number.
      double lo = std::numeric_limits<double>::infinity();
      double hi = -lo;
      bool nan = false;
      const double* v = col.f64.data();
      for (size_t r = 0; r < rows; ++r) {
        if (col.IsNull(r)) continue;
        nan |= std::isnan(v[r]);
        lo = v[r] < lo ? v[r] : lo;
        hi = v[r] > hi ? v[r] : hi;
      }
      z.has_num = true;
      z.num_min = nan ? -std::numeric_limits<double>::infinity() : lo;
      z.num_max = nan ? std::numeric_limits<double>::infinity() : hi;
      break;
    }
    case ColumnType::kString: {
      // Every dictionary string is some row's value.
      const std::vector<std::string>& dict = col.dict;
      z.has_str = true;
      z.str_min = *std::min_element(dict.begin(), dict.end());
      z.str_max = *std::max_element(dict.begin(), dict.end());
      break;
    }
    case ColumnType::kMixed:
      for (size_t r = 0; r < rows; ++r) {
        if (!col.IsNull(r)) z.Add(col.mixed[r]);
      }
      break;
  }
  return z;
}

Chunk::Chunk(ColumnarTable columns) : columns_(std::move(columns)) {
  zones_.reserve(static_cast<size_t>(columns_.num_columns()));
  for (int c = 0; c < columns_.num_columns(); ++c) {
    zones_.push_back(ZoneMap::Of(columns_.col(c), columns_.num_rows()));
  }
}

Chunk::Chunk(const Chunk& other, size_t room)
    : columns_(other.columns_.CopyWithRoom(room)), zones_(other.zones_) {}

Chunk::Chunk(const Chunk& old, const std::vector<uint32_t>& drop)
    : columns_(old.columns_.Without(drop)) {
  zones_.reserve(old.zones_.size());
  for (int c = 0; c < columns_.num_columns(); ++c) {
    const Column& was = old.columns_.col(c);
    const Column& now = columns_.col(c);
    const ZoneMap& zone = old.zones_[static_cast<size_t>(c)];
    if (was.type == ColumnType::kDouble && now.type == ColumnType::kDouble) {
      // The rows holding the bounds survive when every dropped value lies
      // strictly inside them (a NaN does not), so the bounds stay exact.
      size_t nulls = 0;
      bool inside = true;
      for (size_t i = 0; i < drop.size() && inside; ++i) {
        if (was.IsNull(drop[i])) {
          ++nulls;
          continue;
        }
        const double x = was.f64[drop[i]];
        inside = zone.num_min < x && x < zone.num_max;
      }
      if (inside) {
        zones_.push_back(zone);
        zones_.back().null_count -= nulls;
        continue;
      }
    }
    zones_.push_back(ZoneMap::Of(now, columns_.num_rows()));
  }
}

void Chunk::Append(const Row& row) {
  for (size_t c = 0; c < zones_.size(); ++c) zones_[c].Add(row[c]);
  columns_.AppendRow(row, &dict_index_);
}

size_t Chunk::ApproxBytes() const {
  size_t bytes = sizeof(Chunk) + columns_.ApproxBytes() +
                 zones_.capacity() * sizeof(ZoneMap);
  for (const ZoneMap& z : zones_) {
    bytes += z.str_min.capacity() + z.str_max.capacity();
  }
  return bytes;
}

Row Table::RowRange::operator[](size_t i) const {
  for (const ChunkPtr& chunk : *chunks_) {
    if (i < chunk->num_rows()) return chunk->RowAt(i);
    i -= chunk->num_rows();
  }
  std::fprintf(stderr, "Table::rows()[]: index out of range\n");
  std::abort();
}

Table::RowRange::operator std::vector<Row>() const {
  std::vector<Row> out;
  out.reserve(size_);
  for (const ChunkPtr& chunk : *chunks_) {
    for (size_t r = 0; r < chunk->num_rows(); ++r) {
      out.push_back(chunk->RowAt(r));
    }
  }
  return out;
}

Table::Table(std::vector<std::string> columns) : columns_(std::move(columns)) {}

Table::Table(std::vector<std::string> columns, std::vector<Row> rows)
    : columns_(std::move(columns)) {
  AppendRows(rows.data(), rows.size());
}

int Table::ColumnIndex(const std::string& column) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] == column) return static_cast<int>(i);
  }
  return -1;
}

Status Table::AddRow(const Row& row) {
  if (static_cast<int>(row.size()) != num_columns()) {
    return Status::InvalidArgument(ArityError(row.size(), num_columns()));
  }
  AppendRows(&row, 1);
  return Status::OK();
}

Status Table::AddRows(const std::vector<Row>& rows) {
  for (const Row& row : rows) {
    if (static_cast<int>(row.size()) != num_columns()) {
      return Status::InvalidArgument(ArityError(row.size(), num_columns()));
    }
  }
  AppendRows(rows.data(), rows.size());
  return Status::OK();
}

void Table::AppendRows(const Row* rows, size_t count) {
  for (size_t i = 0; i < count;) {
    if (chunks_.empty() || chunks_.back()->num_rows() >= kChunkRows) {
      chunks_.push_back(std::make_shared<Chunk>(ColumnarTable(num_columns())));
    }
    const size_t n =
        std::min(count - i, kChunkRows - chunks_.back()->num_rows());
    if (chunks_.back().use_count() > 1) {
      // Another version shares the tail: this one gets its own copy, with
      // room for the rows it appends.
      chunks_.back() = ChunkPtr(new Chunk(*chunks_.back(), n));
    }
    // The tail is now this table's alone, and every chunk is allocated as a
    // non-const Chunk (ChunkPtr only restricts access), so appending in
    // place is safe.
    Chunk* tail = const_cast<Chunk*>(chunks_.back().get());
    if (tail->num_rows() == 0) tail->columns_.Reserve(n);
    for (size_t end = i + n; i < end; ++i) tail->Append(rows[i]);
    num_rows_ += n;
  }
}

void Table::AddRowOrDie(const Row& row) {
  Status s = AddRow(row);
  if (!s.ok()) {
    std::fprintf(stderr, "Table::AddRowOrDie: %s\n", s.ToString().c_str());
    std::abort();
  }
}

RowPositions Table::LocateRows(RowCounts* needed, const std::vector<int>& on,
                               size_t* chunks_scanned) const {
  const size_t width = on.size();
  RowPositions found;
  int64_t remaining = 0;
  for (const auto& [row, count] : *needed) {
    remaining += std::max<int64_t>(0, count);
  }
  // Zone checks cost O(distinct rows) per chunk; past a few dozen rows a
  // plain scan of every chunk is cheaper.
  const bool prune = needed->size() <= 64;
  size_t scanned = 0;
  for (size_t c = 0; c < chunks_.size() && remaining > 0; ++c) {
    const Chunk& chunk = *chunks_[c];
    if (prune) {
      bool may_hold = false;
      for (const auto& [row, count] : *needed) {
        if (count <= 0) continue;
        // A row of another arity equals no stored row.
        bool fits = row.size() == width;
        for (size_t i = 0; i < width && fits; ++i) {
          fits = chunk.zone(on[i]).MayContain(row[i]);
        }
        if (fits) {
          may_hold = true;
          break;
        }
      }
      if (!may_hold) continue;
    }
    ++scanned;
    std::vector<uint32_t> hits;
    const ColumnarTable& cols = chunk.columnar();
    const size_t n = cols.num_rows();
    // A few wanted rows are compared against the columns directly, which
    // usually stops at the first column; more are hashed.
    const bool direct = needed->size() <= 4;
    Row row;  // scratch for the hashed probe
    auto take = [&](size_t r) {
      auto it = needed->end();
      if (direct) {
        for (auto w = needed->begin(); w != needed->end(); ++w) {
          if (w->second <= 0 || w->first.size() != width) continue;
          bool equal = true;
          for (size_t i = 0; i < width && equal; ++i) {
            equal = cols.col(on[i]).Equals(r, w->first[i]);
          }
          if (equal) {
            it = w;
            break;
          }
        }
      } else {
        row.clear();
        for (int col : on) row.push_back(cols.col(col).ValueAt(r));
        it = needed->find(row);
      }
      if (it == needed->end() || it->second <= 0) return;
      --it->second;
      --remaining;
      hits.push_back(static_cast<uint32_t>(r));
    };
    if (direct && width > 0) {
      // A typed scan of the first matched column marks the rows some wanted
      // row may equal; only those are compared in full. No other row equals
      // a wanted row, so the matches are the ones a full compare finds.
      std::vector<uint64_t> candidates((n + 63) / 64, 0);
      for (const auto& [wanted, count] : *needed) {
        if (count <= 0 || wanted.size() != width) continue;
        cols.col(on[0]).MarkEquals(n, wanted[0], candidates.data());
      }
      for (size_t w = 0; w < candidates.size() && remaining > 0; ++w) {
        for (uint64_t bits = candidates[w]; bits != 0 && remaining > 0;
             bits &= bits - 1) {
          take(w * 64 + static_cast<size_t>(__builtin_ctzll(bits)));
        }
      }
    } else {
      for (size_t r = 0; r < n && remaining > 0; ++r) take(r);
    }
    if (!hits.empty()) found.emplace_back(c, std::move(hits));
  }
  if (chunks_scanned != nullptr) *chunks_scanned = scanned;
  return found;
}

Status Table::RemoveRows(const std::vector<Row>& rows, size_t* chunks_scanned) {
  RowCounts needed;
  for (const Row& row : rows) ++needed[row];
  std::vector<int> all(columns_.size());
  std::iota(all.begin(), all.end(), 0);
  RowPositions found = LocateRows(&needed, all, chunks_scanned);
  for (const auto& [row, count] : needed) {
    if (count > 0) {
      return Status::InvalidArgument("a deleted row is not present");
    }
  }
  RemoveAt(found);
  return Status::OK();
}

void Table::RemoveAt(const RowPositions& positions) {
  std::vector<ChunkPtr> kept;
  kept.reserve(chunks_.size());
  size_t next = 0;  // next entry of `positions`
  for (size_t c = 0; c < chunks_.size(); ++c) {
    if (next == positions.size() || positions[next].first != c) {
      kept.push_back(chunks_[c]);
      continue;
    }
    const std::vector<uint32_t>& hits = positions[next++].second;
    num_rows_ -= hits.size();
    if (hits.size() == chunks_[c]->num_rows()) continue;  // the chunk empties
    kept.push_back(ChunkPtr(new Chunk(*chunks_[c], hits)));
  }
  chunks_ = std::move(kept);
}

size_t Table::ApproxBytes() const {
  size_t bytes = sizeof(Table) + chunks_.capacity() * sizeof(ChunkPtr);
  for (const std::string& c : columns_) {
    bytes += sizeof(std::string) + c.capacity();
  }
  for (const ChunkPtr& chunk : chunks_) bytes += chunk->ApproxBytes();
  return bytes;
}

std::string Table::ToString(size_t max_rows) const {
  std::ostringstream os;
  os << Join(columns_, " | ") << "\n";
  size_t shown = 0;
  for (const Row& row : rows()) {
    if (shown++ >= max_rows) {
      os << "... (" << num_rows_ << " rows total)\n";
      break;
    }
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) os << " | ";
      os << row[i].ToString();
    }
    os << "\n";
  }
  return os.str();
}

void Database::Put(std::string name, Table table) {
  Put(std::move(name), std::make_shared<const Table>(std::move(table)));
}

void Database::Put(std::string name, TablePtr table) {
  tables_[std::move(name)] = Versioned{std::move(table), ++epoch_};
}

void Database::PutAll(std::vector<std::pair<std::string, TablePtr>> tables) {
  if (tables.empty()) return;
  const uint64_t version = ++epoch_;
  for (auto& [name, table] : tables) {
    tables_[std::move(name)] = Versioned{std::move(table), version};
  }
}

bool Database::Has(const std::string& name) const {
  return tables_.count(name) > 0;
}

Result<const Table*> Database::Get(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + name + "' not in database");
  }
  return it->second.table.get();
}

TablePtr Database::GetShared(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.table;
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, versioned] : tables_) names.push_back(name);
  return names;
}

uint64_t Database::VersionOf(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? 0 : it->second.version;
}

void VersionLedger::Retire(const Database& before, const Database& after) {
  // Both maps are name-sorted: walk them in step.
  auto next = after.tables_.begin();
  for (const auto& [name, old] : before.tables_) {
    while (next != after.tables_.end() && next->first < name) ++next;
    if (next != after.tables_.end() && next->first == name &&
        next->second.table == old.table) {
      continue;
    }
    std::vector<Retired>& ledger = retired_[name];
    ledger.erase(std::remove_if(ledger.begin(), ledger.end(),
                                [](const Retired& r) {
                                  return r.table.expired();
                                }),
                 ledger.end());
    ledger.push_back(Retired{old.table, old.version});
  }
}

std::vector<TableMvcc> VersionLedger::Stats(const Database& current) const {
  std::vector<TableMvcc> out;
  out.reserve(current.tables_.size());
  for (const auto& [name, versioned] : current.tables_) {
    TableMvcc m;
    m.table = name;
    m.versions_alive = versioned.table != nullptr ? 1 : 0;
    auto it = retired_.find(name);
    if (it != retired_.end()) {
      // Chunks the current version still references cost a pinned version
      // nothing; seed them as already counted.
      std::unordered_set<const Chunk*> counted;
      if (versioned.table != nullptr) {
        for (const ChunkPtr& chunk : versioned.table->chunks()) {
          counted.insert(chunk.get());
        }
      }
      for (const Retired& r : it->second) {
        TablePtr pinned = r.table.lock();
        if (pinned == nullptr) continue;
        ++m.versions_alive;
        for (const ChunkPtr& chunk : pinned->chunks()) {
          if (counted.insert(chunk.get()).second) {
            m.bytes_pinned += chunk->ApproxBytes();
          }
        }
        if (m.oldest_pinned_epoch == 0 || r.version < m.oldest_pinned_epoch) {
          m.oldest_pinned_epoch = r.version;
        }
      }
    }
    out.push_back(std::move(m));
  }
  return out;
}

uint64_t VersionLedger::OldestPinnedEpoch() const {
  uint64_t oldest = 0;
  for (const auto& [name, ledger] : retired_) {
    for (const Retired& r : ledger) {
      if (r.table.expired()) continue;
      if (oldest == 0 || r.version < oldest) oldest = r.version;
    }
  }
  return oldest;
}

namespace {

// Row -> multiplicity.
std::unordered_map<Row, int64_t, RowHash, RowEq> Histogram(const Table& t) {
  std::unordered_map<Row, int64_t, RowHash, RowEq> h;
  h.reserve(t.num_rows());
  for (const Row& row : t.rows()) ++h[row];
  return h;
}

}  // namespace

bool MultisetEqual(const Table& a, const Table& b) {
  if (a.num_columns() != b.num_columns()) return false;
  if (a.num_rows() != b.num_rows()) return false;
  auto ha = Histogram(a);
  for (const Row& row : b.rows()) {
    auto it = ha.find(row);
    if (it == ha.end() || it->second == 0) return false;
    --it->second;
  }
  return true;
}

bool MultisetAlmostEqual(const Table& a, const Table& b,
                         double relative_tolerance) {
  if (a.num_columns() != b.num_columns()) return false;
  if (a.num_rows() != b.num_rows()) return false;
  std::vector<Row> ra = a.rows();
  std::vector<Row> rb = b.rows();
  auto by_total_order = [](const Row& x, const Row& y) {
    return CompareRows(x, y) < 0;
  };
  std::sort(ra.begin(), ra.end(), by_total_order);
  std::sort(rb.begin(), rb.end(), by_total_order);
  auto value_close = [relative_tolerance](const Value& x, const Value& y) {
    if (x.is_numeric() && y.is_numeric()) {
      double dx = x.AsDouble(), dy = y.AsDouble();
      double scale = std::max({1.0, std::abs(dx), std::abs(dy)});
      return std::abs(dx - dy) <= relative_tolerance * scale;
    }
    return x.Compare(y) == 0;
  };
  for (size_t i = 0; i < ra.size(); ++i) {
    for (size_t j = 0; j < ra[i].size(); ++j) {
      if (!value_close(ra[i][j], rb[i][j])) return false;
    }
  }
  return true;
}

std::string DescribeMultisetDifference(const Table& a, const Table& b) {
  if (a.num_columns() != b.num_columns()) {
    return "arity mismatch: " + std::to_string(a.num_columns()) + " vs " +
           std::to_string(b.num_columns());
  }
  auto ha = Histogram(a);
  auto hb = Histogram(b);
  for (const auto& [row, count] : ha) {
    auto it = hb.find(row);
    int64_t other = it == hb.end() ? 0 : it->second;
    if (other != count) {
      std::string rendering;
      for (const Value& v : row) rendering += v.ToString() + " ";
      return "row [" + rendering + "] has multiplicity " +
             std::to_string(count) + " on the left but " +
             std::to_string(other) + " on the right";
    }
  }
  for (const auto& [row, count] : hb) {
    if (ha.find(row) == ha.end()) {
      std::string rendering;
      for (const Value& v : row) rendering += v.ToString() + " ";
      return "row [" + rendering + "] has multiplicity 0 on the left but " +
             std::to_string(count) + " on the right";
    }
  }
  return "";
}

namespace {

// Zigzag folds the sign bit into the low bit so small negative ints encode
// as short varints.
uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

}  // namespace

void EncodeValue(const Value& value, std::string* out) {
  out->push_back(static_cast<char>(value.type()));
  switch (value.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64:
      PutVarint64(out, ZigzagEncode(value.int64()));
      break;
    case ValueType::kDouble:
      PutDoubleBits(out, value.dbl());
      break;
    case ValueType::kString:
      PutLengthPrefixed(out, value.str());
      break;
  }
}

Result<Value> DecodeValue(ByteReader* reader) {
  AQV_ASSIGN_OR_RETURN(std::string_view tag, reader->ReadBytes(1));
  switch (static_cast<ValueType>(tag[0])) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kInt64: {
      AQV_ASSIGN_OR_RETURN(uint64_t bits, reader->ReadVarint64());
      return Value::Int64(ZigzagDecode(bits));
    }
    case ValueType::kDouble: {
      AQV_ASSIGN_OR_RETURN(double d, reader->ReadDoubleBits());
      return Value::Double(d);
    }
    case ValueType::kString: {
      AQV_ASSIGN_OR_RETURN(std::string_view s, reader->ReadLengthPrefixed());
      return Value::String(std::string(s));
    }
  }
  return Status::InvalidArgument("corrupt value encoding: unknown type tag " +
                                 std::to_string(static_cast<int>(tag[0])));
}

void EncodeRow(const Row& row, std::string* out) {
  PutVarint64(out, row.size());
  for (const Value& value : row) EncodeValue(value, out);
}

void EncodeRowAt(const ColumnarTable& columns, size_t row, std::string* out) {
  PutVarint64(out, static_cast<uint64_t>(columns.num_columns()));
  for (int c = 0; c < columns.num_columns(); ++c) {
    const Column& col = columns.col(c);
    if (col.IsNull(row)) {
      out->push_back(static_cast<char>(ValueType::kNull));
      continue;
    }
    switch (col.type) {
      case ColumnType::kInt64:
        out->push_back(static_cast<char>(ValueType::kInt64));
        PutVarint64(out, ZigzagEncode(col.i64[row]));
        break;
      case ColumnType::kDouble:
        out->push_back(static_cast<char>(ValueType::kDouble));
        PutDoubleBits(out, col.f64[row]);
        break;
      case ColumnType::kString:
        out->push_back(static_cast<char>(ValueType::kString));
        PutLengthPrefixed(out, col.dict[static_cast<size_t>(col.codes[row])]);
        break;
      case ColumnType::kMixed:
        EncodeValue(col.mixed[row], out);
        break;
    }
  }
}

Result<Row> DecodeRow(ByteReader* reader) {
  AQV_ASSIGN_OR_RETURN(uint64_t arity, reader->ReadVarint64());
  Row row;
  row.reserve(arity);
  for (uint64_t i = 0; i < arity; ++i) {
    AQV_ASSIGN_OR_RETURN(Value value, DecodeValue(reader));
    row.push_back(std::move(value));
  }
  return row;
}

}  // namespace aqv
