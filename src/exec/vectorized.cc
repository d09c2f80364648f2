#include "exec/vectorized.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <string>
#include <unordered_map>

namespace aqv {

namespace {

/// Maps a three-way comparison result through `op` (EvalCmp's final switch).
inline bool CmpPass(CmpOp op, int c) {
  switch (op) {
    case CmpOp::kEq:
      return c == 0;
    case CmpOp::kNe:
      return c != 0;
    case CmpOp::kLt:
      return c < 0;
    case CmpOp::kLe:
      return c <= 0;
    case CmpOp::kGt:
      return c > 0;
    case CmpOp::kGe:
      return c >= 0;
  }
  return false;
}

/// Numeric column value as double — the representation EvalCmp compares in
/// (AsDouble on both sides), so INT64/DOUBLE cross comparisons match the
/// row engine bit-for-bit.
inline double NumAt(const Column& c, size_t r) {
  return c.type == ColumnType::kInt64 ? static_cast<double>(c.i64[r])
                                      : c.f64[r];
}

inline int Sign(int c) { return c < 0 ? -1 : (c > 0 ? 1 : 0); }

using Pred = CompiledFilter::Pred;

/// An operand resolved the way EvalScalarPredicate resolves it: constants
/// pass through, columns go through the layout, and anything unresolvable
/// becomes a NULL constant (which makes the predicate constant-false).
struct Resolved {
  bool is_const;
  Value cv;
  int col;
};

Resolved Resolve(const Operand& o, const ColumnIndexMap& layout,
                 int num_columns) {
  if (o.is_constant()) return {true, o.constant, -1};
  auto it = layout.find(o.column);
  if (it == layout.end() || it->second < 0 || it->second >= num_columns) {
    return {true, Value::Null(), -1};
  }
  return {false, Value(), it->second};
}

bool PredPass(const Pred& p, const ColumnarTable& t, size_t r) {
  switch (p.kind) {
    case Pred::Kind::kAlwaysTrue:
      return true;
    case Pred::Kind::kAlwaysFalse:
      return false;
    case Pred::Kind::kNumConst: {
      const Column& c = t.col(p.lhs_col);
      if (c.IsNull(r)) return false;
      double d = NumAt(c, r);
      return CmpPass(p.op, d < p.cval ? -1 : (d > p.cval ? 1 : 0));
    }
    case Pred::Kind::kStrConst: {
      const Column& c = t.col(p.lhs_col);
      if (c.IsNull(r)) return false;
      return p.dict_pass[static_cast<size_t>(c.codes[r])] != 0;
    }
    case Pred::Kind::kNumNum: {
      const Column& lc = t.col(p.lhs_col);
      const Column& rc = t.col(p.rhs_col);
      if (lc.IsNull(r) || rc.IsNull(r)) return false;
      double a = NumAt(lc, r), b = NumAt(rc, r);
      return CmpPass(p.op, a < b ? -1 : (a > b ? 1 : 0));
    }
    case Pred::Kind::kStrStr: {
      const Column& lc = t.col(p.lhs_col);
      const Column& rc = t.col(p.rhs_col);
      if (lc.IsNull(r) || rc.IsNull(r)) return false;
      int cm = lc.dict[static_cast<size_t>(lc.codes[r])].compare(
          rc.dict[static_cast<size_t>(rc.codes[r])]);
      return CmpPass(p.op, Sign(cm));
    }
    case Pred::Kind::kNotNullNe: {
      if (t.col(p.lhs_col).IsNull(r)) return false;
      if (p.rhs_col >= 0 && t.col(p.rhs_col).IsNull(r)) return false;
      return true;
    }
  }
  return false;
}

template <typename T, typename Cmp>
inline void AppendCmp(const T* v, const Column& c, size_t base, size_t end,
                      double cv, Cmp cmp, SelVector* sel) {
  if (!c.has_nulls) {
    for (size_t r = base; r < end; ++r) {
      if (cmp(static_cast<double>(v[r]), cv)) {
        sel->push_back(static_cast<uint32_t>(r));
      }
    }
  } else {
    for (size_t r = base; r < end; ++r) {
      if (!c.IsNull(r) && cmp(static_cast<double>(v[r]), cv)) {
        sel->push_back(static_cast<uint32_t>(r));
      }
    }
  }
}

template <typename T>
void AppendNumConst(const T* v, const Column& c, size_t base, size_t end,
                    CmpOp op, double cv, SelVector* sel) {
  switch (op) {
    case CmpOp::kEq:
      AppendCmp(v, c, base, end, cv, [](double a, double b) { return a == b; },
                sel);
      break;
    case CmpOp::kNe:
      AppendCmp(v, c, base, end, cv, [](double a, double b) { return a != b; },
                sel);
      break;
    case CmpOp::kLt:
      AppendCmp(v, c, base, end, cv, [](double a, double b) { return a < b; },
                sel);
      break;
    case CmpOp::kLe:
      AppendCmp(v, c, base, end, cv, [](double a, double b) { return a <= b; },
                sel);
      break;
    case CmpOp::kGt:
      AppendCmp(v, c, base, end, cv, [](double a, double b) { return a > b; },
                sel);
      break;
    case CmpOp::kGe:
      AppendCmp(v, c, base, end, cv, [](double a, double b) { return a >= b; },
                sel);
      break;
  }
}

/// First conjunct over one batch: appends passing row ids to `sel`. The
/// numeric-vs-constant shape (the dominant scan predicate) gets dedicated
/// typed loops with the comparator hoisted out.
void AppendPassing(const Pred& p, const ColumnarTable& t, size_t base,
                   size_t end, SelVector* sel) {
  if (p.kind == Pred::Kind::kNumConst) {
    const Column& c = t.col(p.lhs_col);
    if (c.type == ColumnType::kInt64) {
      AppendNumConst(c.i64.data(), c, base, end, p.op, p.cval, sel);
    } else {
      AppendNumConst(c.f64.data(), c, base, end, p.op, p.cval, sel);
    }
    return;
  }
  for (size_t r = base; r < end; ++r) {
    if (PredPass(p, t, r)) sel->push_back(static_cast<uint32_t>(r));
  }
}

/// Later conjuncts: compacts the batch's slice of `sel` in place.
void RefinePassing(const Pred& p, const ColumnarTable& t, SelVector* sel,
                   size_t from) {
  size_t w = from;
  for (size_t i = from; i < sel->size(); ++i) {
    uint32_t r = (*sel)[i];
    if (PredPass(p, t, r)) (*sel)[w++] = r;
  }
  sel->resize(w);
}

}  // namespace

bool CompiledFilter::Compile(const std::vector<Predicate>& preds,
                             const ColumnIndexMap& layout,
                             const ColumnarTable& table, CompiledFilter* out) {
  out->preds_.clear();
  out->preds_.reserve(preds.size());
  for (const Predicate& p : preds) {
    if (!p.IsScalar()) return false;
    Resolved l = Resolve(p.lhs, layout, table.num_columns());
    Resolved r = Resolve(p.rhs, layout, table.num_columns());
    if (!l.is_const && !table.ColumnVectorizable(l.col)) return false;
    if (!r.is_const && !table.ColumnVectorizable(r.col)) return false;

    Pred c;
    c.op = p.op;
    if (l.is_const && r.is_const) {
      c.kind = EvalCmp(l.cv, p.op, r.cv) ? Pred::Kind::kAlwaysTrue
                                         : Pred::Kind::kAlwaysFalse;
    } else if (l.is_const || r.is_const) {
      // Normalize to `column op constant` (flip when the constant is lhs).
      int col = l.is_const ? r.col : l.col;
      const Value& cv = l.is_const ? l.cv : r.cv;
      CmpOp op = l.is_const ? FlipCmpOp(p.op) : p.op;
      c.lhs_col = col;
      c.op = op;
      const Column& cc = table.col(col);
      if (cv.is_null()) {
        c.kind = Pred::Kind::kAlwaysFalse;
      } else if (cc.type == ColumnType::kString) {
        if (cv.type() == ValueType::kString) {
          // Hoist the comparison out of the scan: one verdict per dict code.
          c.kind = Pred::Kind::kStrConst;
          c.dict_pass.resize(cc.dict.size());
          for (size_t i = 0; i < cc.dict.size(); ++i) {
            c.dict_pass[i] =
                CmpPass(op, Sign(cc.dict[i].compare(cv.str()))) ? 1 : 0;
          }
        } else {
          c.kind = op == CmpOp::kNe ? Pred::Kind::kNotNullNe
                                    : Pred::Kind::kAlwaysFalse;
        }
      } else {  // numeric column
        if (cv.is_numeric()) {
          c.kind = Pred::Kind::kNumConst;
          c.cval = cv.AsDouble();
        } else {
          c.kind = op == CmpOp::kNe ? Pred::Kind::kNotNullNe
                                    : Pred::Kind::kAlwaysFalse;
        }
      }
    } else {
      c.lhs_col = l.col;
      c.rhs_col = r.col;
      bool lnum = table.col(l.col).type != ColumnType::kString;
      bool rnum = table.col(r.col).type != ColumnType::kString;
      if (lnum && rnum) {
        c.kind = Pred::Kind::kNumNum;
      } else if (!lnum && !rnum) {
        c.kind = Pred::Kind::kStrStr;
      } else {
        c.kind = p.op == CmpOp::kNe ? Pred::Kind::kNotNullNe
                                    : Pred::Kind::kAlwaysFalse;
      }
    }
    out->preds_.push_back(std::move(c));
  }
  return true;
}

SelVector CompiledFilter::Run(const ColumnarTable& table,
                              ExecContext* ctx) const {
  const size_t n = table.num_rows();
  SelVector sel;
  if (preds_.empty()) {
    // Identity selection; FilterRows charges nothing for an empty
    // conjunction, so neither do we.
    sel.resize(n);
    for (size_t r = 0; r < n; ++r) sel[r] = static_cast<uint32_t>(r);
    return sel;
  }
  sel.reserve(n);
  for (size_t base = 0; base < n; base += kBatchRows) {
    const size_t end = std::min(n, base + kBatchRows);
    // Charge the whole batch up front; kBatchRows == kCheckStride, so this
    // also re-checks the deadline/cancel flag once per batch.
    if (ctx != nullptr && !ctx->TickRows(end - base)) break;
    const size_t mark = sel.size();
    AppendPassing(preds_[0], table, base, end, &sel);
    for (size_t p = 1; p < preds_.size(); ++p) {
      if (sel.size() == mark) break;
      RefinePassing(preds_[p], table, &sel, mark);
    }
  }
  return sel;
}

void GatherRows(const ColumnarTable& table, const SelVector& sel,
                std::vector<Row>* out) {
  // Reserving again per chunk would defeat the geometric growth.
  if (out->empty()) out->reserve(sel.size());
  for (uint32_t r : sel) {
    Row row;
    table.AppendRowTo(r, &row);
    out->push_back(std::move(row));
  }
}

bool CompileChunkFilters(const std::vector<Predicate>& preds,
                         const ColumnIndexMap& layout, const Table& table,
                         std::vector<CompiledFilter>* out) {
  out->assign(table.chunks().size(), CompiledFilter());
  for (size_t c = 0; c < table.chunks().size(); ++c) {
    if (!CompiledFilter::Compile(preds, layout, table.chunks()[c]->columnar(),
                                 &(*out)[c])) {
      return false;
    }
  }
  return true;
}

namespace {

/// False only if no row of `chunk` can satisfy `p` (EvalScalarPredicate's
/// semantics): a column compared with a constant outside its zone, a NULL
/// or unresolvable operand, an all-NULL column.
bool ZoneMayPass(const Predicate& p, const Chunk& chunk,
                 const ColumnIndexMap& layout, int num_columns) {
  Resolved l = Resolve(p.lhs, layout, num_columns);
  Resolved r = Resolve(p.rhs, layout, num_columns);
  const size_t rows = chunk.num_rows();
  auto all_null = [&](int col) { return chunk.zone(col).null_count == rows; };
  if (l.is_const && r.is_const) return EvalCmp(l.cv, p.op, r.cv);
  if (!l.is_const && !r.is_const) return !all_null(l.col) && !all_null(r.col);
  // Normalize to `column op constant`.
  const ZoneMap& z = chunk.zone(l.is_const ? r.col : l.col);
  const Value& c = l.is_const ? l.cv : r.cv;
  const CmpOp op = l.is_const ? FlipCmpOp(p.op) : p.op;
  if (c.is_null() || z.null_count == rows) return false;
  if (op == CmpOp::kNe) return true;  // cross-family `<>` passes
  if (c.is_numeric()) {
    double d = c.AsDouble();
    if (!z.has_num) return false;
    if (std::isnan(d)) return true;
    switch (op) {
      case CmpOp::kEq:
        return z.num_min <= d && d <= z.num_max;
      case CmpOp::kLt:
        return z.num_min < d;
      case CmpOp::kLe:
        return z.num_min <= d;
      case CmpOp::kGt:
        return z.num_max > d;
      default:  // kGe
        return z.num_max >= d;
    }
  }
  if (!z.has_str) return false;
  const std::string& str = c.str();
  switch (op) {
    case CmpOp::kEq:
      return z.str_min <= str && str <= z.str_max;
    case CmpOp::kLt:
      return z.str_min < str;
    case CmpOp::kLe:
      return z.str_min <= str;
    case CmpOp::kGt:
      return z.str_max > str;
    default:  // kGe
      return z.str_max >= str;
  }
}

}  // namespace

std::vector<std::pair<size_t, SelVector>> SelectRows(
    const Table& table, const std::vector<Predicate>& preds,
    const ColumnIndexMap& layout, size_t* chunks_scanned) {
  std::vector<std::pair<size_t, SelVector>> out;
  size_t scanned = 0;
  for (size_t c = 0; c < table.chunks().size(); ++c) {
    const Chunk& chunk = *table.chunks()[c];
    bool may_match = true;
    for (const Predicate& p : preds) {
      if (p.IsScalar() &&
          !ZoneMayPass(p, chunk, layout, table.num_columns())) {
        may_match = false;
        break;
      }
    }
    if (!may_match) continue;
    ++scanned;
    SelVector sel;
    CompiledFilter filter;
    if (CompiledFilter::Compile(preds, layout, chunk.columnar(), &filter)) {
      sel = filter.Run(chunk.columnar(), nullptr);
    } else {
      const std::vector<Row>& rows = chunk.rows();
      for (size_t r = 0; r < rows.size(); ++r) {
        bool keep = true;
        for (const Predicate& p : preds) {
          if (!EvalScalarPredicate(p, rows[r], layout)) {
            keep = false;
            break;
          }
        }
        if (keep) sel.push_back(static_cast<uint32_t>(r));
      }
    }
    if (!sel.empty()) out.emplace_back(c, std::move(sel));
  }
  if (chunks_scanned != nullptr) *chunks_scanned = scanned;
  return out;
}

namespace {

/// Packed canonical group key: (tag, bits) per grouping column, zero-padded
/// to the maximum width so the map type is fixed. Tags: 0 NULL, 1 integer
/// space (INT64 and integral DOUBLE collapse here — CanonicalKey's rule),
/// 2 non-integral DOUBLE (IEEE bits), 3 string (code in the column's
/// aggregation-wide dictionary).
using GroupKey = std::array<uint64_t, 2 * VectorizedAggregation::kMaxGroupCols>;

struct GroupKeyHash {
  size_t words;
  size_t operator()(const GroupKey& k) const {
    uint64_t h = 1469598103934665603ULL;
    for (size_t i = 0; i < words; ++i) {
      h ^= k[i];
      h *= 1099511628211ULL;
    }
    return static_cast<size_t>(h);
  }
};

/// Mirrors Aggregator's accumulator state; which fields are live is decided
/// by the aggregate and by each image's stream, so the struct carries only
/// the tags Aggregator's Value fields would.
struct AggState {
  __int128 sum_i = 0;  // exact, while every input is INT64
  double sum_d = 0.0;
  int64_t cnt = 0;
  int64_t ext_i = 0;
  double ext_d = 0.0;
  int32_t ext_code = -1;
  enum : uint8_t { kNone, kInt, kDbl, kStr } ext = kNone;  // MIN/MAX kind
  bool any = false;
  bool all_int = true;
};

/// One column's strings across every image of one aggregation. The first
/// image's dictionary is used in place (identity remap); the first later
/// image copies it into `merged`, and every later image maps its codes onto
/// that copy through `index`.
struct GlobalDict {
  const std::vector<std::string>* first = nullptr;
  std::vector<std::string> merged;
  std::unordered_map<std::string, int32_t> index;

  const std::vector<std::string>& strings() const {
    return merged.empty() ? *first : merged;
  }

  /// Remap of `dict`'s codes; empty means identity.
  std::vector<int32_t> Remap(const std::vector<std::string>& dict) {
    if (first == nullptr) {
      first = &dict;
      return {};
    }
    if (merged.empty()) {
      merged = *first;
      for (size_t i = 0; i < merged.size(); ++i) {
        index.emplace(merged[i], static_cast<int32_t>(i));
      }
    }
    std::vector<int32_t> remap(dict.size());
    for (size_t i = 0; i < dict.size(); ++i) {
      auto [it, inserted] =
          index.emplace(dict[i], static_cast<int32_t>(merged.size()));
      if (inserted) merged.push_back(dict[i]);
      remap[i] = it->second;
    }
    return remap;
  }
};

/// Typed value stream an aggregate consumes from one image: fixed per
/// image since a non-kMixed column holds one type (a product with a string
/// operand is always NULL, hence kNullStream).
enum class Stream : uint8_t { kInt, kDbl, kStr, kNullStream };

inline void EncodeKeyCol(const Column& c, size_t r, const int32_t* remap,
                         uint64_t* tag, uint64_t* bits) {
  if (c.IsNull(r)) {
    *tag = 0;
    *bits = 0;
    return;
  }
  switch (c.type) {
    case ColumnType::kInt64:
      *tag = 1;
      *bits = static_cast<uint64_t>(c.i64[r]);
      break;
    case ColumnType::kDouble: {
      double d = c.f64[r];
      int64_t i = static_cast<int64_t>(d);
      if (static_cast<double>(i) == d) {
        *tag = 1;
        *bits = static_cast<uint64_t>(i);
      } else {
        *tag = 2;
        *bits = std::bit_cast<uint64_t>(d);
      }
      break;
    }
    case ColumnType::kString: {
      int32_t code = c.codes[r];
      if (remap != nullptr) code = remap[code];
      *tag = 3;
      *bits = static_cast<uint64_t>(static_cast<uint32_t>(code));
      break;
    }
    case ColumnType::kMixed:
      break;  // rejected at Compile
  }
}

/// True if column `c` of an image holds at least one non-NULL value.
bool HasValues(const Column& c, size_t rows) {
  if (!c.has_nulls) return rows > 0;
  size_t nulls = 0;
  for (uint64_t w : c.null_words) {
    nulls += static_cast<size_t>(std::popcount(w));
  }
  return nulls < rows;
}

}  // namespace

struct VectorizedAggregation::Groups::Impl {
  std::unordered_map<GroupKey, uint32_t, GroupKeyHash> index;
  std::vector<Row> keys;         // first-encountered group values
  std::vector<AggState> states;  // group-major, one per aggregate
  std::unordered_map<int, GlobalDict> dicts;  // by column ordinal
  explicit Impl(size_t key_words) : index(16, GroupKeyHash{key_words}) {}
};

VectorizedAggregation::Groups::Groups() = default;
VectorizedAggregation::Groups::~Groups() = default;
VectorizedAggregation::Groups::Groups(Groups&&) noexcept = default;
VectorizedAggregation::Groups& VectorizedAggregation::Groups::operator=(
    Groups&&) noexcept = default;

bool VectorizedAggregation::CompileImages(
    const std::vector<const ColumnarTable*>& images,
    const std::vector<int>& group_cols, const std::vector<AggSpec>& aggs,
    VectorizedAggregation* out) {
  if (group_cols.size() > kMaxGroupCols) return false;
  auto vectorizable = [&](int col) {
    for (const ColumnarTable* t : images) {
      if (!t->ColumnVectorizable(col)) return false;
    }
    return true;
  };
  for (int g : group_cols) {
    if (!vectorizable(g)) return false;
  }
  out->group_cols_ = group_cols;
  out->aggs_.clear();
  out->aggs_.reserve(aggs.size());
  for (const AggSpec& a : aggs) {
    if (!vectorizable(a.column)) return false;
    if (a.multiplier >= 0) {
      // NumericProduct: a string operand yields NULL, numbers multiply.
      if (!vectorizable(a.multiplier)) return false;
    } else {
      bool strings = false;
      bool numbers = false;
      for (const ColumnarTable* t : images) {
        const Column& c = t->col(a.column);
        if (c.type == ColumnType::kString) {
          strings = true;
        } else if (HasValues(c, t->num_rows())) {
          numbers = true;
        }
      }
      // SUM/AVG over a string column would hit AsDouble on a string in the
      // row engine; keep that path byte-identical by not vectorizing it.
      // MIN/MAX across families keeps the first family's extremum in the
      // row engine; a typed loop would not, so that falls back too.
      if ((a.fn == AggFn::kSum || a.fn == AggFn::kAvg) && strings) {
        return false;
      }
      if ((a.fn == AggFn::kMin || a.fn == AggFn::kMax) && strings && numbers) {
        return false;
      }
    }
    out->aggs_.push_back(Agg{a.fn, a.column, a.multiplier});
  }
  return true;
}

bool VectorizedAggregation::Compile(const ColumnarTable& table,
                                    const std::vector<int>& group_cols,
                                    const std::vector<AggSpec>& aggs,
                                    VectorizedAggregation* out) {
  return CompileImages({&table}, group_cols, aggs, out);
}

bool VectorizedAggregation::Compile(const Table& table,
                                    const std::vector<int>& group_cols,
                                    const std::vector<AggSpec>& aggs,
                                    VectorizedAggregation* out) {
  std::vector<const ColumnarTable*> images;
  images.reserve(table.chunks().size());
  for (const ChunkPtr& chunk : table.chunks()) {
    images.push_back(&chunk->columnar());
  }
  return CompileImages(images, group_cols, aggs, out);
}

void VectorizedAggregation::Accumulate(const ColumnarTable& table,
                                       const SelVector* sel, ExecContext* ctx,
                                       Groups* groups) const {
  const size_t total = sel != nullptr ? sel->size() : table.num_rows();
  const size_t nspecs = aggs_.size();
  const size_t ng = group_cols_.size();
  if (groups->impl_ == nullptr) {
    groups->impl_ = std::make_unique<Groups::Impl>(2 * ng);
  }
  Groups::Impl& g = *groups->impl_;
  if (ng == 0 && g.keys.empty()) {
    // Global aggregate: exactly one group, present even on empty input.
    g.keys.emplace_back();
    g.states.resize(nspecs);
  }

  // This image's string codes, mapped onto each column's dictionary.
  std::unordered_map<int, std::vector<int32_t>> remaps;
  auto remap_of = [&](int col) -> const int32_t* {
    auto it = remaps.find(col);
    if (it == remaps.end()) {
      it = remaps.emplace(col, g.dicts[col].Remap(table.col(col).dict)).first;
    }
    return it->second.empty() ? nullptr : it->second.data();
  };
  std::array<const int32_t*, kMaxGroupCols> key_remap{};
  for (size_t i = 0; i < ng; ++i) {
    if (table.col(group_cols_[i]).type == ColumnType::kString) {
      key_remap[i] = remap_of(group_cols_[i]);
    }
  }
  // Per aggregate: this image's stream, and the code remap of a string
  // MIN/MAX.
  std::vector<Stream> streams(nspecs);
  std::vector<const int32_t*> agg_remap(nspecs, nullptr);
  for (size_t s = 0; s < nspecs; ++s) {
    const Agg& a = aggs_[s];
    ColumnType ct = table.col(a.col).type;
    if (a.mult >= 0) {
      ColumnType mt = table.col(a.mult).type;
      streams[s] = ct == ColumnType::kString || mt == ColumnType::kString
                       ? Stream::kNullStream
                   : ct == ColumnType::kInt64 && mt == ColumnType::kInt64
                       ? Stream::kInt
                       : Stream::kDbl;
    } else {
      streams[s] = ct == ColumnType::kInt64    ? Stream::kInt
                   : ct == ColumnType::kDouble ? Stream::kDbl
                                               : Stream::kStr;
    }
    if (streams[s] == Stream::kStr &&
        (a.fn == AggFn::kMin || a.fn == AggFn::kMax)) {
      agg_remap[s] = remap_of(a.col);
    }
  }

  std::vector<uint32_t> gids(kBatchRows);
  for (size_t base = 0; base < total; base += kBatchRows) {
    const size_t bn = std::min(kBatchRows, total - base);
    if (ctx != nullptr && !ctx->TickRows(bn)) break;
    const uint32_t* selp = sel != nullptr ? sel->data() + base : nullptr;

    // Stage 1: group-id per row.
    if (ng == 0) {
      std::fill_n(gids.begin(), bn, 0u);
    } else {
      GroupKey key{};
      for (size_t k = 0; k < bn; ++k) {
        size_t r = selp != nullptr ? selp[k] : base + k;
        for (size_t i = 0; i < ng; ++i) {
          EncodeKeyCol(table.col(group_cols_[i]), r, key_remap[i],
                       &key[2 * i], &key[2 * i + 1]);
        }
        auto [it, inserted] =
            g.index.try_emplace(key, static_cast<uint32_t>(g.keys.size()));
        if (inserted) {
          Row values;
          values.reserve(ng + nspecs);  // Finish appends the aggregates
          for (int col : group_cols_) values.push_back(table.ValueAt(col, r));
          g.keys.push_back(std::move(values));
          g.states.resize(g.states.size() + nspecs);
        }
        gids[k] = it->second;
      }
    }

    // Stage 2: per-aggregate typed accumulation over the batch.
    for (size_t s = 0; s < nspecs; ++s) {
      const Agg& a = aggs_[s];
      const Stream stream = streams[s];
      if (stream == Stream::kNullStream) continue;
      auto state = [&](size_t k) -> AggState& {
        return g.states[gids[k] * nspecs + s];
      };
      auto row_of = [&](size_t k) {
        return selp != nullptr ? static_cast<size_t>(selp[k]) : base + k;
      };
      const Column& c = table.col(a.col);
      const Column* m = a.mult >= 0 ? &table.col(a.mult) : nullptr;

      switch (a.fn) {
        case AggFn::kSum:
        case AggFn::kAvg:
          if (stream == Stream::kInt) {
            for (size_t k = 0; k < bn; ++k) {
              size_t r = row_of(k);
              if (c.IsNull(r) || (m != nullptr && m->IsNull(r))) continue;
              int64_t v = m != nullptr ? c.i64[r] * m->i64[r] : c.i64[r];
              AggState& st = state(k);
              st.sum_i += v;
              st.sum_d += static_cast<double>(v);
              ++st.cnt;
              st.any = true;
            }
          } else {
            for (size_t k = 0; k < bn; ++k) {
              size_t r = row_of(k);
              if (c.IsNull(r) || (m != nullptr && m->IsNull(r))) continue;
              double v = m != nullptr ? NumAt(c, r) * NumAt(*m, r) : NumAt(c, r);
              AggState& st = state(k);
              st.sum_d += v;
              ++st.cnt;
              st.any = true;
              st.all_int = false;
            }
          }
          break;
        case AggFn::kCount:
          for (size_t k = 0; k < bn; ++k) {
            size_t r = row_of(k);
            if (c.IsNull(r) || (m != nullptr && m->IsNull(r))) continue;
            AggState& st = state(k);
            ++st.cnt;
            st.any = true;
          }
          break;
        case AggFn::kMin:
        case AggFn::kMax: {
          // Strict double comparison like EvalCmp: the first value wins
          // ties, including INT64/DOUBLE pairs that collapse as doubles.
          const bool is_min = a.fn == AggFn::kMin;
          auto beats = [is_min](double v, const AggState& st) {
            double e = st.ext == AggState::kInt
                           ? static_cast<double>(st.ext_i)
                           : st.ext_d;
            return st.ext == AggState::kNone || (is_min ? v < e : v > e);
          };
          if (stream == Stream::kInt) {
            for (size_t k = 0; k < bn; ++k) {
              size_t r = row_of(k);
              if (c.IsNull(r) || (m != nullptr && m->IsNull(r))) continue;
              int64_t v = m != nullptr ? c.i64[r] * m->i64[r] : c.i64[r];
              AggState& st = state(k);
              if (beats(static_cast<double>(v), st)) {
                st.ext = AggState::kInt;
                st.ext_i = v;
              }
              st.any = true;
            }
          } else if (stream == Stream::kDbl) {
            for (size_t k = 0; k < bn; ++k) {
              size_t r = row_of(k);
              if (c.IsNull(r) || (m != nullptr && m->IsNull(r))) continue;
              double v = m != nullptr ? NumAt(c, r) * NumAt(*m, r) : NumAt(c, r);
              AggState& st = state(k);
              if (beats(v, st)) {
                st.ext = AggState::kDbl;
                st.ext_d = v;
              }
              st.any = true;
            }
          } else {  // Stream::kStr (unscaled: a string mult is kNullStream)
            const int32_t* remap = agg_remap[s];
            const std::vector<std::string>& dict = g.dicts[a.col].strings();
            for (size_t k = 0; k < bn; ++k) {
              size_t r = row_of(k);
              if (c.IsNull(r)) continue;
              int32_t code = c.codes[r];
              if (remap != nullptr) code = remap[code];
              AggState& st = state(k);
              if (st.ext == AggState::kNone) {
                st.ext = AggState::kStr;
                st.ext_code = code;
              } else if (code != st.ext_code) {
                int cm = dict[static_cast<size_t>(code)].compare(
                    dict[static_cast<size_t>(st.ext_code)]);
                if (is_min ? cm < 0 : cm > 0) st.ext_code = code;
              }
              st.any = true;
            }
          }
          break;
        }
      }
    }
  }
}

std::vector<Row> VectorizedAggregation::Finish(Groups* groups,
                                               ExecContext* ctx) const {
  const size_t nspecs = aggs_.size();
  if (groups->impl_ == nullptr) {
    groups->impl_ = std::make_unique<Groups::Impl>(2 * group_cols_.size());
  }
  Groups::Impl& g = *groups->impl_;
  if (group_cols_.empty() && g.keys.empty()) {
    g.keys.emplace_back();
    g.states.resize(nspecs);
  }
  // Emit [group values..., aggregate finishes...].
  std::vector<Row> out;
  out.reserve(g.keys.size());
  for (size_t gi = 0; gi < g.keys.size(); ++gi) {
    Row row = std::move(g.keys[gi]);
    row.reserve(row.size() + nspecs);
    for (size_t s = 0; s < nspecs; ++s) {
      const Agg& a = aggs_[s];
      const AggState& st = g.states[gi * nspecs + s];
      switch (a.fn) {
        case AggFn::kMin:
        case AggFn::kMax:
          switch (st.ext) {
            case AggState::kNone:
              row.push_back(Value::Null());
              break;
            case AggState::kInt:
              row.push_back(Value::Int64(st.ext_i));
              break;
            case AggState::kDbl:
              row.push_back(Value::Double(st.ext_d));
              break;
            case AggState::kStr:
              row.push_back(Value::String(
                  g.dicts[a.col].strings()[static_cast<size_t>(st.ext_code)]));
              break;
          }
          break;
        case AggFn::kSum: {
          int64_t sum = 0;
          if (!st.any) {
            row.push_back(Value::Null());
          } else if (!st.all_int) {
            row.push_back(Value::Double(st.sum_d));
          } else if (NarrowSum(st.sum_i, &sum)) {
            row.push_back(Value::Int64(sum));
          } else if (ctx != nullptr) {
            ctx->Fail(SumOutOfRange());
            return out;
          } else {
            row.push_back(Value::Null());
          }
          break;
        }
        case AggFn::kCount:
          row.push_back(Value::Int64(st.cnt));
          break;
        case AggFn::kAvg:
          row.push_back(st.cnt == 0
                            ? Value::Null()
                            : Value::Double(st.sum_d /
                                            static_cast<double>(st.cnt)));
          break;
      }
    }
    out.push_back(std::move(row));
  }
  return out;
}

std::vector<Row> VectorizedAggregation::Run(const ColumnarTable& table,
                                            const SelVector* sel,
                                            ExecContext* ctx) const {
  Groups groups;
  Accumulate(table, sel, ctx, &groups);
  return Finish(&groups, ctx);
}

std::vector<Row> VectorizedGroupAggregateRows(const std::vector<Row>& rows,
                                              const std::vector<int>& group_cols,
                                              const std::vector<AggSpec>& aggs,
                                              ExecContext* ctx,
                                              bool* used_vectorized) {
  *used_vectorized = false;
  // Below ~two batches the row engine wins: conversion is O(rows) and the
  // compiled dispatch never amortizes.
  if (rows.size() < 2 * kBatchRows) {
    return GroupAggregate(rows, group_cols, aggs, ctx);
  }
  ColumnarTable table =
      ColumnarTable::FromRows(rows, static_cast<int>(rows[0].size()));
  VectorizedAggregation agg;
  if (!VectorizedAggregation::Compile(table, group_cols, aggs, &agg)) {
    return GroupAggregate(rows, group_cols, aggs, ctx);
  }
  *used_vectorized = true;
  return agg.Run(table, nullptr, ctx);
}

}  // namespace aqv
