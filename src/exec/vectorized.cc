#include "exec/vectorized.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <optional>
#include <string>
#include <unordered_map>

#include "exec/agg_state.h"

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

/// Numeric column value as double — how EvalCmp compares a pair with a
/// DOUBLE in it, so INT64/DOUBLE cross comparisons match the row engine
/// bit-for-bit.
inline double NumAt(const Column& c, size_t r) {
  return c.type == ColumnType::kInt64 ? static_cast<double>(c.i64[r])
                                      : c.f64[r];
}

inline int Sign(int c) { return c < 0 ? -1 : (c > 0 ? 1 : 0); }

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

/// The comparisons of EvalCmp written with `<` only, so a NaN operand
/// (neither less nor greater) ties like its three-way compare does; on
/// INT64 they are the plain exact comparisons.
struct CmpEq {
  template <typename T>
  bool operator()(T a, T b) const { return !(a < b) & !(b < a); }
};
struct CmpNe {
  template <typename T>
  bool operator()(T a, T b) const { return (a < b) | (b < a); }
};
struct CmpLt {
  template <typename T>
  bool operator()(T a, T b) const { return a < b; }
};
struct CmpLe {
  template <typename T>
  bool operator()(T a, T b) const { return !(b < a); }
};
struct CmpGt {
  template <typename T>
  bool operator()(T a, T b) const { return b < a; }
};
struct CmpGe {
  template <typename T>
  bool operator()(T a, T b) const { return !(a < b); }
};

/// Calls `f` with the comparator of `op`, so loops are instantiated per
/// operator instead of switching per row.
template <typename F>
size_t WithCmp(CmpOp op, F&& f) {
  switch (op) {
    case CmpOp::kEq:
      return f(CmpEq{});
    case CmpOp::kNe:
      return f(CmpNe{});
    case CmpOp::kLt:
      return f(CmpLt{});
    case CmpOp::kLe:
      return f(CmpLe{});
    case CmpOp::kGt:
      return f(CmpGt{});
    case CmpOp::kGe:
      return f(CmpGe{});
  }
  return 0;
}

/// The row ids a kernel reads: a batch's range, or the selection an earlier
/// conjunct left.
struct RangeIds {
  size_t base;
  uint32_t operator[](size_t k) const {
    return static_cast<uint32_t>(base + k);
  }
};
struct ListIds {
  const uint32_t* ids;
  uint32_t operator[](size_t k) const { return ids[k]; }
};

/// Branch-free selection: every candidate id is written to `out` and the
/// count advances by the verdict. `out` may be the ListIds being read: the
/// write position never passes the read position.
template <typename Ids, typename Pass>
size_t SelectIf(Ids ids, size_t n, Pass pass, uint32_t* out) {
  size_t w = 0;
  for (size_t k = 0; k < n; ++k) {
    const uint32_t r = ids[k];
    out[w] = r;
    w += static_cast<size_t>(pass(r));
  }
  return w;
}

/// SelectIf over rows of `c` that are not NULL; the validity bit joins the
/// verdict arithmetically (payload slots at NULLs hold 0, so `pass` may
/// read them).
template <typename Ids, typename Pass>
size_t SelectValid(const Column& c, Ids ids, size_t n, Pass pass,
                   uint32_t* out) {
  if (!c.has_nulls) return SelectIf(ids, n, pass, out);
  const uint64_t* nulls = c.null_words.data();
  return SelectIf(
      ids, n,
      [=](uint32_t r) {
        return (((nulls[r >> 6] >> (r & 63)) & 1) == 0) & pass(r);
      },
      out);
}

using Pred = CompiledFilter::Pred;

/// Writes the ids among `ids[0..n)` that pass `p` to `out`; returns how
/// many. One typed loop per predicate kind, column type and operator.
template <typename Ids>
size_t ApplyPred(const Pred& p, const ColumnarTable& t, Ids ids, size_t n,
                 uint32_t* out) {
  switch (p.kind) {
    case Pred::Kind::kAlwaysTrue:
      return SelectIf(ids, n, [](uint32_t) { return true; }, out);
    case Pred::Kind::kAlwaysFalse:
      return 0;
    case Pred::Kind::kNumConst: {
      const Column& c = t.col(p.lhs_col);
      return WithCmp(p.op, [&](auto cmp) {
        if (c.type == ColumnType::kInt64 && p.int_const) {
          const int64_t* v = c.i64.data();
          const int64_t k = p.ival;
          return SelectValid(
              c, ids, n, [=](uint32_t r) { return cmp(v[r], k); }, out);
        }
        const double k = p.cval;
        if (c.type == ColumnType::kInt64) {
          const int64_t* v = c.i64.data();
          return SelectValid(
              c, ids, n,
              [=](uint32_t r) { return cmp(static_cast<double>(v[r]), k); },
              out);
        }
        const double* v = c.f64.data();
        return SelectValid(
            c, ids, n, [=](uint32_t r) { return cmp(v[r], k); }, out);
      });
    }
    case Pred::Kind::kStrConst: {
      // Entry 0 is the verdict for NULL's code (-1): false, no bitmap probe.
      const int32_t* codes = t.col(p.lhs_col).codes.data();
      const uint8_t* pass = p.dict_pass.data();
      return SelectIf(
          ids, n, [=](uint32_t r) { return pass[codes[r] + 1] != 0; }, out);
    }
    case Pred::Kind::kNumNum: {
      const Column& lc = t.col(p.lhs_col);
      const Column& rc = t.col(p.rhs_col);
      auto valid = [&](uint32_t r) { return !lc.IsNull(r) & !rc.IsNull(r); };
      return WithCmp(p.op, [&](auto cmp) {
        if (lc.type == ColumnType::kInt64 && rc.type == ColumnType::kInt64) {
          const int64_t* a = lc.i64.data();
          const int64_t* b = rc.i64.data();
          return SelectIf(
              ids, n, [&](uint32_t r) { return valid(r) & cmp(a[r], b[r]); },
              out);
        }
        return SelectIf(
            ids, n,
            [&](uint32_t r) {
              return valid(r) & cmp(NumAt(lc, r), NumAt(rc, r));
            },
            out);
      });
    }
    case Pred::Kind::kStrStr: {
      const Column& lc = t.col(p.lhs_col);
      const Column& rc = t.col(p.rhs_col);
      return SelectIf(
          ids, n,
          [&](uint32_t r) {
            return !lc.IsNull(r) && !rc.IsNull(r) &&
                   CmpPass(p.op, Sign(lc.dict[static_cast<size_t>(lc.codes[r])]
                                          .compare(rc.dict[static_cast<size_t>(
                                              rc.codes[r])])));
          },
          out);
    }
    case Pred::Kind::kNotNullNe: {
      const Column& lc = t.col(p.lhs_col);
      const Column* rc = p.rhs_col >= 0 ? &t.col(p.rhs_col) : nullptr;
      return SelectIf(
          ids, n,
          [&](uint32_t r) {
            return !lc.IsNull(r) & (rc == nullptr || !rc->IsNull(r));
          },
          out);
    }
  }
  return 0;
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
          c.dict_pass.assign(cc.dict.size() + 1, 0);
          for (size_t i = 0; i < cc.dict.size(); ++i) {
            c.dict_pass[i + 1] =
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
          c.int_const = cv.type() == ValueType::kInt64;
          if (c.int_const) c.ival = cv.int64();
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
  SelVector sel(n);
  if (preds_.empty()) {
    // Identity selection; FilterRows charges nothing for an empty
    // conjunction, so neither do we.
    for (size_t r = 0; r < n; ++r) sel[r] = static_cast<uint32_t>(r);
    return sel;
  }
  size_t count = 0;
  for (size_t base = 0; base < n; base += kBatchRows) {
    const size_t end = std::min(n, base + kBatchRows);
    // Charge the whole batch up front; kBatchRows == kCheckStride, so this
    // also re-checks the deadline/cancel flag once per batch.
    if (ctx != nullptr && !ctx->TickRows(end - base)) break;
    // The first conjunct writes the batch's survivors after the earlier
    // batches'; each later one compacts them in place.
    uint32_t* out = sel.data() + count;
    size_t kept = ApplyPred(preds_[0], table, RangeIds{base}, end - base, out);
    for (size_t p = 1; p < preds_.size() && kept > 0; ++p) {
      kept = ApplyPred(preds_[p], table, ListIds{out}, kept, out);
    }
    count += kept;
  }
  sel.resize(count);
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
                         ChunkFilters* out) {
  out->assign(table.chunks().size(), std::nullopt);
  for (size_t c = 0; c < table.chunks().size(); ++c) {
    const Chunk& chunk = *table.chunks()[c];
    if (!ChunkMayMatch(preds, chunk, layout, table.num_columns())) continue;
    if (!CompiledFilter::Compile(preds, layout, chunk.columnar(),
                                 &(*out)[c].emplace())) {
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
    // The bounds are doubles, but an INT64 constant meets INT64 values
    // exactly: beyond 2^53, v > k can hold while both round to one double,
    // so a strict test against such a constant is made non-strict.
    constexpr int64_t kExact = int64_t{1} << 53;
    const bool strict = c.type() == ValueType::kDouble ||
                        (c.int64() > -kExact && c.int64() < kExact);
    switch (op) {
      case CmpOp::kEq:
        return z.num_min <= d && d <= z.num_max;
      case CmpOp::kLt:
        return strict ? z.num_min < d : z.num_min <= d;
      case CmpOp::kLe:
        return z.num_min <= d;
      case CmpOp::kGt:
        return strict ? z.num_max > d : z.num_max >= d;
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

bool ChunkMayMatch(const std::vector<Predicate>& preds, const Chunk& chunk,
                   const ColumnIndexMap& layout, int num_columns) {
  for (const Predicate& p : preds) {
    if (p.IsScalar() && !ZoneMayPass(p, chunk, layout, num_columns)) {
      return false;
    }
  }
  return true;
}

std::vector<std::pair<size_t, SelVector>> SelectRows(
    const Table& table, const std::vector<Predicate>& preds,
    const ColumnIndexMap& layout, size_t* chunks_scanned) {
  std::vector<std::pair<size_t, SelVector>> out;
  size_t scanned = 0;
  for (size_t c = 0; c < table.chunks().size(); ++c) {
    const Chunk& chunk = *table.chunks()[c];
    if (!ChunkMayMatch(preds, chunk, layout, table.num_columns())) continue;
    ++scanned;
    SelVector sel;
    CompiledFilter filter;
    if (CompiledFilter::Compile(preds, layout, chunk.columnar(), &filter)) {
      sel = filter.Run(chunk.columnar(), nullptr);
    } else {
      const ColumnarTable& cols = chunk.columnar();
      Row row;
      for (size_t r = 0; r < cols.num_rows(); ++r) {
        row.clear();
        cols.AppendRowTo(r, &row);
        bool keep = true;
        for (const Predicate& p : preds) {
          if (!EvalScalarPredicate(p, row, layout)) {
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

/// Calls `f` with the row-id source of one batch: its selection slice, or
/// the dense range from `base`.
template <typename F>
void WithIds(const uint32_t* selp, size_t base, F&& f) {
  if (selp != nullptr) {
    f(ListIds{selp});
  } else {
    f(RangeIds{base});
  }
}

/// Folds row `ids[k]` into `states[gids[k] * stride]` for every k whose
/// operands are valid, through `fold(state, row)`.
template <typename Ids, typename Valid, typename Fold>
void FoldBatch(Ids ids, size_t n, Valid valid, const uint32_t* gids,
               AggState* states, size_t stride, Fold fold) {
  for (size_t k = 0; k < n; ++k) {
    const uint32_t r = ids[k];
    if (valid(r)) fold(states[gids[k] * stride], r);
  }
}

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

/// Direct-indexed group ids for one image (see PlanDenseSlots): a row's
/// slot combines one coordinate per grouping column, 0 for NULL and
/// 1 + (value - lo) for an INT64 value or 1 + code for a dictionary code.
struct DenseSlots {
  size_t slots = 0;  // 0: this image groups through the canonical-key map
  std::array<uint64_t, VectorizedAggregation::kMaxGroupCols> lo{};
  std::array<uint32_t, VectorizedAggregation::kMaxGroupCols> stride{};
};

/// The dense layout of `image`'s grouping columns for folding `rows` of
/// its rows, when every one is INT64 or dictionary-coded and the product of
/// their ranges (one extra slot for NULL each) fits kDenseGroupSlots and at
/// most kDenseSlotsPerRow slots per folded row: clearing the slot array
/// must not cost more than the hash probes it saves. Decided from the
/// types, the bounds recorded at pivot time and the row count alone.
DenseSlots PlanDenseSlots(const ColumnarTable& image,
                          const std::vector<int>& group_cols, size_t rows) {
  constexpr uint64_t kDenseSlotsPerRow = 4;
  const uint64_t budget =
      std::min<uint64_t>(VectorizedAggregation::kDenseGroupSlots,
                         kDenseSlotsPerRow * static_cast<uint64_t>(rows));
  DenseSlots d;
  if (group_cols.empty()) return d;
  uint64_t slots = 1;
  for (size_t i = 0; i < group_cols.size(); ++i) {
    const Column& c = image.col(group_cols[i]);
    uint64_t range = 1;  // NULL's coordinate
    if (c.type == ColumnType::kString) {
      range += c.dict.size();
    } else if (c.type != ColumnType::kInt64) {
      return {};
    } else if (c.i64_min <= c.i64_max) {
      const uint64_t span = static_cast<uint64_t>(c.i64_max) -
                            static_cast<uint64_t>(c.i64_min);
      if (span >= budget) return {};
      range += span + 1;
      d.lo[i] = static_cast<uint64_t>(c.i64_min);
    }
    d.stride[i] = static_cast<uint32_t>(slots);
    slots *= range;
    if (slots > budget) return {};
  }
  d.slots = static_cast<size_t>(slots);
  return d;
}

}  // namespace

struct VectorizedAggregation::Groups::Impl {
  std::unordered_map<GroupKey, uint32_t, GroupKeyHash> index;
  std::vector<Row> keys;         // first-encountered group values
  std::vector<AggState> states;  // group-major, one per aggregate
  std::unordered_map<int, GlobalDict> dicts;  // by column ordinal
  std::vector<uint32_t> slot_gid;  // one image's dense slots -> group id
  Impl(size_t ng, size_t nspecs) : index(16, GroupKeyHash{2 * ng}) {
    // Global aggregate: exactly one group, present even on empty input.
    if (ng == 0) {
      keys.emplace_back();
      states.resize(nspecs);
    }
  }
};

VectorizedAggregation::Groups::Groups() = default;
VectorizedAggregation::Groups::~Groups() = default;
VectorizedAggregation::Groups::Groups(Groups&&) noexcept = default;
VectorizedAggregation::Groups& VectorizedAggregation::Groups::operator=(
    Groups&&) noexcept = default;

bool VectorizedAggregation::Compile(
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
    } else if (a.fn == AggFn::kSum || a.fn == AggFn::kAvg) {
      // SUM/AVG over a string column would hit AsDouble on a string in the
      // row engine; keep that path byte-identical by not vectorizing it.
      // (MIN/MAX across families needs no such care: AggState keeps the
      // first family it sees, as the row engine does.)
      for (const ColumnarTable* t : images) {
        if (t->col(a.column).type == ColumnType::kString) return false;
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
  return Compile(std::vector<const ColumnarTable*>{&table}, group_cols, aggs,
                 out);
}

size_t VectorizedAggregation::DenseSlotCount(const ColumnarTable& image) const {
  return PlanDenseSlots(image, group_cols_, image.num_rows()).slots;
}

void VectorizedAggregation::Accumulate(const ColumnarTable& table,
                                       const SelVector* sel, ExecContext* ctx,
                                       Groups* groups) const {
  const size_t total = sel != nullptr ? sel->size() : table.num_rows();
  const size_t nspecs = aggs_.size();
  const size_t ng = group_cols_.size();
  if (groups->impl_ == nullptr) {
    groups->impl_ = std::make_unique<Groups::Impl>(ng, nspecs);
  }
  Groups::Impl& g = *groups->impl_;

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

  // The group id of row `r` through the canonical-key map, creating the
  // group on first sight. Every probe rewrites the same 2 * ng words of
  // `key`; the rest stay zero.
  GroupKey key{};
  auto probe = [&](size_t r) {
    for (size_t i = 0; i < ng; ++i) {
      EncodeKeyCol(table.col(group_cols_[i]), r, key_remap[i], &key[2 * i],
                   &key[2 * i + 1]);
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
    return it->second;
  };
  // Out of line for the dense loop, which probes only once per slot.
  auto first_seen = [&](size_t r) __attribute__((noinline)) {
    return probe(r);
  };
  // Dense slots, valid for this image only: the map still decides each
  // slot's group, once, so images of different layouts (or an integral
  // DOUBLE chunk) meet in the same groups.
  constexpr uint32_t kNoGroup = ~uint32_t{0};
  const DenseSlots dense = PlanDenseSlots(table, group_cols_, total);
  if (dense.slots > 0) g.slot_gid.assign(dense.slots, kNoGroup);

  bool overflow = false;  // a scaled INT64 argument left the INT64 range
  std::vector<uint32_t> gids(kBatchRows);
  for (size_t base = 0; base < total; base += kBatchRows) {
    const size_t bn = std::min(kBatchRows, total - base);
    if (ctx != nullptr && !ctx->TickRows(bn)) break;
    const uint32_t* selp = sel != nullptr ? sel->data() + base : nullptr;

    // Stage 1: group-id per row.
    if (ng == 0) {
      std::fill_n(gids.begin(), bn, 0u);
    } else if (dense.slots > 0) {
      uint32_t* slots = gids.data();  // a row's slot, then its group id
      uint32_t* slot_gid = g.slot_gid.data();
      WithIds(selp, base, [&](auto ids) {
        std::fill_n(slots, bn, 0u);
        for (size_t i = 0; i < ng; ++i) {
          const Column& c = table.col(group_cols_[i]);
          const uint32_t stride = dense.stride[i];
          if (c.type == ColumnType::kString) {
            const int32_t* codes = c.codes.data();  // -1 at NULL: slot 0
            for (size_t k = 0; k < bn; ++k) {
              slots[k] += static_cast<uint32_t>(codes[ids[k]] + 1) * stride;
            }
            continue;
          }
          const int64_t* v = c.i64.data();
          const uint64_t origin = dense.lo[i] - 1;  // coordinate 1 is lo
          auto coord = [=](uint32_t r) {
            return static_cast<uint32_t>(static_cast<uint64_t>(v[r]) -
                                         origin) *
                   stride;
          };
          if (!c.has_nulls) {
            for (size_t k = 0; k < bn; ++k) slots[k] += coord(ids[k]);
          } else {
            const uint64_t* nulls = c.null_words.data();
            for (size_t k = 0; k < bn; ++k) {
              const uint32_t r = ids[k];
              const uint32_t valid = ((nulls[r >> 6] >> (r & 63)) & 1) ^ 1;
              slots[k] += coord(r) * valid;
            }
          }
        }
        for (size_t k = 0; k < bn; ++k) {
          uint32_t gid = slot_gid[slots[k]];
          if (gid == kNoGroup) gid = slot_gid[slots[k]] = first_seen(ids[k]);
          slots[k] = gid;
        }
      });
    } else {
      WithIds(selp, base, [&](auto ids) {
        for (size_t k = 0; k < bn; ++k) gids[k] = probe(ids[k]);
      });
    }

    // Stage 2: per-aggregate typed accumulation over the batch, one loop
    // per row-id source, operand validity and value type.
    for (size_t s = 0; s < nspecs; ++s) {
      const Agg& a = aggs_[s];
      const Stream stream = streams[s];
      if (stream == Stream::kNullStream) continue;
      const Column& c = table.col(a.col);
      const Column* m = a.mult >= 0 ? &table.col(a.mult) : nullptr;
      AggState* states = g.states.data() + s;
      auto run = [&](auto fold) {
        WithIds(selp, base, [&](auto ids) {
          if (c.has_nulls || (m != nullptr && m->has_nulls)) {
            auto valid = [&](uint32_t r) {
              return !c.IsNull(r) && (m == nullptr || !m->IsNull(r));
            };
            FoldBatch(ids, bn, valid, gids.data(), states, nspecs, fold);
          } else {
            FoldBatch(ids, bn, [](uint32_t) { return true; }, gids.data(),
                      states, nspecs, fold);
          }
        });
      };
      // Folds each row's (scaled) argument of an INT64 or DOUBLE stream
      // through add(state, v), typed by the stream; an INT64 product
      // outside INT64 skips its row and flags the batch.
      auto fold = [&](auto add) {
        if (stream == Stream::kDbl) {
          if (m == nullptr) {
            const double* v = c.f64.data();
            run([&](AggState& st, uint32_t r) { add(st, v[r]); });
          } else {
            run([&](AggState& st, uint32_t r) {
              add(st, NumAt(c, r) * NumAt(*m, r));
            });
          }
          return;
        }
        const int64_t* v = c.i64.data();
        if (m == nullptr) {
          run([&](AggState& st, uint32_t r) { add(st, v[r]); });
          return;
        }
        const int64_t* w = m->i64.data();
        run([&](AggState& st, uint32_t r) {
          int64_t product;
          if (__builtin_mul_overflow(v[r], w[r], &product)) {
            overflow = true;
          } else {
            add(st, product);
          }
        });
      };

      switch (a.fn) {
        case AggFn::kSum:
        case AggFn::kAvg:
          fold([](AggState& st, auto v) { st.Add(v); });
          break;
        case AggFn::kCount:
          // COUNT reads no value, except that a scaled INT64 argument still
          // forms its product: one that overflows fails the statement, as
          // in the row engine.
          if (stream == Stream::kInt && m != nullptr) {
            fold([](AggState& st, auto) { st.AddCount(); });
          } else {
            run([](AggState& st, uint32_t) { st.AddCount(); });
          }
          break;
        case AggFn::kMin:
        case AggFn::kMax: {
          const bool is_min = a.fn == AggFn::kMin;
          if (stream != Stream::kStr) {
            fold([is_min](AggState& st, auto v) { st.AddExtreme(is_min, v); });
            break;
          }
          // Unscaled: a string multiplier makes a kNullStream.
          const int32_t* remap = agg_remap[s];
          const std::vector<std::string>& dict = g.dicts[a.col].strings();
          run([&](AggState& st, uint32_t r) {
            int32_t code = c.codes[r];
            if (remap != nullptr) code = remap[code];
            st.AddExtreme(is_min, code, dict);
          });
          break;
        }
      }
    }
    // Like GroupAggregate: the product fails the statement; with no
    // context, the rows whose product overflowed count as NULL.
    if (overflow && ctx != nullptr) {
      ctx->Fail(ProductOutOfRange());
      return;
    }
  }
}

std::vector<Row> VectorizedAggregation::Finish(Groups* groups,
                                               ExecContext* ctx) const {
  const size_t nspecs = aggs_.size();
  if (groups->impl_ == nullptr) {
    groups->impl_ = std::make_unique<Groups::Impl>(group_cols_.size(), nspecs);
  }
  Groups::Impl& g = *groups->impl_;
  // Emit [group values..., aggregate finishes...].
  std::vector<Row> out;
  out.reserve(g.keys.size());
  for (size_t gi = 0; gi < g.keys.size(); ++gi) {
    Row row = std::move(g.keys[gi]);
    row.reserve(row.size() + nspecs);
    for (size_t s = 0; s < nspecs; ++s) {
      const Agg& a = aggs_[s];
      const AggState& st = g.states[gi * nspecs + s];
      std::optional<Value> v = st.Finish(
          a.fn,
          st.ext == AggState::kStr ? &g.dicts[a.col].strings() : nullptr);
      if (!v.has_value()) {
        if (ctx != nullptr) {
          ctx->Fail(SumOutOfRange());
          return out;
        }
        v = Value::Null();
      }
      row.push_back(*std::move(v));
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
