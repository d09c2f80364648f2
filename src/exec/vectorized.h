#ifndef AQV_EXEC_VECTORIZED_H_
#define AQV_EXEC_VECTORIZED_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "base/exec_context.h"
#include "base/value.h"
#include "exec/column_batch.h"
#include "exec/expression.h"
#include "exec/operators.h"
#include "exec/table.h"
#include "ir/query.h"

namespace aqv {

/// Batch-at-a-time operators over ColumnarTable images — a table is read
/// chunk by chunk, each chunk through its own cached image (exec/table.h).
/// Each operator is compiled once per query against concrete columnar
/// layouts (so all type dispatch happens per column, not per value), then
/// runs tight typed loops in kBatchRows batches, charging the ExecContext
/// per batch — governance (deadline / row budget / cancel) therefore fires
/// *inside* a long scan.
///
/// Compilation fails (returns false) whenever the row engine's semantics
/// cannot be reproduced exactly — a kMixed column, too many grouping
/// columns, SUM/AVG over a string column. Callers then fall back to the
/// row-at-a-time operators in exec/operators.h; results are bit-identical
/// either way (the invariant enforced by tests/vectorized_differential_test).

/// A conjunction of scalar predicates compiled against one columnar layout.
/// Mirrors FilterRows/EvalScalarPredicate exactly: NULL operands evaluate
/// to false, INT64 compares with INT64 exactly and as doubles with DOUBLE,
/// cross-family comparisons are false except `<>`, unresolvable columns
/// yield NULL. Every kernel selects without a data-dependent branch: it
/// writes each candidate row id and advances the count by the verdict.
class CompiledFilter {
 public:
  /// Compiles `preds` (each must be scalar) against `layout`/`table`.
  /// Returns false — leaving `*out` unusable — if any referenced column is
  /// kMixed or a predicate is not scalar.
  static bool Compile(const std::vector<Predicate>& preds,
                      const ColumnIndexMap& layout, const ColumnarTable& table,
                      CompiledFilter* out);

  /// Selection of rows satisfying the conjunction, ascending. Charges one
  /// row per input row in kBatchRows chunks; on a tripped context the
  /// partial selection is returned for the caller to discard.
  SelVector Run(const ColumnarTable& table, ExecContext* ctx) const;

  /// One compiled conjunct. Internal, exposed for the batch-layer tests.
  struct Pred {
    enum class Kind : uint8_t {
      kAlwaysTrue,   // constant-constant, true
      kAlwaysFalse,  // constant-constant false, NULL operand, cross != kNe
      kNumConst,     // numeric column `op` numeric constant
      kStrConst,     // string column vs string constant: per-code mask
      kNumNum,       // numeric column `op` numeric column
      kStrStr,       // string column `op` string column
      kNotNullNe,    // cross-family `<>`: true iff operand column(s) non-NULL
    };
    Kind kind = Kind::kAlwaysFalse;
    CmpOp op = CmpOp::kEq;
    int lhs_col = -1;
    int rhs_col = -1;
    double cval = 0.0;       // kNumConst, as a double
    bool int_const = false;  // kNumConst: the constant is INT64 ...
    int64_t ival = 0;        // ... with this exact value
    /// kStrConst: pass/fail per dictionary code + 1 (entry 0: NULL, fails).
    std::vector<uint8_t> dict_pass;
  };

 private:
  std::vector<Pred> preds_;
};

/// One entry per chunk of a table, in chunk order: the chunk's compiled
/// filter, or none when its zone maps rule out every row.
using ChunkFilters = std::vector<std::optional<CompiledFilter>>;

/// Compiles `preds` against the columns of every chunk of `table` that
/// ChunkMayMatch keeps; a chunk it rules out gets no filter. False if some
/// kept chunk refuses (a kMixed column); the scan then runs on the row
/// engine.
bool CompileChunkFilters(const std::vector<Predicate>& preds,
                         const ColumnIndexMap& layout, const Table& table,
                         ChunkFilters* out);

/// False only if no row of `chunk` can satisfy the conjunction `preds`
/// (resolved against `layout`, like FilterRows), judged from the chunk's
/// zone maps; true whenever in doubt. Non-scalar conjuncts are ignored.
bool ChunkMayMatch(const std::vector<Predicate>& preds, const Chunk& chunk,
                   const ColumnIndexMap& layout, int num_columns);

/// The rows of `table` satisfying the scalar conjunction `preds` (resolved
/// against `layout`, like FilterRows), as (chunk ordinal, ascending row
/// ordinals) pairs in row order; chunks with no match are left out. A chunk
/// whose zone maps rule out every row is skipped unscanned; a chunk where a
/// referenced column is kMixed runs on the row engine, every other chunk
/// through a CompiledFilter. `chunks_scanned` (optional) receives the
/// number of chunks scanned. The write path's WHERE.
std::vector<std::pair<size_t, SelVector>> SelectRows(
    const Table& table, const std::vector<Predicate>& preds,
    const ColumnIndexMap& layout, size_t* chunks_scanned = nullptr);

/// Hash-group aggregation over columnar images: group keys are packed into
/// fixed-width canonical (tag, bits) words (integral doubles collapse to
/// INT64, exactly like the row engine's CanonicalKey), and each aggregate
/// runs a typed accumulation loop chosen per image from the column's
/// storage class. One aggregation may fold several images — the chunks of
/// a table, in row order — into one set of groups: string keys and string
/// MIN/MAX go through a per-image remap of dictionary codes onto one
/// dictionary per column. Each (group, aggregate) is one AggState
/// (exec/agg_state.h), the state the row engine's Aggregator wraps, fed
/// through the same inline operations and finished by the same Finish: the
/// double sum is accumulated in input-row order and INT64 sums exactly in
/// 128 bits, so results are bit-identical to the row engine, not merely
/// close. A string MIN/MAX stays a dictionary code until Finish.
///
/// Group ids of an image whose grouping columns are all INT64 or
/// dictionary-coded, with a range product (one extra slot per column for
/// NULL) of at most kDenseGroupSlots and at most four slots per row folded,
/// come from a direct-indexed slot array built from the image's exact
/// column bounds; the canonical-key map is consulted once per slot first
/// seen in the image. Every other image probes the map per row.
class VectorizedAggregation {
 public:
  /// Compiles grouping by `group_cols` with aggregates `aggs` against one
  /// image. Returns false if any referenced column is kMixed, there are
  /// more than kMaxGroupCols grouping columns, or a SUM/AVG argument is a
  /// string column (the row engine's error behaviour is preserved by
  /// falling back).
  static bool Compile(const ColumnarTable& table,
                      const std::vector<int>& group_cols,
                      const std::vector<AggSpec>& aggs,
                      VectorizedAggregation* out);

  /// The same against every image to be folded, such as the chunks of a
  /// table; also false if a MIN/MAX argument holds strings in one image and
  /// numbers in another.
  static bool Compile(const std::vector<const ColumnarTable*>& images,
                      const std::vector<int>& group_cols,
                      const std::vector<AggSpec>& aggs,
                      VectorizedAggregation* out);

  /// The groups one aggregation has folded so far.
  class Groups {
   public:
    Groups();
    ~Groups();
    Groups(Groups&&) noexcept;
    Groups& operator=(Groups&&) noexcept;

   private:
    friend class VectorizedAggregation;
    struct Impl;
    std::unique_ptr<Impl> impl_;
  };

  /// Folds the selected rows of `image` (all rows when `sel` is null) into
  /// `groups`. Charges one row per input row in kBatchRows chunks. `image`
  /// must outlive Finish: string extrema may still point into its
  /// dictionary. A scaled INT64 argument whose product leaves the INT64
  /// range fails `ctx` with ProductOutOfRange() (with no context, it counts
  /// as NULL).
  void Accumulate(const ColumnarTable& image, const SelVector* sel,
                  ExecContext* ctx, Groups* groups) const;

  /// Output rows [group values..., aggregate values...] like
  /// GroupAggregate; group values are the first-encountered originals and
  /// a global aggregate over empty input still emits one row. An INT64 SUM
  /// that leaves its range fails `ctx` with SumOutOfRange() (with no
  /// context, that sum finishes to NULL).
  std::vector<Row> Finish(Groups* groups, ExecContext* ctx) const;

  /// Accumulate + Finish over one image.
  std::vector<Row> Run(const ColumnarTable& table, const SelVector* sel,
                       ExecContext* ctx) const;

  static constexpr size_t kMaxGroupCols = 4;
  static constexpr size_t kDenseGroupSlots = size_t{1} << 16;

  /// The dense slots `image` would group through when all its rows are
  /// folded; 0 when it takes the hash path.
  size_t DenseSlotCount(const ColumnarTable& image) const;

 private:
  struct Agg {
    AggFn fn;
    int col = -1;
    int mult = -1;  // >= 0: scaled argument (Section 4 multiplicity)
  };

  std::vector<int> group_cols_;
  std::vector<Agg> aggs_;
};

/// Appends the selected rows of `table` (all columns, schema order) to
/// `*out`. Charges nothing: the filter that produced `sel` already charged
/// the scan, matching the row engine's accounting.
void GatherRows(const ColumnarTable& table, const SelVector& sel,
                std::vector<Row>* out);

/// Drop-in replacement for GroupAggregate over materialized rows (the
/// post-join aggregation path): converts to a transient columnar image and
/// runs the vectorized aggregation when the input is large enough to
/// amortize conversion and every referenced column is vectorizable;
/// otherwise falls back to the row engine. `*used_vectorized` reports which
/// engine ran (for EXPLAIN ANALYZE labels and stats).
std::vector<Row> VectorizedGroupAggregateRows(const std::vector<Row>& rows,
                                              const std::vector<int>& group_cols,
                                              const std::vector<AggSpec>& aggs,
                                              ExecContext* ctx,
                                              bool* used_vectorized);

}  // namespace aqv

#endif  // AQV_EXEC_VECTORIZED_H_
