#ifndef AQV_EXEC_TABLE_H_
#define AQV_EXEC_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/result.h"
#include "base/serde.h"
#include "base/value.h"
#include "exec/column_batch.h"

namespace aqv {

/// Rows per chunk of a Table version. A write rewrites only the chunks it
/// touches, so this bounds what one single-row write copies.
inline constexpr size_t kChunkRows = 16384;

/// Per-column facts about one chunk, grouped by the comparison families of
/// the row engine (NULL, numeric, string). Used to skip chunks that cannot
/// hold a row a predicate or a delete is looking for; every answer errs on
/// the side of "may match".
struct ZoneMap {
  size_t null_count = 0;
  bool has_num = false;  // some INT64/DOUBLE value; bounds compare as doubles
  double num_min = 0.0;
  double num_max = 0.0;
  bool has_str = false;
  std::string str_min;
  std::string str_max;

  void Add(const Value& v);

  /// The zone of `col`'s first `rows` values: what Add over them in row
  /// order builds.
  static ZoneMap Of(const Column& col, size_t rows);

  /// False only if no value of the column equals `v` under Value::Compare
  /// (the equality RowEq and a delete use).
  bool MayContain(const Value& v) const;
};

/// Up to kChunkRows rows of one Table version, immutable once shared by
/// two versions. The rows are stored once, as typed columns (see
/// ColumnarTable in exec/column_batch.h); a Row is built only where the
/// row engine asks for one. The zone maps and the exact INT64 bounds of the
/// columns are kept exact by every append and every gather.
class Chunk {
 public:
  /// A chunk of the rows of `columns`; builds their zone maps.
  explicit Chunk(ColumnarTable columns);

  size_t num_rows() const { return columns_.num_rows(); }
  const ZoneMap& zone(int column) const {
    return zones_[static_cast<size_t>(column)];
  }

  /// The chunk's rows, column by column.
  const ColumnarTable& columnar() const { return columns_; }

  /// Row `row`, built from the columns.
  Row RowAt(size_t row) const { return columns_.RowAt(row); }

  /// Approximate heap bytes: the columns and the zone maps.
  size_t ApproxBytes() const;

 private:
  friend class Table;

  /// A private copy (columns and zone maps) with room for `room` more rows,
  /// for the copy-on-write of a shared tail chunk.
  Chunk(const Chunk& other, size_t room);

  /// The rows of `old` whose ordinals are not in `drop` (ascending,
  /// distinct; see ColumnarTable::Without). A DOUBLE column keeps its zone
  /// bounds without a rescan when every dropped value lies strictly inside
  /// them.
  Chunk(const Chunk& old, const std::vector<uint32_t>& drop);

  Chunk(const Chunk&) = delete;
  Chunk& operator=(const Chunk&) = delete;

  /// Appends in place; only the Table that solely owns this chunk calls it.
  void Append(const Row& row);

  ColumnarTable columns_;
  std::vector<ZoneMap> zones_;
  // Serves this chunk's appends; not part of a copy.
  DictIndex dict_index_;
};

/// Shared read-only handle to a chunk. Chunks are allocated non-const, so
/// the one owner of a tail chunk may append to it in place.
using ChunkPtr = std::shared_ptr<const Chunk>;

/// Row -> multiplicity, with SQL-equal values (1 and 1.0) as one key.
using RowCounts = std::unordered_map<Row, int64_t, RowHash, RowEq>;

/// Rows of a Table version by position: (chunk ordinal, ascending row
/// ordinals in that chunk) pairs, in ascending chunk order.
using RowPositions = std::vector<std::pair<size_t, std::vector<uint32_t>>>;

/// An in-memory multiset of rows with named columns. Duplicate rows are
/// first-class: the paper's semantics are over bags, and a Table preserves
/// multiplicities exactly.
///
/// Rows are stored in chunks of at most kChunkRows, in row order. Copying a
/// Table copies chunk pointers, not rows; a write then replaces only the
/// chunks it changes (copy-on-write per chunk), so a new version shares
/// every untouched chunk, with its zone maps, with the version it came
/// from. Appends go to the tail chunk; no chunk is empty.
class Table {
 public:
  /// Range over all rows, chunk by chunk. Each row is built from its
  /// chunk's columns when the iterator is dereferenced, and yielded by
  /// value.
  class RowRange {
   public:
    class iterator {
     public:
      using iterator_category = std::input_iterator_tag;
      using value_type = Row;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = Row;

      iterator() = default;
      iterator(const std::vector<ChunkPtr>* chunks, size_t chunk)
          : chunks_(chunks), chunk_(chunk) {}
      Row operator*() const { return (*chunks_)[chunk_]->RowAt(row_); }
      iterator& operator++() {
        if (++row_ == (*chunks_)[chunk_]->num_rows()) {
          ++chunk_;
          row_ = 0;
        }
        return *this;
      }
      iterator operator++(int) {
        iterator old = *this;
        ++*this;
        return old;
      }
      bool operator==(const iterator& o) const {
        return chunk_ == o.chunk_ && row_ == o.row_;
      }
      bool operator!=(const iterator& o) const { return !(*this == o); }

     private:
      const std::vector<ChunkPtr>* chunks_ = nullptr;
      size_t chunk_ = 0;
      size_t row_ = 0;
    };

    RowRange(const std::vector<ChunkPtr>* chunks, size_t size)
        : chunks_(chunks), size_(size) {}
    iterator begin() const { return iterator(chunks_, 0); }
    iterator end() const { return iterator(chunks_, chunks_->size()); }
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /// The i-th row; walks the chunk list, so O(#chunks).
    Row operator[](size_t i) const;
    /// A copy of every row, in order.
    operator std::vector<Row>() const;

   private:
    const std::vector<ChunkPtr>* chunks_;
    size_t size_;
  };

  Table() = default;
  explicit Table(std::vector<std::string> columns);
  /// A table holding `rows`, each of arity columns.size() (not checked:
  /// for operator output whose shape is known).
  Table(std::vector<std::string> columns, std::vector<Row> rows);

  const std::vector<std::string>& columns() const { return columns_; }
  int num_columns() const { return static_cast<int>(columns_.size()); }
  size_t num_rows() const { return num_rows_; }

  /// Ordinal of `column`, or -1.
  int ColumnIndex(const std::string& column) const;

  /// Appends `row`; its arity must match the schema.
  Status AddRow(const Row& row);

  /// Appends a batch of rows (all-or-nothing on arity mismatch). Only the
  /// tail chunk is rewritten, plus the new chunks the batch fills.
  Status AddRows(const std::vector<Row>& rows);

  /// AddRow that aborts on arity mismatch; for literal test data.
  void AddRowOrDie(const Row& row);

  /// Removes one occurrence of each row of `rows` (a multiset; the first
  /// occurrences in row order), rewriting only the chunks that held one:
  /// LocateRows, then RemoveAt. kInvalidArgument, with the table unchanged,
  /// if some row is not present. `chunks_scanned` (optional) receives the
  /// number of chunks whose rows were examined; zone maps rule out the rest.
  Status RemoveRows(const std::vector<Row>& rows,
                    size_t* chunks_scanned = nullptr);

  /// Finds one occurrence of each row still counted in `*needed`, in row
  /// order, decrementing its count; stops once every count is zero. A
  /// wanted row is matched against the stored columns `on` lists, in that
  /// order. Only chunks whose zone maps may hold a counted row are scanned.
  RowPositions LocateRows(RowCounts* needed, const std::vector<int>& on,
                          size_t* chunks_scanned = nullptr) const;

  /// Removes the rows at `positions`, as LocateRows returns them. Only the
  /// chunks named there are rewritten; a chunk left empty is dropped.
  void RemoveAt(const RowPositions& positions);

  RowRange rows() const { return RowRange(&chunks_, num_rows_); }
  const std::vector<ChunkPtr>& chunks() const { return chunks_; }

  /// Multi-line human-readable rendering (for examples and test failures).
  std::string ToString(size_t max_rows = 20) const;

  /// Approximate heap footprint of this version in bytes: its chunks (see
  /// Chunk::ApproxBytes), shared or not. O(#chunks).
  size_t ApproxBytes() const;

 private:
  /// Appends `rows` (arity already checked) to the tail chunk, starting a
  /// new chunk whenever it is full and copying it first when another
  /// version shares it.
  void AppendRows(const Row* rows, size_t count);

  std::vector<std::string> columns_;
  std::vector<ChunkPtr> chunks_;
  size_t num_rows_ = 0;
};

/// An immutable stored table version. Once a Table is Put into a Database it
/// is never mutated again: a writer builds a new version that shares every
/// chunk it did not change and publishes that, so any holder of a TablePtr
/// — a pinned snapshot, an in-flight evaluator — keeps reading the version
/// it started with.
using TablePtr = std::shared_ptr<const Table>;

/// A database instance: base-table name -> contents. Materialized view
/// contents may also be stored here under the view's name, in which case the
/// evaluator uses the stored contents instead of recomputing the view.
///
/// Storage is a *table-version map*: each name maps to an immutable
/// TablePtr plus the database epoch at which it was last replaced. Every Put
/// bumps the epoch.
///
/// Database is a plain value type with no internal lock. A copy shares all
/// row storage with its source (shared_ptr copies only, O(#tables)), and
/// later Puts on either leave the other untouched. Concurrent readers of one
/// instance are safe; a writer needs its own copy. The query service
/// publishes one immutable Database per state (see QueryService::Publish).
class Database {
 public:
  /// Stores `table` under `name` as a new immutable version, replacing any
  /// previous contents and bumping the epoch.
  void Put(std::string name, Table table);
  void Put(std::string name, TablePtr table);

  /// Stores every (name, table) pair as new immutable versions at ONE
  /// shared epoch: the epoch is bumped once and all entries get that
  /// version, so a reader of the result never sees (say) a base table
  /// advanced but a view maintained from the same write not.
  void PutAll(std::vector<std::pair<std::string, TablePtr>> tables);

  bool Has(const std::string& name) const;
  Result<const Table*> Get(const std::string& name) const;

  /// Shared ownership of the stored version of `name` (nullptr if absent):
  /// the returned table stays alive and unchanged even after this instance
  /// stores a newer version.
  TablePtr GetShared(const std::string& name) const;

  std::vector<std::string> TableNames() const;

  /// Monotonic write counter: bumped by every Put. Two copies of one
  /// instance with equal epochs are identical.
  uint64_t epoch() const { return epoch_; }

  /// Epoch at which `name` was last Put (0 if absent).
  uint64_t VersionOf(const std::string& name) const;

 private:
  friend class VersionLedger;

  struct Versioned {
    TablePtr table;
    uint64_t version = 0;
  };

  std::map<std::string, Versioned> tables_;
  uint64_t epoch_ = 0;
};

/// MVCC accounting for one table: how many versions are still reachable
/// (the current one plus retired versions kept alive by snapshots or
/// in-flight readers), how many bytes those retired versions pin that the
/// current version does not share, and the epoch of the oldest
/// still-pinned retired version (0 when only the current version is
/// alive).
struct TableMvcc {
  std::string table;
  size_t versions_alive = 0;  // current version + live retired versions
  size_t bytes_pinned = 0;    // unshared chunk bytes of retired versions
  uint64_t oldest_pinned_epoch = 0;
};

/// The retired-version ledger: table versions a new state replaced, held
/// weakly, so a version that no reader holds any more drops out of the
/// numbers the moment its last shared_ptr dies. Reclamation is the
/// shared_ptr itself; this is the ledger proving it happened. Not
/// thread-safe: its owner serializes Retire against the readers.
class VersionLedger {
 public:
  /// Records every version `before` stores that `after` no longer does,
  /// and prunes entries whose version has died.
  void Retire(const Database& before, const Database& after);

  /// Per-table accounting for the tables of `current`, name-sorted. A
  /// pinned version costs only its chunks `current` no longer references
  /// (each counted once): the chunks it shares stay alive anyway.
  /// O(#chunks) of the live versions.
  std::vector<TableMvcc> Stats(const Database& current) const;

  /// The smallest epoch any live retired version was published at, across
  /// all tables — everything at or before it is potentially pinned by a
  /// reader. 0 when nothing but current versions is alive.
  uint64_t OldestPinnedEpoch() const;

 private:
  /// A superseded table version and the epoch it was published at.
  struct Retired {
    std::weak_ptr<const Table> table;
    uint64_t version = 0;
  };

  /// Oldest first per table.
  std::map<std::string, std::vector<Retired>> retired_;
};

/// True if `a` and `b` contain the same multiset of rows (column names are
/// ignored; arity must match). This is Definition 2.2's multiset-equivalence
/// check applied to two concrete results.
bool MultisetEqual(const Table& a, const Table& b);

/// Human-readable explanation of the first difference found by
/// MultisetEqual, or "" if equal. Used in test failure messages.
std::string DescribeMultisetDifference(const Table& a, const Table& b);

/// Appends the wire encoding of `value` to `*out`: a type tag byte followed
/// by the payload (varint-zigzag for INT64, IEEE bits for DOUBLE,
/// length-prefixed bytes for STRING, nothing for NULL). The encoding is the
/// unit the storage layer packs into slotted-page records and WAL deltas.
void EncodeValue(const Value& value, std::string* out);

/// Decodes one value previously written by EncodeValue.
Result<Value> DecodeValue(ByteReader* reader);

/// Appends the wire encoding of `row`: varint arity, then each value.
void EncodeRow(const Row& row, std::string* out);

/// EncodeRow of row `row` of `columns`, read straight from the columns.
void EncodeRowAt(const ColumnarTable& columns, size_t row, std::string* out);

/// Decodes one row previously written by EncodeRow.
Result<Row> DecodeRow(ByteReader* reader);

/// MultisetEqual with a relative tolerance on numeric values. Needed when
/// comparing a query against its rewriting over DOUBLE data: re-associating
/// a SUM (e.g. summing monthly subtotals instead of raw values) changes the
/// result in the last bits. Rows are canonically sorted and matched
/// pairwise.
bool MultisetAlmostEqual(const Table& a, const Table& b,
                         double relative_tolerance = 1e-9);

}  // namespace aqv

#endif  // AQV_EXEC_TABLE_H_
