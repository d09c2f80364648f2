// Experiment E20 — what does vectorized columnar execution buy, and is it
// exactly equivalent? (PR 8). A self-timed A/B harness in the E19 mould (no
// google-benchmark: the binary is the CI gate, so it owns its exit code and
// its JSON artifact). Five series, each alternating row-engine and
// vectorized arms over identical data, medians reported:
//
//   1. scan_filter — the E8 Filter shape (50%-selective predicate over an
//      INT64 column): FilterRows materializing survivors vs CompiledFilter
//      producing one selection vector per chunk over the chunks' cached
//      columnar images. Gated by --min-scan-speedup.
//
//   2. aggregate — the E8 HashAggregate shape (SUM + COUNT grouped by a
//      low-cardinality INT64 key): GroupAggregate vs VectorizedAggregation
//      on its dense group-id path (the bench aborts if any chunk would
//      hash instead). Gated by --min-agg-speedup.
//
//   3. aggregate_hash — the same aggregates grouped by a key spanning twice
//      VectorizedAggregation::kDenseGroupSlots values, over the dense budget
//      in every chunk, so the vectorized arm probes its canonical-key map
//      per row: the contrast to 2.
//
//   4. query_e2e — a full single-table filtered GROUP BY through the
//      Evaluator with EvalOptions::vectorized off vs on: the user-visible
//      payoff including plan glue and output materialization.
//
//   5. zone_skip — a filtered global aggregate over a second table whose
//      key is clustered by insertion order, selecting its last 1/64: the
//      row engine scans every chunk, the vectorized Scan + Aggregate reads
//      only the chunks the zone maps admit.
//
// Every iteration of every series is also an equivalence check: the two
// arms' results are compared as multisets (exactly — the vectorized
// aggregates accumulate in row order, so even SUM over DOUBLE must agree
// bit-for-bit), and any divergence aborts the bench. The row-vs-batch
// differential oracle in tests/ is the randomized version of this check.
//
// Flags:
//   --rows=N               rows in the scanned table (default 1000000)
//   --groups=N             grouping-key cardinality (default 64)
//   --reps=N               A/B repetitions after warmup (default 5)
//   --seed=N               data seed (default 42)
//   --json=PATH            JSON artifact (default e20_vectorized.json)
//   --min-scan-speedup=X   exit 1 if scan_filter speedup < X
//                          (default: report only, never fail)
//   --min-agg-speedup=X    exit 1 if aggregate speedup < X (default: off)
//
// e.g. build/bench/bench_e20_vectorized --min-scan-speedup=3
//          --json=bench/e20_vectorized.json

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "exec/column_batch.h"
#include "exec/evaluator.h"
#include "exec/expression.h"
#include "exec/operators.h"
#include "exec/table.h"
#include "exec/vectorized.h"
#include "ir/builder.h"

namespace aqv {
namespace {

using Clock = std::chrono::steady_clock;

std::string JsonList(const std::vector<double>& v) {
  std::string out = "[";
  char buf[32];
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    std::snprintf(buf, sizeof(buf), "%.0f", v[i]);
    out += buf;
  }
  return out + "]";
}

void DieIfNotEqual(const Table& vec, const Table& row, const char* series) {
  if (!MultisetEqual(vec, row)) {
    std::fprintf(stderr,
                 "EQUIVALENCE VIOLATION in %s:\n%s\n(run the differential "
                 "oracle: ctest -R vectorized_differential)\n",
                 series, DescribeMultisetDifference(vec, row).c_str());
    std::abort();
  }
}

Table ToTable(const std::vector<Row>& rows, int arity) {
  std::vector<std::string> cols;
  for (int i = 0; i < arity; ++i) cols.push_back("c" + std::to_string(i));
  Table t(std::move(cols));
  for (const Row& r : rows) t.AddRowOrDie(r);
  return t;
}

/// The columnar images of every chunk of `t`, in chunk order.
std::vector<const ColumnarTable*> Images(const Table& t) {
  std::vector<const ColumnarTable*> images;
  for (const ChunkPtr& chunk : t.chunks()) images.push_back(&chunk->columnar());
  return images;
}

/// One A/B series: alternating row/vec repetitions (reps pairs after one
/// discarded warmup pair), medians and the speedup row/vec.
struct Series {
  std::vector<double> row_micros;
  std::vector<double> vec_micros;
  double row_median = 0.0;
  double vec_median = 0.0;
  double speedup = 0.0;

  template <typename RowFn, typename VecFn>
  void Run(int reps, RowFn row_arm, VecFn vec_arm) {
    for (int r = 0; r < reps + 1; ++r) {
      Clock::time_point t0 = Clock::now();
      row_arm();
      double rm = MicrosSince(t0);
      t0 = Clock::now();
      vec_arm();
      double vm = MicrosSince(t0);
      if (r == 0) continue;  // warmup pair
      row_micros.push_back(rm);
      vec_micros.push_back(vm);
    }
    row_median = Median(row_micros);
    vec_median = Median(vec_micros);
    speedup = vec_median > 0 ? row_median / vec_median : 0.0;
  }
};

}  // namespace
}  // namespace aqv

int main(int argc, char** argv) {
  using aqv::Clock;
  int rows = 1000000;
  int groups = 64;
  int reps = 5;
  uint64_t seed = 42;
  std::string json_path = "e20_vectorized.json";
  double min_scan_speedup = -1.0;  // report only
  double min_agg_speedup = -1.0;

  for (int i = 1; i < argc; ++i) {
    if (const char* v = aqv::FlagValue(argv[i], "--rows")) {
      rows = std::atoi(v);
    } else if (const char* v = aqv::FlagValue(argv[i], "--groups")) {
      groups = std::atoi(v);
    } else if (const char* v = aqv::FlagValue(argv[i], "--reps")) {
      reps = std::atoi(v);
    } else if (const char* v = aqv::FlagValue(argv[i], "--seed")) {
      seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = aqv::FlagValue(argv[i], "--json")) {
      json_path = v;
    } else if (const char* v = aqv::FlagValue(argv[i], "--min-scan-speedup")) {
      min_scan_speedup = std::atof(v);
    } else if (const char* v = aqv::FlagValue(argv[i], "--min-agg-speedup")) {
      min_agg_speedup = std::atof(v);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (rows < 1 || groups < 1 || reps < 1) {
    std::fprintf(stderr, "need --rows>=1, --groups>=1, --reps>=1\n");
    return 2;
  }

  // The table: A = grouping key, B = INT64 payload, C = DOUBLE payload.
  // Stored once; the vectorized arms read the chunks' cached columnar
  // images exactly as the evaluator would.
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int64_t> key(0, groups - 1);
  std::uniform_int_distribution<int64_t> payload(0, 1 << 20);
  aqv::Table table({"A", "B", "C"});
  {
    std::vector<aqv::Row> data;
    data.reserve(static_cast<size_t>(rows));
    for (int i = 0; i < rows; ++i) {
      data.push_back(aqv::Row{
          aqv::Value::Int64(key(rng)), aqv::Value::Int64(payload(rng)),
          aqv::Value::Double(static_cast<double>(payload(rng)) / 1024.0)});
    }
    aqv::CheckOrDie(table.AddRows(std::move(data)), "populate table");
  }
  const std::vector<aqv::Row> data = table.rows();

  const aqv::ColumnIndexMap layout{{"A", 0}, {"B", 1}, {"C", 2}};
  // ~50% selectivity on the grouping key.
  const std::vector<aqv::Predicate> preds{
      {aqv::Operand::Column("A"), aqv::CmpOp::kLt,
       aqv::Operand::Constant(aqv::Value::Int64(groups / 2))}};
  aqv::ChunkFilters filters;
  if (!aqv::CompileChunkFilters(preds, layout, table, &filters)) {
    std::fprintf(stderr, "filter unexpectedly not vectorizable\n");
    return 2;
  }
  const std::vector<int> group_cols{0};
  const std::vector<aqv::AggSpec> aggs{{aqv::AggFn::kSum, 1, -1},
                                       {aqv::AggFn::kCount, 1, -1},
                                       {aqv::AggFn::kSum, 2, -1}};
  aqv::VectorizedAggregation agg;
  if (!aqv::VectorizedAggregation::Compile(aqv::Images(table), group_cols, aggs,
                                           &agg)) {
    std::fprintf(stderr, "aggregation unexpectedly not vectorizable\n");
    return 2;
  }
  const std::vector<aqv::ChunkPtr>& chunks = table.chunks();
  // The gated series must really take the dense path.
  size_t dense_slots = 0;
  for (const aqv::ChunkPtr& chunk : chunks) {
    size_t slots = agg.DenseSlotCount(chunk->columnar());
    if (slots == 0) {
      std::fprintf(stderr, "aggregate fell back to the hash path\n");
      return 2;
    }
    dense_slots = std::max(dense_slots, slots);
  }

  // 1. scan_filter: materialized survivors vs one selection vector per
  // chunk, each over that chunk's cached columnar image.
  aqv::Series scan;
  {
    std::vector<aqv::Row> row_out;
    std::vector<aqv::SelVector> vec_out(chunks.size());
    scan.Run(
        reps,
        [&] { row_out = aqv::FilterRows(data, preds, layout); },
        [&] {
          for (size_t c = 0; c < chunks.size(); ++c) {
            vec_out[c] = filters[c] ? filters[c]->Run(chunks[c]->columnar(),
                                                      nullptr)
                                    : aqv::SelVector();
          }
        });
    std::vector<aqv::Row> gathered;
    for (size_t c = 0; c < chunks.size(); ++c) {
      aqv::GatherRows(chunks[c]->columnar(), vec_out[c], &gathered);
    }
    if (row_out.size() != gathered.size()) {
      std::fprintf(stderr,
                   "EQUIVALENCE VIOLATION in scan_filter: row engine kept "
                   "%zu rows, vectorized kept %zu\n",
                   row_out.size(), gathered.size());
      return 1;
    }
    aqv::DieIfNotEqual(aqv::ToTable(gathered, 3), aqv::ToTable(row_out, 3),
                       "scan_filter");
  }

  // 2. aggregate: row-at-a-time grouping vs typed accumulation loops that
  // fold the chunks into one set of groups.
  aqv::Series aggregate;
  {
    std::vector<aqv::Row> row_out;
    std::vector<aqv::Row> vec_out;
    aggregate.Run(
        reps,
        [&] { row_out = aqv::GroupAggregate(data, group_cols, aggs); },
        [&] {
          aqv::VectorizedAggregation::Groups folded;
          for (const aqv::ChunkPtr& chunk : chunks) {
            agg.Accumulate(chunk->columnar(), nullptr, nullptr, &folded);
          }
          vec_out = agg.Finish(&folded, nullptr);
        });
    int arity = 1 + static_cast<int>(aggs.size());
    aqv::DieIfNotEqual(aqv::ToTable(vec_out, arity),
                       aqv::ToTable(row_out, arity), "aggregate");
  }

  // 3. aggregate_hash: the same fold over a copy of the table whose key,
  // spanning twice the dense budget, forces the canonical-key map.
  aqv::Series aggregate_hash;
  {
    const int64_t wide = 2 * static_cast<int64_t>(
                                 aqv::VectorizedAggregation::kDenseGroupSlots);
    std::uniform_int_distribution<int64_t> wide_key(0, wide - 1);
    std::vector<aqv::Row> hash_data = data;
    for (aqv::Row& row : hash_data) row[0] = aqv::Value::Int64(wide_key(rng));
    aqv::Table hash_table({"A", "B", "C"});
    aqv::CheckOrDie(hash_table.AddRows(hash_data), "populate hash table");
    aqv::VectorizedAggregation hash_agg;
    if (!aqv::VectorizedAggregation::Compile(aqv::Images(hash_table), group_cols,
                                             aggs, &hash_agg)) {
      std::fprintf(stderr, "aggregation unexpectedly not vectorizable\n");
      return 2;
    }
    for (const aqv::ChunkPtr& chunk : hash_table.chunks()) {
      if (hash_agg.DenseSlotCount(chunk->columnar()) != 0) {
        std::fprintf(stderr, "aggregate_hash took the dense path\n");
        return 2;
      }
    }
    std::vector<aqv::Row> row_out;
    std::vector<aqv::Row> vec_out;
    aggregate_hash.Run(
        reps,
        [&] { row_out = aqv::GroupAggregate(hash_data, group_cols, aggs); },
        [&] {
          aqv::VectorizedAggregation::Groups folded;
          for (const aqv::ChunkPtr& chunk : hash_table.chunks()) {
            hash_agg.Accumulate(chunk->columnar(), nullptr, nullptr, &folded);
          }
          vec_out = hash_agg.Finish(&folded, nullptr);
        });
    int arity = 1 + static_cast<int>(aggs.size());
    aqv::DieIfNotEqual(aqv::ToTable(vec_out, arity),
                       aqv::ToTable(row_out, arity), "aggregate_hash");
  }

  // 4. query_e2e: the whole statement through the Evaluator.
  aqv::Database db;
  db.Put("T", std::move(table));
  aqv::Query query = aqv::QueryBuilder()
                         .From("T", {"A1", "B1", "C1"})
                         .Select("A1")
                         .SelectAgg(aqv::AggFn::kSum, "B1", "SB")
                         .SelectAgg(aqv::AggFn::kSum, "C1", "SC")
                         .SelectAgg(aqv::AggFn::kCount, "B1", "N")
                         .WhereConst("A1", aqv::CmpOp::kLt,
                                     aqv::Value::Int64(groups / 2))
                         .GroupBy("A1")
                         .BuildOrDie();
  aqv::EvalOptions row_options;
  row_options.vectorized = false;
  aqv::Series e2e;
  {
    aqv::Table row_out;
    aqv::Table vec_out;
    size_t vectorized_ops = 0;
    e2e.Run(
        reps,
        [&] {
          aqv::Evaluator eval(&db, nullptr, row_options);
          row_out = aqv::ValueOrDie(eval.Execute(query), "row e2e");
        },
        [&] {
          aqv::Evaluator eval(&db);
          vec_out = aqv::ValueOrDie(eval.Execute(query), "vec e2e");
          vectorized_ops = eval.stats().vectorized_ops;
        });
    if (vectorized_ops == 0) {
      std::fprintf(stderr, "query_e2e did not engage the vectorized path\n");
      return 1;
    }
    aqv::DieIfNotEqual(vec_out, row_out, "query_e2e");
  }

  // 5. zone_skip: Z(K, V) with K = row number; the filter admits the last
  // 1/64 of the rows, which the zone maps pin to the last chunk or two.
  {
    aqv::Table z({"K", "V"});
    std::vector<aqv::Row> zdata;
    zdata.reserve(static_cast<size_t>(rows));
    for (int i = 0; i < rows; ++i) {
      zdata.push_back(aqv::Row{aqv::Value::Int64(i),
                               aqv::Value::Int64(payload(rng))});
    }
    aqv::CheckOrDie(z.AddRows(std::move(zdata)), "populate zone table");
    db.Put("Z", std::move(z));
  }
  aqv::Query zone_query = aqv::QueryBuilder()
                              .From("Z", {"K1", "V1"})
                              .SelectAgg(aqv::AggFn::kSum, "V1", "S")
                              .SelectAgg(aqv::AggFn::kCount, "V1", "N")
                              .WhereConst("K1", aqv::CmpOp::kGe,
                                          aqv::Value::Int64(rows - rows / 64))
                              .BuildOrDie();
  aqv::Series zone;
  size_t chunks_scanned = 0;
  size_t chunks_total = 0;
  {
    aqv::Table row_out;
    aqv::Table vec_out;
    zone.Run(
        reps,
        [&] {
          aqv::Evaluator eval(&db, nullptr, row_options);
          row_out = aqv::ValueOrDie(eval.Execute(zone_query), "row zone");
        },
        [&] {
          aqv::Evaluator eval(&db);
          vec_out = aqv::ValueOrDie(eval.Execute(zone_query), "vec zone");
          const aqv::PlanNode* scan = eval.executed_plan();
          while (!scan->children.empty()) scan = scan->children[0].get();
          chunks_scanned = scan->actual.chunks_scanned;
          chunks_total = scan->actual.chunks_total;
        });
    if (chunks_total > 1 && chunks_scanned >= chunks_total) {
      std::fprintf(stderr, "zone_skip did not skip any chunk\n");
      return 1;
    }
    aqv::DieIfNotEqual(vec_out, row_out, "zone_skip");
  }

  std::fprintf(stderr,
               "scan_filter:    row=%.0fus vec=%.0fus speedup=%.1fx\n"
               "aggregate:      row=%.0fus vec=%.0fus speedup=%.1fx "
               "(dense, %zu slots)\n"
               "aggregate_hash: row=%.0fus vec=%.0fus speedup=%.1fx\n"
               "query_e2e:      row=%.0fus vec=%.0fus speedup=%.1fx\n"
               "zone_skip:      row=%.0fus vec=%.0fus speedup=%.1fx "
               "(%zu/%zu chunks)\n",
               scan.row_median, scan.vec_median, scan.speedup,
               aggregate.row_median, aggregate.vec_median, aggregate.speedup,
               dense_slots, aggregate_hash.row_median,
               aggregate_hash.vec_median, aggregate_hash.speedup,
               e2e.row_median, e2e.vec_median, e2e.speedup, zone.row_median,
               zone.vec_median, zone.speedup, chunks_scanned, chunks_total);

  bool pass = (min_scan_speedup < 0 || scan.speedup >= min_scan_speedup) &&
              (min_agg_speedup < 0 || aggregate.speedup >= min_agg_speedup);
  char json[8192];
  std::snprintf(
      json, sizeof(json),
      "{\n"
      "  \"experiment\": \"E20\",\n"
      "  \"workload\": {\"rows\": %d, \"groups\": %d, \"reps\": %d,\n"
      "                \"seed\": %llu, \"selectivity_pct\": 50},\n"
      "  \"scan_filter\": {\"row_micros\": %s,\n"
      "                   \"vec_micros\": %s,\n"
      "                   \"row_median_micros\": %.0f,\n"
      "                   \"vec_median_micros\": %.0f,\n"
      "                   \"speedup\": %.2f},\n"
      "  \"aggregate\": {\"row_median_micros\": %.0f,\n"
      "                 \"vec_median_micros\": %.0f,\n"
      "                 \"speedup\": %.2f,\n"
      "                 \"dense_slots\": %zu},\n"
      "  \"aggregate_hash\": {\"row_median_micros\": %.0f,\n"
      "                      \"vec_median_micros\": %.0f,\n"
      "                      \"speedup\": %.2f},\n"
      "  \"query_e2e\": {\"row_median_micros\": %.0f,\n"
      "                 \"vec_median_micros\": %.0f,\n"
      "                 \"speedup\": %.2f},\n"
      "  \"zone_skip\": {\"row_median_micros\": %.0f,\n"
      "                 \"vec_median_micros\": %.0f,\n"
      "                 \"speedup\": %.2f,\n"
      "                 \"chunks_scanned\": %zu,\n"
      "                 \"chunks_total\": %zu},\n"
      "  \"equivalence_checked\": true,\n"
      "  \"min_scan_speedup\": %.1f,\n"
      "  \"min_agg_speedup\": %.1f,\n"
      "  \"pass\": %s\n"
      "}\n",
      rows, groups, reps, static_cast<unsigned long long>(seed),
      aqv::JsonList(scan.row_micros).c_str(),
      aqv::JsonList(scan.vec_micros).c_str(), scan.row_median,
      scan.vec_median, scan.speedup, aggregate.row_median,
      aggregate.vec_median, aggregate.speedup, dense_slots,
      aggregate_hash.row_median, aggregate_hash.vec_median,
      aggregate_hash.speedup, e2e.row_median, e2e.vec_median, e2e.speedup,
      zone.row_median, zone.vec_median, zone.speedup, chunks_scanned,
      chunks_total, min_scan_speedup, min_agg_speedup,
      pass ? "true" : "false");
  std::fputs(json, stdout);
  std::ofstream out(json_path, std::ios::trunc);
  if (out) {
    out << json;
  } else {
    std::fprintf(stderr, "warning: cannot write %s\n", json_path.c_str());
  }

  if (!pass) {
    std::fprintf(stderr,
                 "FAIL: speedup below gate (scan %.2fx vs %.1fx required, "
                 "aggregate %.2fx vs %.1fx required)\n",
                 scan.speedup, min_scan_speedup, aggregate.speedup,
                 min_agg_speedup);
    return 1;
  }
  return 0;
}
