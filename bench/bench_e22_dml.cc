// Experiment E22 — what do single-row INSERT/DELETE/UPDATE cost through
// the maintained write path, does that cost stay flat as the table grows,
// and does MVCC churn stay memory-bounded? A self-timed A/B harness in the
// E19 mould (no google-benchmark: the binary is the CI gate, so it owns its
// exit code and its JSON artifact). Four series:
//
//   1. delete_maintain — per-statement latency of single-row DELETEs against
//      a service whose dependent view folds deletes incrementally (SUM+COUNT
//      tracks group liveness) vs an identical service whose view cannot (a
//      MAX view with no COUNT output forces the full-recompute fallback), at
//      --rows. Gated by --min-maintain-speedup: incremental delete
//      maintenance must beat recompute.
//
//   2. update_maintain — the same A/B for single-row UPDATEs (a delete+
//      insert delta through the identical path).
//
//   3. size_sweep — at 20k, 200k and 2M rows, the p50 of single-row
//      INSERT, DELETE and UPDATE on the folding service; the DELETE and
//      UPDATE targets are spread over the whole table, so they land in
//      every chunk. Their WHERE key B is clustered by insertion order, so
//      zone maps skip every chunk but the one holding the row. Table
//      versions are chunked and share every chunk a write does not touch,
//      so such a write costs its chunk, not its table: gated by
//      --max-size-ratio (largest-size p50 over smallest-size p50, per
//      statement kind). The 20k service stays alive through the sweep and
//      alternates windows of statements with each larger one, so every
//      ratio divides two p50s taken over the same stretch of time: a
//      scheduler move to a slower CPU slows both sides, not one. Each size
//      also times single-row DELETEs on a second table whose B values are
//      shuffled across the rows: no column is clustered, no chunk can be
//      skipped, and that cost grows with the table. It is reported, never
//      gated. At the largest size the delete A/B of series 1 runs again,
//      gated by --min-largest-speedup.
//
//   4. churn_memory — an insert/select/delete churn loop with no pinned
//      snapshot, sampling the MVCC ledger (Stats().mvcc) every
//      cycle. The always-on memory gate: retired versions (and their
//      columnar images) must die with the write that replaced them — peak
//      versions_alive stays small and final bytes_pinned is zero.
//
// Every A/B runs the same statements over identical seeded data, and the
// harness cross-checks multiset equality of the two base tables at the
// end — a wrong-result incremental fold aborts the bench.
//
// Flags:
//   --rows=N                  rows for series 1, 2 (default 200000)
//   --groups=N                grouping-key cardinality (default 32)
//   --reps=N                  timed statements per series (default 40)
//   --churn=N                 churn cycles in series 4 (default 60)
//   --seed=N                  data seed (default 42)
//   --json=PATH               JSON artifact (default e22_dml.json)
//   --min-maintain-speedup=X  exit 1 if the series 1 delete speedup < X
//   --max-size-ratio=X        exit 1 if a series 3 largest/smallest p50
//                             ratio > X
//   --min-largest-speedup=X   exit 1 if the delete speedup at the largest
//                             size is not > X
//                             (each gate: default report only, never fail)
//
// e.g. build/bench/bench_e22_dml --min-maintain-speedup=1.05
//          --max-size-ratio=2 --min-largest-speedup=10
//          --json=bench/e22_dml.json

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "catalog/catalog.h"
#include "exec/table.h"
#include "ir/views.h"
#include "service/query_service.h"

namespace aqv {
namespace {

using Clock = std::chrono::steady_clock;

/// Series 3 table sizes, ascending.
constexpr int kSweepSizes[] = {20000, 200000, 2000000};

// A service over T(A, B) — A in [0, groups); B a permutation of
// 0..rows-1, either the row's ordinal (`clustered`: a key that rises with
// insertion order, so a value's zone maps admit one chunk) or shuffled (a
// value may sit in any chunk) — plus one materialized view over T:
// SUM+COUNT (delete-foldable) or MAX-only (deletes force the recompute
// fallback). The table is bootstrapped, not inserted, so a 2M-row arm sets
// up in seconds.
std::unique_ptr<QueryService> MakeArm(int rows, int groups, uint64_t seed,
                                      bool foldable, bool clustered = true) {
  std::mt19937_64 rng(seed);
  std::vector<int64_t> keys(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) keys[i] = i;
  if (!clustered) {
    std::shuffle(keys.begin(), keys.end(), std::mt19937_64(seed + 7));
  }
  std::vector<Row> data;
  data.reserve(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    data.push_back(Row{Value::Int64(static_cast<int64_t>(rng() % groups)),
                       Value::Int64(keys[i])});
  }
  Table t({"A", "B"});
  CheckOrDie(t.AddRows(std::move(data)), "populate T");
  Catalog catalog;
  CheckOrDie(catalog.AddTable(TableDef("T", {"A", "B"})), "catalog");
  Database db;
  db.Put("T", std::move(t));
  auto service = std::make_unique<QueryService>();
  CheckOrDie(service->Bootstrap(std::move(catalog), std::move(db),
                                ViewRegistry()),
             "bootstrap");
  const char* view =
      foldable ? "CREATE MATERIALIZED VIEW V AS SELECT A_1, SUM(B_1) AS S, "
                 "COUNT(B_1) AS N FROM T GROUPBY A_1"
               : "CREATE MATERIALIZED VIEW V AS SELECT A_1, MAX(B_1) AS M "
                 "FROM T GROUPBY A_1";
  CheckOrDie(service->Execute(view).status(), "create V");
  return service;
}

double TimedStatement(QueryService* service, const std::string& sql) {
  Clock::time_point t0 = Clock::now();
  CheckOrDie(service->Execute(sql).status(), sql.c_str());
  return MicrosSince(t0);
}

/// The two arms' base tables must be the same multiset, or the incremental
/// fold corrupted the write path.
void DieIfArmsDiverged(QueryService* a, QueryService* b) {
  ServiceSnapshotPtr sa = a->PinSnapshot();
  ServiceSnapshotPtr sb = b->PinSnapshot();
  const Table* ta = ValueOrDie(sa->db.Get("T"), "arm A table");
  const Table* tb = ValueOrDie(sb->db.Get("T"), "arm B table");
  if (!MultisetEqual(*ta, *tb)) {
    std::fprintf(stderr, "EQUIVALENCE VIOLATION: arms diverged:\n%s\n",
                 DescribeMultisetDifference(*ta, *tb).c_str());
    std::abort();
  }
}

/// Incremental-vs-recompute medians of one statement series, run
/// alternately on the two arms.
struct AB {
  double incremental = 0.0;
  double recompute = 0.0;
  double speedup() const {
    return incremental > 0 ? recompute / incremental : 0.0;
  }
};

/// Times `sql(i)` for i = -1 (a discarded warmup) .. reps-1 on both arms.
template <typename SqlFn>
AB RunAB(QueryService* inc, QueryService* rec, int reps, SqlFn sql) {
  std::vector<double> a, b;
  for (int i = -1; i < reps; ++i) {
    std::string stmt = sql(i);
    double ta = TimedStatement(inc, stmt);
    double tb = TimedStatement(rec, stmt);
    if (i < 0) continue;
    a.push_back(ta);
    b.push_back(tb);
  }
  return AB{Median(a), Median(b)};
}

/// p50s of single-row statements on one folding service of `rows` rows.
struct SizePoint {
  int rows = 0;
  double insert_p50 = 0.0;
  double delete_p50 = 0.0;
  double update_p50 = 0.0;
  double unclustered_delete_p50 = 0.0;  // B shuffled: nothing skipped
  /// The smallest size's p50s, taken in the windows alternated with this
  /// size's (larger sizes only): the denominators of its size ratios.
  double smallest_insert_p50 = 0.0;
  double smallest_delete_p50 = 0.0;
  double smallest_update_p50 = 0.0;
};

/// Statements per window of the series 3 alternation: four
/// INSERT/DELETE/UPDATE triples, about a millisecond of writes.
constexpr int kWindowTriples = 4;

/// One folding service of the size sweep and the single-row statement
/// latencies taken on it. Slot k (< `slots`) is consumed by one
/// INSERT/DELETE/UPDATE triple: the DELETE targets B = k * stride and the
/// UPDATE B = k * stride + 1, spread over every chunk, disjoint, never
/// reused.
struct SweepArm {
  SweepArm(int rows, int slots, int groups, uint64_t seed)
      : groups(groups),
        stride(rows / slots),
        service(MakeArm(rows, groups, seed, /*foldable=*/true)) {}

  /// Times the triple on the next slot; a warmup triple is not kept.
  void RunTriple(bool warmup) {
    const int64_t k = next_slot++;
    double ti = TimedStatement(
        service.get(), "INSERT INTO T VALUES (" + std::to_string(k % groups) +
                           ", " + std::to_string(3000000000LL + k) + ")");
    double td = TimedStatement(
        service.get(), "DELETE FROM T WHERE B = " + std::to_string(k * stride));
    double tu = TimedStatement(
        service.get(), "UPDATE T SET B = B + 1000000000 WHERE B = " +
                           std::to_string(k * stride + 1));
    if (warmup) return;
    ins.push_back(ti);
    del.push_back(td);
    upd.push_back(tu);
  }

  int groups;
  int64_t stride;
  int64_t next_slot = 0;
  std::unique_ptr<QueryService> service;
  std::vector<double> ins, del, upd;
};

/// Single-row DELETEs of B = k * rows / (reps + 1) on a table whose B values
/// are shuffled: zone maps skip nothing.
double UnclusteredDeleteP50(int rows, int groups, int reps, uint64_t seed) {
  const int64_t stride = rows / (reps + 1);
  auto shuffled = MakeArm(rows, groups, seed, /*foldable=*/true,
                          /*clustered=*/false);
  std::vector<double> times;
  for (int i = -1; i < reps; ++i) {  // i == -1: discarded warmup
    double t = TimedStatement(shuffled.get(), "DELETE FROM T WHERE B = " +
                                                  std::to_string((i + 1) *
                                                                 stride));
    if (i >= 0) times.push_back(t);
  }
  return Median(times);
}

/// Median of the samples appended from index `from` on.
double MedianFrom(const std::vector<double>& samples, size_t from) {
  return Median(std::vector<double>(samples.begin() + from, samples.end()));
}

/// Series 3 at one size above the smallest: a fresh arm of `rows` rows and
/// the long-lived `smallest` arm run alternating windows of kWindowTriples
/// triples, `reps` kept triples each after one warmup triple each.
SizePoint MeasureAlongside(SweepArm* smallest, int rows, int groups, int reps,
                           uint64_t seed) {
  const size_t from = smallest->ins.size();
  SizePoint point;
  {
    SweepArm arm(rows, reps + 1, groups, seed);
    arm.RunTriple(/*warmup=*/true);
    smallest->RunTriple(/*warmup=*/true);
    for (int done = 0; done < reps; done += kWindowTriples) {
      const int window = std::min(kWindowTriples, reps - done);
      for (int i = 0; i < window; ++i) arm.RunTriple(/*warmup=*/false);
      for (int i = 0; i < window; ++i) smallest->RunTriple(/*warmup=*/false);
    }
    point = SizePoint{rows, Median(arm.ins), Median(arm.del),
                      Median(arm.upd)};
  }
  // One large table at a time: the clustered arm is gone before this one.
  point.unclustered_delete_p50 = UnclusteredDeleteP50(rows, groups, reps, seed);
  point.smallest_insert_p50 = MedianFrom(smallest->ins, from);
  point.smallest_delete_p50 = MedianFrom(smallest->del, from);
  point.smallest_update_p50 = MedianFrom(smallest->upd, from);
  return point;
}

}  // namespace
}  // namespace aqv

int main(int argc, char** argv) {
  int rows = 200000;
  int groups = 32;
  int reps = 40;
  int churn = 60;
  uint64_t seed = 42;
  std::string json_path = "e22_dml.json";
  double min_maintain_speedup = -1.0;  // report only
  double max_size_ratio = -1.0;
  double min_largest_speedup = -1.0;

  for (int i = 1; i < argc; ++i) {
    if (const char* v = aqv::FlagValue(argv[i], "--rows")) {
      rows = std::atoi(v);
    } else if (const char* v = aqv::FlagValue(argv[i], "--groups")) {
      groups = std::atoi(v);
    } else if (const char* v = aqv::FlagValue(argv[i], "--reps")) {
      reps = std::atoi(v);
    } else if (const char* v = aqv::FlagValue(argv[i], "--churn")) {
      churn = std::atoi(v);
    } else if (const char* v = aqv::FlagValue(argv[i], "--seed")) {
      seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = aqv::FlagValue(argv[i], "--json")) {
      json_path = v;
    } else if (const char* v =
                   aqv::FlagValue(argv[i], "--min-maintain-speedup")) {
      min_maintain_speedup = std::atof(v);
    } else if (const char* v = aqv::FlagValue(argv[i], "--max-size-ratio")) {
      max_size_ratio = std::atof(v);
    } else if (const char* v =
                   aqv::FlagValue(argv[i], "--min-largest-speedup")) {
      min_largest_speedup = std::atof(v);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  const int smallest_size = aqv::kSweepSizes[0];
  const int largest_size =
      aqv::kSweepSizes[std::size(aqv::kSweepSizes) - 1];
  // The smallest arm spends reps + 1 slots alongside each larger size, and
  // a slot takes two B values.
  const int larger_sizes = static_cast<int>(std::size(aqv::kSweepSizes)) - 1;
  const int max_reps = smallest_size / (2 * larger_sizes) - 1;
  if (rows < 4 * reps || reps > max_reps || groups < 1 || reps < 1 ||
      churn < 1) {
    std::fprintf(stderr,
                 "need --rows >= 4*reps, --reps <= %d, --groups>=1, "
                 "--reps>=1, --churn>=1\n",
                 max_reps);
    return 2;
  }

  // ---- Series 1 + 2: incremental fold vs recompute fallback. ----
  // Both arms hold identical data; the only difference is whether the view
  // shape lets the maintainer fold deletes. DELETEs consume B = 0..reps-1,
  // UPDATEs move B = 2*reps..3*reps-1 out of the matchable range; the two
  // index windows never overlap.
  aqv::AB del, upd;
  aqv::ServiceStats inc_stats, rec_stats;
  {
    auto incremental = aqv::MakeArm(rows, groups, seed, /*foldable=*/true);
    auto recompute = aqv::MakeArm(rows, groups, seed, /*foldable=*/false);
    del = aqv::RunAB(incremental.get(), recompute.get(), reps, [&](int i) {
      return "DELETE FROM T WHERE B = " + std::to_string(i < 0 ? reps : i);
    });
    upd = aqv::RunAB(incremental.get(), recompute.get(), reps, [&](int i) {
      return "UPDATE T SET B = B + 1000000000 WHERE B = " +
             std::to_string(2 * reps + (i < 0 ? reps : i));
    });
    aqv::DieIfArmsDiverged(incremental.get(), recompute.get());
    inc_stats = incremental->Stats();
    rec_stats = recompute->Stats();
  }

  // ---- Series 3: single-row statement cost across table sizes. ----
  // One larger size at a time, so at most one large table is alive; the
  // smallest arm runs alongside each of them.
  std::vector<aqv::SizePoint> sweep(1);
  {
    aqv::SweepArm smallest(smallest_size, larger_sizes * (reps + 1), groups,
                           seed);
    for (size_t i = 1; i < std::size(aqv::kSweepSizes); ++i) {
      sweep.push_back(aqv::MeasureAlongside(&smallest, aqv::kSweepSizes[i],
                                            groups, reps, seed));
    }
    sweep.front() = aqv::SizePoint{smallest_size, aqv::Median(smallest.ins),
                                   aqv::Median(smallest.del),
                                   aqv::Median(smallest.upd)};
  }
  sweep.front().unclustered_delete_p50 =
      aqv::UnclusteredDeleteP50(smallest_size, groups, reps, seed);
  for (const aqv::SizePoint& p : sweep) {
    std::fprintf(stderr,
                 "sweep %8d rows: insert=%.0fus delete=%.0fus update=%.0fus "
                 "unclustered delete=%.0fus",
                 p.rows, p.insert_p50, p.delete_p50, p.update_p50,
                 p.unclustered_delete_p50);
    if (p.smallest_delete_p50 > 0) {
      std::fprintf(stderr,
                   " (%d rows alongside: insert=%.0fus delete=%.0fus "
                   "update=%.0fus)",
                   smallest_size, p.smallest_insert_p50,
                   p.smallest_delete_p50, p.smallest_update_p50);
    }
    std::fprintf(stderr, "\n");
  }
  // Gated ratios divide the largest size's p50 by the smallest size's p50
  // from the same alternation; the unclustered ratio is reported only.
  auto ratio = [](double hi, double lo) { return lo > 0 ? hi / lo : 0.0; };
  const aqv::SizePoint& top = sweep.back();
  const double insert_ratio = ratio(top.insert_p50, top.smallest_insert_p50);
  const double delete_ratio = ratio(top.delete_p50, top.smallest_delete_p50);
  const double update_ratio = ratio(top.update_p50, top.smallest_update_p50);
  const double unclustered_ratio = ratio(
      top.unclustered_delete_p50, sweep.front().unclustered_delete_p50);
  aqv::AB largest;
  {
    auto incremental =
        aqv::MakeArm(largest_size, groups, seed, /*foldable=*/true);
    auto recompute =
        aqv::MakeArm(largest_size, groups, seed, /*foldable=*/false);
    const int64_t stride = largest_size / (reps + 1);
    largest = aqv::RunAB(incremental.get(), recompute.get(), reps, [&](int i) {
      return "DELETE FROM T WHERE B = " + std::to_string((i + 1) * stride);
    });
    aqv::DieIfArmsDiverged(incremental.get(), recompute.get());
  }

  // ---- Series 4: MVCC churn with no pinned snapshot. ----
  // Each cycle inserts a row, runs a SELECT (building the new version's
  // columnar images — the bytes that must die with it), then deletes the
  // row. The ledger is sampled every cycle.
  auto churn_service = aqv::MakeArm(rows / 10, groups, seed + 1,
                                    /*foldable=*/true);
  size_t peak_versions = 0;
  size_t peak_pinned = 0;
  for (int i = 0; i < churn; ++i) {
    std::string b = std::to_string(2000000000 + i);
    aqv::CheckOrDie(
        churn_service->Execute("INSERT INTO T VALUES (0, " + b + ")")
            .status(),
        "churn insert");
    aqv::CheckOrDie(churn_service
                        ->Select("SELECT A_1, SUM(B_1) AS S, COUNT(B_1) AS N "
                                 "FROM T GROUPBY A_1")
                        .status(),
                    "churn select");
    aqv::CheckOrDie(
        churn_service->Execute("DELETE FROM T WHERE B = " + b).status(),
        "churn delete");
    for (const aqv::TableMvcc& m : churn_service->Stats().mvcc) {
      peak_versions = std::max(peak_versions, m.versions_alive);
      peak_pinned = std::max(peak_pinned, m.bytes_pinned);
    }
  }
  size_t final_pinned = 0;
  size_t final_versions = 0;
  for (const aqv::TableMvcc& m : churn_service->Stats().mvcc) {
    final_pinned += m.bytes_pinned;
    final_versions = std::max(final_versions, m.versions_alive);
  }
  // Bounded means: nothing left pinned once the loop quiesces, and live
  // version counts never trend with the cycle count.
  bool memory_bounded = final_pinned == 0 && final_versions <= 2 &&
                        peak_versions <= 4;

  std::fprintf(
      stderr,
      "delete: incremental=%.0fus recompute=%.0fus speedup=%.1fx "
      "(maintained=%llu, recomputed=%llu)\n"
      "update: incremental=%.0fus recompute=%.0fus speedup=%.1fx\n"
      "sweep:  largest/smallest p50 insert=%.2fx delete=%.2fx update=%.2fx "
      "(unclustered delete=%.2fx, not gated); "
      "delete at %d rows: incremental=%.0fus recompute=%.0fus "
      "speedup=%.1fx\n"
      "churn:  peak_versions=%zu peak_pinned=%zuB final_pinned=%zuB "
      "bounded=%s\n",
      del.incremental, del.recompute, del.speedup(),
      static_cast<unsigned long long>(inc_stats.views_maintained),
      static_cast<unsigned long long>(rec_stats.views_recomputed),
      upd.incremental, upd.recompute, upd.speedup(), insert_ratio,
      delete_ratio, update_ratio, unclustered_ratio, largest_size,
      largest.incremental, largest.recompute, largest.speedup(), peak_versions,
      peak_pinned, final_pinned, memory_bounded ? "yes" : "NO");

  // The A/B premise must actually hold: the incremental arm folded, the
  // recompute arm fell back. Otherwise the speedup compares nothing.
  if (inc_stats.views_maintained == 0 || rec_stats.views_recomputed == 0) {
    std::fprintf(stderr,
                 "FAIL: arms did not exercise fold vs fallback "
                 "(maintained=%llu recomputed=%llu)\n",
                 static_cast<unsigned long long>(inc_stats.views_maintained),
                 static_cast<unsigned long long>(rec_stats.views_recomputed));
    return 1;
  }

  std::vector<std::string> failures;
  if (min_maintain_speedup >= 0 && del.speedup() < min_maintain_speedup) {
    failures.push_back("delete maintenance speedup below gate");
  }
  if (max_size_ratio >= 0 &&
      std::max({insert_ratio, delete_ratio, update_ratio}) > max_size_ratio) {
    failures.push_back("single-row write cost grows with the table");
  }
  if (min_largest_speedup >= 0 && !(largest.speedup() > min_largest_speedup)) {
    failures.push_back("incremental vs recompute at the largest size below "
                       "gate");
  }
  if (!memory_bounded) {
    failures.push_back("MVCC churn left memory pinned or versions growing");
  }
  const bool pass = failures.empty();

  std::string sweep_json;
  for (size_t i = 0; i < sweep.size(); ++i) {
    const aqv::SizePoint& p = sweep[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "%s\n    {\"rows\": %d, \"insert_p50_micros\": %.0f, "
                  "\"delete_p50_micros\": %.0f, \"update_p50_micros\": %.0f, "
                  "\"unclustered_delete_p50_micros\": %.0f",
                  i == 0 ? "" : ",", p.rows, p.insert_p50, p.delete_p50,
                  p.update_p50, p.unclustered_delete_p50);
    sweep_json += line;
    if (i > 0) {
      std::snprintf(line, sizeof(line),
                    ",\n     \"smallest_alongside\": {\"insert_p50_micros\": "
                    "%.0f, \"delete_p50_micros\": %.0f, "
                    "\"update_p50_micros\": %.0f}",
                    p.smallest_insert_p50, p.smallest_delete_p50,
                    p.smallest_update_p50);
      sweep_json += line;
    }
    sweep_json += "}";
  }
  char json[4096];
  std::snprintf(
      json, sizeof(json),
      "{\n"
      "  \"experiment\": \"E22\",\n"
      "  \"workload\": {\"rows\": %d, \"groups\": %d, \"reps\": %d,\n"
      "                \"churn_cycles\": %d, \"seed\": %llu},\n"
      "  \"delete_maintain\": {\"incremental_median_micros\": %.0f,\n"
      "                       \"recompute_median_micros\": %.0f,\n"
      "                       \"speedup\": %.2f},\n"
      "  \"update_maintain\": {\"incremental_median_micros\": %.0f,\n"
      "                       \"recompute_median_micros\": %.0f,\n"
      "                       \"speedup\": %.2f},\n"
      "  \"size_sweep\": {\"points\": [%s],\n"
      "                  \"largest_over_smallest\": {\"insert\": %.2f, "
      "\"delete\": %.2f, \"update\": %.2f},\n"
      "                  \"unclustered_delete_largest_over_smallest\": "
      "%.2f,\n"
      "                  \"largest_delete_maintain\": {\"rows\": %d,\n"
      "                       \"incremental_median_micros\": %.0f,\n"
      "                       \"recompute_median_micros\": %.0f,\n"
      "                       \"speedup\": %.2f}},\n"
      "  \"churn_memory\": {\"peak_versions_alive\": %zu,\n"
      "                    \"peak_bytes_pinned\": %zu,\n"
      "                    \"final_bytes_pinned\": %zu,\n"
      "                    \"bounded\": %s},\n"
      "  \"equivalence_checked\": true,\n"
      "  \"min_maintain_speedup\": %.2f,\n"
      "  \"max_size_ratio\": %.2f,\n"
      "  \"min_largest_speedup\": %.2f,\n"
      "  \"pass\": %s\n"
      "}\n",
      rows, groups, reps, churn, static_cast<unsigned long long>(seed),
      del.incremental, del.recompute, del.speedup(), upd.incremental,
      upd.recompute, upd.speedup(), sweep_json.c_str(), insert_ratio,
      delete_ratio, update_ratio, unclustered_ratio, largest_size,
      largest.incremental, largest.recompute, largest.speedup(), peak_versions,
      peak_pinned, final_pinned, memory_bounded ? "true" : "false",
      min_maintain_speedup, max_size_ratio, min_largest_speedup,
      pass ? "true" : "false");
  std::fputs(json, stdout);
  std::ofstream out(json_path, std::ios::trunc);
  if (out) {
    out << json;
  } else {
    std::fprintf(stderr, "warning: cannot write %s\n", json_path.c_str());
  }

  for (const std::string& f : failures) {
    std::fprintf(stderr, "FAIL: %s\n", f.c_str());
  }
  return pass ? 0 : 1;
}
