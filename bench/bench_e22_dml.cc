// Experiment E22 — what do DELETE/UPDATE cost through the maintained write
// path, and does MVCC churn stay memory-bounded? (PR 10). A self-timed A/B
// harness in the E19 mould (no google-benchmark: the binary is the CI gate,
// so it owns its exit code and its JSON artifact). Three series:
//
//   1. delete_maintain — per-statement latency of single-row DELETEs against
//      a service whose dependent view folds deletes incrementally (SUM+COUNT
//      tracks group liveness) vs an identical service whose view cannot (a
//      MAX view with no COUNT output forces the full-recompute fallback).
//      This is the gated series (--min-maintain-speedup): incremental delete
//      maintenance must beat recompute once the table is large enough to
//      make recomputation hurt.
//
//   2. update_maintain — the same A/B for single-row UPDATEs (a delete+
//      insert delta through the identical path).
//
//   3. churn_memory — an insert/select/delete churn loop with no pinned
//      snapshot, sampling the MVCC ledger (Database::MvccStats) every
//      cycle. The always-on memory gate: retired versions (and their
//      columnar pivot caches) must die with the write that replaced them —
//      peak versions_alive stays small and final bytes_pinned is zero.
//
// Both latency arms run the same statements over identical seeded data, and
// the harness cross-checks multiset equality of the two base tables at the
// end — a wrong-result incremental fold aborts the bench.
//
// Flags:
//   --rows=N                   rows in the base table (default 200000)
//   --groups=N                 grouping-key cardinality (default 32)
//   --reps=N                   timed statements per series (default 40)
//   --churn=N                  churn cycles in series 3 (default 60)
//   --seed=N                   data seed (default 42)
//   --json=PATH                JSON artifact (default e22_dml.json)
//   --min-maintain-speedup=X   exit 1 if delete speedup < X
//                              (default: report only, never fail)
//
// e.g. build/bench/bench_e22_dml --min-maintain-speedup=2
//          --json=bench/e22_dml.json

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "exec/table.h"
#include "service/query_service.h"

namespace aqv {
namespace {

using Clock = std::chrono::steady_clock;

// A service over T(A, B) — A in [0, groups), B unique per row — plus one
// materialized view over T: SUM+COUNT (delete-foldable) or MAX-only
// (deletes force the recompute fallback).
std::unique_ptr<QueryService> MakeArm(int rows, int groups, uint64_t seed,
                                      bool foldable) {
  auto service = std::make_unique<QueryService>();
  CheckOrDie(service->Execute("CREATE TABLE T(A, B)").status(), "create T");
  std::mt19937_64 rng(seed);
  std::string sql;
  const int kBatch = 1000;
  for (int i = 0; i < rows; ++i) {
    if (sql.empty()) sql = "INSERT INTO T VALUES ";
    else sql += ", ";
    sql += "(" + std::to_string(rng() % groups) + ", " + std::to_string(i) +
           ")";
    if ((i + 1) % kBatch == 0 || i + 1 == rows) {
      CheckOrDie(service->Execute(sql).status(), "populate T");
      sql.clear();
    }
  }
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
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (rows < 4 * reps || groups < 1 || reps < 1 || churn < 1) {
    std::fprintf(stderr,
                 "need --rows >= 4*reps, --groups>=1, --reps>=1, --churn>=1\n");
    return 2;
  }

  // ---- Series 1 + 2: incremental fold vs recompute fallback. ----
  // Both arms hold identical data; the only difference is whether the view
  // shape lets the maintainer fold deletes. DELETEs consume B = 0..reps-1,
  // UPDATEs move B = 2*reps..3*reps-1 out of the matchable range; the two
  // index windows never overlap.
  auto incremental = aqv::MakeArm(rows, groups, seed, /*foldable=*/true);
  auto recompute = aqv::MakeArm(rows, groups, seed, /*foldable=*/false);

  std::vector<double> del_inc, del_rec, upd_inc, upd_rec;
  for (int i = -1; i < reps; ++i) {  // i == -1: discarded warmup pair
    std::string del =
        "DELETE FROM T WHERE B = " + std::to_string(i < 0 ? reps : i);
    double inc = aqv::TimedStatement(incremental.get(), del);
    double rec = aqv::TimedStatement(recompute.get(), del);
    if (i >= 0) {
      del_inc.push_back(inc);
      del_rec.push_back(rec);
    }
  }
  for (int i = -1; i < reps; ++i) {
    std::string upd = "UPDATE T SET B = B + 1000000000 WHERE B = " +
                      std::to_string(2 * reps + (i < 0 ? reps : i));
    double inc = aqv::TimedStatement(incremental.get(), upd);
    double rec = aqv::TimedStatement(recompute.get(), upd);
    if (i >= 0) {
      upd_inc.push_back(inc);
      upd_rec.push_back(rec);
    }
  }

  // The arms ran identical DML over identical data: their base tables must
  // be the same multiset, or the incremental fold corrupted the write path.
  {
    aqv::ServiceSnapshotPtr a = incremental->PinSnapshot();
    aqv::ServiceSnapshotPtr b = recompute->PinSnapshot();
    const aqv::Table* ta = aqv::ValueOrDie(a->db.Get("T"), "arm A table");
    const aqv::Table* tb = aqv::ValueOrDie(b->db.Get("T"), "arm B table");
    if (!aqv::MultisetEqual(*ta, *tb)) {
      std::fprintf(stderr, "EQUIVALENCE VIOLATION: arms diverged:\n%s\n",
                   aqv::DescribeMultisetDifference(*ta, *tb).c_str());
      std::abort();
    }
  }
  aqv::ServiceStats inc_stats = incremental->Stats();
  aqv::ServiceStats rec_stats = recompute->Stats();

  double del_inc_med = aqv::Median(del_inc);
  double del_rec_med = aqv::Median(del_rec);
  double del_speedup = del_inc_med > 0 ? del_rec_med / del_inc_med : 0.0;
  double upd_inc_med = aqv::Median(upd_inc);
  double upd_rec_med = aqv::Median(upd_rec);
  double upd_speedup = upd_inc_med > 0 ? upd_rec_med / upd_inc_med : 0.0;

  // ---- Series 3: MVCC churn with no pinned snapshot. ----
  // Each cycle inserts a row, runs a SELECT (building the new version's
  // columnar pivot cache — the bytes that must die with it), then deletes
  // the row. The ledger is sampled every cycle.
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
    for (const aqv::Database::TableMvcc& m : churn_service->Stats().mvcc) {
      peak_versions = std::max(peak_versions, m.versions_alive);
      peak_pinned = std::max(peak_pinned, m.bytes_pinned);
    }
  }
  size_t final_pinned = 0;
  size_t final_versions = 0;
  for (const aqv::Database::TableMvcc& m : churn_service->Stats().mvcc) {
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
      "churn:  peak_versions=%zu peak_pinned=%zuB final_pinned=%zuB "
      "bounded=%s\n",
      del_inc_med, del_rec_med, del_speedup,
      static_cast<unsigned long long>(inc_stats.views_maintained),
      static_cast<unsigned long long>(rec_stats.views_recomputed),
      upd_inc_med, upd_rec_med, upd_speedup, peak_versions, peak_pinned,
      final_pinned, memory_bounded ? "yes" : "NO");

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

  bool speedup_pass =
      min_maintain_speedup < 0 || del_speedup >= min_maintain_speedup;
  bool pass = speedup_pass && memory_bounded;
  char json[2048];
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
      "  \"churn_memory\": {\"peak_versions_alive\": %zu,\n"
      "                    \"peak_bytes_pinned\": %zu,\n"
      "                    \"final_bytes_pinned\": %zu,\n"
      "                    \"bounded\": %s},\n"
      "  \"equivalence_checked\": true,\n"
      "  \"min_maintain_speedup\": %.1f,\n"
      "  \"pass\": %s\n"
      "}\n",
      rows, groups, reps, churn, static_cast<unsigned long long>(seed),
      del_inc_med, del_rec_med, del_speedup, upd_inc_med, upd_rec_med,
      upd_speedup, peak_versions, peak_pinned, final_pinned,
      memory_bounded ? "true" : "false", min_maintain_speedup,
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
                 "FAIL: %s\n",
                 !memory_bounded
                     ? "MVCC churn left memory pinned or versions growing"
                     : "delete maintenance speedup below gate");
    return 1;
  }
  return 0;
}
