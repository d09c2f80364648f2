// Experiment E12 — the concurrent query service: amortizing the rewrite
// decision across heavy repeated traffic (the optimizer-integration setting
// of Cohen–Nutt). A multi-threaded load generator drives QueryService with
// a fixed pool of telephony aggregation queries and sweeps
//
//   cache=0/1  — rewrite-plan cache off (every SELECT re-optimizes: parse,
//                flatten, enumerate rewritings, cost) vs on (plan served
//                from the LRU after the first miss);
//   threads    — 1, 2, 4, 8 workers through the reader/writer latch.
//
// Series reported (items = statements served):
//   E12/Service/cache:0/threads:N  — cold planning path
//   E12/Service/cache:1/threads:N  — warm cache path
// plus `cache_hit_rate` from the service's own metrics. The headline
// numbers: items_per_second(cache:1) / items_per_second(cache:0) at equal
// threads is the cache speedup (claimed >= 2x), and items_per_second rising
// with threads at cache:1 is the latch scaling claim.
//
// Reproducible by construction: the workload seed is pinned (and overridable
// on the command line), so two runs generate identical databases and plans.
//
// Experiment E14 — striped latching under a write-heavy mix (PR 3). The
// BM_E12_ServiceWriteMix series adds writer traffic: each worker flips a
// deterministic per-thread coin and either runs a pool SELECT or REFRESHes
// its *private* materialized view (constant-cost write: the view reads one
// small private table, so the work does not grow over the run). The sweep
// crosses
//
//   write_pct  — percent of statements that are writes (0, 20, 50);
//   stripes    — ServiceOptions::latch_stripes; stripes:1 *is* the global
//                reader/writer latch the stripes replaced (every name maps
//                to one stripe), so stripes:1 vs stripes:16 at equal
//                write_pct/threads is the before/after of the PR.
//
// Experiment E16 — robustness under chaos (PR 4). With --chaos the whole
// sweep runs with probabilistic failpoints armed across the wired sites
// (parse, plan cache, execution, COW copy); injected faults surface as
// clean kUnavailable errors, which the workers count (`chaos_error_rate`)
// instead of aborting the series. The headline claim is twofold: the
// service keeps serving under sustained faults — slower, since failed
// rewritten plans retry on the unrewritten query, but it never wedges or
// crashes — and, from BM_E16_DisabledFailpointCheck, which times an
// unarmed AQV_FAILPOINT site directly, the disabled check costs about a
// nanosecond, i.e. well under 2% of any statement's service time.
//
// Experiment E17 — the transactional write path (PR 5). Two series:
//
//   BM_E17_InsertThroughput/batch_rows:B  — insert a fixed number of rows
//       into a fresh service holding a maintainable materialized view,
//       B tuples per INSERT statement. batch_rows:1 is the single-row
//       write path (one COW copy + one maintenance pass per row);
//       batch_rows:10000 is one statement. items = rows, so
//       items_per_second(batch) / items_per_second(single) is the batching
//       speedup (claimed >= 10x).
//   BM_E17_MaintainVsRecompute/base_rows:N/recompute:R — one 100-row INSERT
//       against a base table of N rows whose dependent view is either
//       incrementally maintainable (R=0, SUM/COUNT) or outside the
//       maintainer's dialect (R=1, AVG forces a full recompute). The gap
//       widening with N is the maintenance-vs-recompute crossover.
//
// This bench has its own main with workload flags on top of the standard
// google-benchmark ones:
//
//   --threads=1,2,4,8     worker counts to sweep (comma-separated)
//   --duration=SECONDS    min measuring time per series (benchmark MinTime)
//   --seed=N              telephony workload seed (default 42)
//   --cache_capacity=N    plan-cache capacity for the cache:1 service
//   --write_pct=0,20,50   write percentages for the write-mix sweep
//   --stripes=1,16        latch stripe counts for the write-mix sweep
//   --batch_rows=1,100,10000  tuples-per-statement sweep for E17
//   --chaos               arm failpoints for the whole sweep (E16)
//
// e.g. bench_e12_service --threads=4 --duration=2 --seed=7
//        --benchmark_format=json

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "base/failpoint.h"
#include "bench/bench_util.h"
#include "service/query_service.h"
#include "workload/telephony.h"

namespace aqv {
namespace {

constexpr int kNumCalls = 20000;

// Flag-controlled workload knobs (set in main before any benchmark runs;
// GetService builds lazily, so the flags are honored).
uint64_t g_workload_seed = 42;
size_t g_cache_capacity = 256;
std::vector<int> g_write_pcts = {0, 20, 50};
std::vector<int> g_stripe_counts = {1, 16};
// Number of per-thread private write targets (set to max worker count).
int g_mix_slots = 8;
// E17: tuples-per-INSERT-statement sweep; total rows per iteration is the
// largest entry, so the series are directly comparable (items = rows).
std::vector<int> g_batch_rows = {1, 100, 10000};
// E16: run the sweep with failpoints armed (see ArmChaos in main).
bool g_chaos = false;

// Under --chaos injected faults are expected: a kUnavailable result counts
// toward `*errors` and the iteration goes on. Anything else (or any error
// in a fault-free run) still aborts the series. Returns true to continue.
bool TolerateChaos(benchmark::State& state, const Status& s,
                   uint64_t* errors) {
  if (g_chaos && s.code() == StatusCode::kUnavailable) {
    ++*errors;
    return true;
  }
  state.SkipWithError(s.ToString().c_str());
  return false;
}

void ReportChaosErrors(benchmark::State& state, uint64_t errors) {
  if (!g_chaos) return;
  state.counters["chaos_error_rate"] = benchmark::Counter(
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(errors) / state.iterations(),
      benchmark::Counter::kAvgThreads);
}

// The Example 1.1 query in shell syntax (occurrence 1 = Calls,
// occurrence 2 = Calling_Plans), parameterized to make plans distinct.
std::string PlanEarningsQuery(int year, double threshold) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "SELECT Plan_Id_2, Plan_Name_2, SUM(Charge_1) AS Total "
                "FROM Calls, Calling_Plans "
                "WHERE Plan_Id_1 = Plan_Id_2 AND Year_1 = %d "
                "GROUPBY Plan_Id_2, Plan_Name_2 HAVING SUM(Charge_1) < %.1f",
                year, threshold);
  return buf;
}

std::string YearlyEarningsQuery(int year) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "SELECT Plan_Id_1, SUM(Charge_1) AS Yearly FROM Calls "
                "WHERE Year_1 = %d GROUPBY Plan_Id_1",
                year);
  return buf;
}

// A fixed pool of distinct statements: distinct canonical fingerprints, so
// the cache holds one plan per pool entry (all within capacity).
const std::vector<std::string>& QueryPool() {
  static const std::vector<std::string>* pool = [] {
    auto* p = new std::vector<std::string>();
    for (int year = 1994; year <= 1996; ++year) {
      for (double threshold : {200.0, 400.0, 800.0, 1e9}) {
        p->push_back(PlanEarningsQuery(year, threshold));
      }
      p->push_back(YearlyEarningsQuery(year));
    }
    return p;
  }();
  return *pool;
}

// One service per cache mode, shared across thread counts: a long-lived
// server process handling repeated traffic, exactly the amortization
// setting the cache targets.
QueryService* GetService(bool cache_enabled) {
  static QueryService* services[2] = {nullptr, nullptr};
  QueryService*& slot = services[cache_enabled ? 1 : 0];
  if (slot != nullptr) return slot;

  TelephonyParams params;
  params.num_calls = kNumCalls;
  params.seed = g_workload_seed;
  TelephonyWorkload w = MakeTelephonyWorkload(params);

  ServiceOptions options;
  options.plan_cache_capacity = cache_enabled ? g_cache_capacity : 0;
  auto* service = new QueryService(options);
  CheckOrDie(
      service->Bootstrap(std::move(w.catalog), std::move(w.db),
                         std::move(w.views)),
      "bootstrap service");
  CheckOrDie(service->Execute("REFRESH V1").status(), "materialize V1");
  // A second summary (yearly earnings straight off Calls): more candidate
  // rewritings per optimization — the realistic multi-view warehouse — and
  // the rewrite target for the YearlyEarnings pool entries.
  CheckOrDie(service
                 ->Execute("CREATE MATERIALIZED VIEW V2 AS "
                           "SELECT Plan_Id_1, Year_1, SUM(Charge_1) AS Yearly "
                           "FROM Calls GROUPBY Plan_Id_1, Year_1")
                 .status(),
             "materialize V2");
  slot = service;
  return slot;
}

// One service per stripe count for the E14 write-mix sweep. On top of the
// telephony warehouse, each worker slot t gets a small private table PT<t>
// and a materialized view PV<t> over it: REFRESH PV<t> is then a
// constant-cost write whose footprint (PV<t> exclusive, PT<t> shared) is
// disjoint from the pool SELECTs' footprints (Calls/Calling_Plans/V1/V2),
// modulo stripe-hash collisions. With stripes=1 every footprint lands on
// the single stripe — the pre-PR global latch — so writers serialize the
// whole service; with 16 stripes they only serialize against themselves.
QueryService* GetMixService(size_t stripes) {
  static std::mutex mu;
  static auto* services = new std::map<size_t, QueryService*>();
  std::lock_guard<std::mutex> lock(mu);
  auto it = services->find(stripes);
  if (it != services->end()) return it->second;

  TelephonyParams params;
  params.num_calls = kNumCalls;
  params.seed = g_workload_seed;
  TelephonyWorkload w = MakeTelephonyWorkload(params);

  ServiceOptions options;
  options.plan_cache_capacity = g_cache_capacity;
  options.latch_stripes = stripes;
  auto* service = new QueryService(options);
  CheckOrDie(
      service->Bootstrap(std::move(w.catalog), std::move(w.db),
                         std::move(w.views)),
      "bootstrap mix service");
  CheckOrDie(service->Execute("REFRESH V1").status(), "materialize V1");
  CheckOrDie(service
                 ->Execute("CREATE MATERIALIZED VIEW V2 AS "
                           "SELECT Plan_Id_1, Year_1, SUM(Charge_1) AS Yearly "
                           "FROM Calls GROUPBY Plan_Id_1, Year_1")
                 .status(),
             "materialize V2");
  for (int t = 0; t < g_mix_slots; ++t) {
    std::string pt = "PT" + std::to_string(t);
    std::string pv = "PV" + std::to_string(t);
    CheckOrDie(service->Execute("CREATE TABLE " + pt + "(K, V)").status(),
               "create private table");
    for (int row = 0; row < 8; ++row) {
      CheckOrDie(service
                     ->Execute("INSERT INTO " + pt + " VALUES (" +
                               std::to_string(row % 4) + ", " +
                               std::to_string(row) + ")")
                     .status(),
                 "seed private table");
    }
    CheckOrDie(service
                   ->Execute("CREATE MATERIALIZED VIEW " + pv +
                             " AS SELECT K_1, SUM(V_1) AS S FROM " + pt +
                             " GROUPBY K_1")
                   .status(),
               "create private view");
  }
  (*services)[stripes] = service;
  return service;
}

// E14: mixed read/write traffic. Each iteration flips a deterministic
// per-thread coin: with probability write_pct it REFRESHes the thread's
// private view (a write — exclusive stripe on PV<t>), otherwise it runs
// the next pool SELECT (shared stripes). items = statements served.
void BM_E12_ServiceWriteMix(benchmark::State& state) {
  const int write_pct = static_cast<int>(state.range(0));
  const size_t stripes = static_cast<size_t>(state.range(1));
  QueryService* service = GetMixService(stripes);
  const std::vector<std::string>& pool = QueryPool();

  const int slot = state.thread_index() % g_mix_slots;
  const std::string refresh = "REFRESH PV" + std::to_string(slot);
  size_t next = static_cast<size_t>(state.thread_index()) * 3;
  // Per-thread LCG: deterministic mix, no shared RNG state.
  uint64_t lcg = 0x9e3779b97f4a7c15ULL * (state.thread_index() + 1);
  uint64_t writes = 0;
  uint64_t chaos_errors = 0;
  for (auto _ : state) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const bool is_write = static_cast<int>((lcg >> 33) % 100) < write_pct;
    const std::string& q = is_write ? refresh : pool[next++ % pool.size()];
    Result<StatementResult> r = service->Execute(q);
    if (!r.ok()) {
      if (!TolerateChaos(state, r.status(), &chaos_errors)) return;
      continue;
    }
    if (is_write) ++writes;
    benchmark::DoNotOptimize(r->message);
  }
  state.SetItemsProcessed(state.iterations());
  ReportChaosErrors(state, chaos_errors);
  state.counters["write_frac"] = benchmark::Counter(
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(writes) / state.iterations(),
      benchmark::Counter::kAvgThreads);
}

void BM_E12_Service(benchmark::State& state) {
  const bool cache_enabled = state.range(0) != 0;
  QueryService* service = GetService(cache_enabled);
  const std::vector<std::string>& pool = QueryPool();

  // Stagger threads across the pool so they contend on different entries.
  size_t next = static_cast<size_t>(state.thread_index()) * 3;
  uint64_t chaos_errors = 0;
  for (auto _ : state) {
    const std::string& q = pool[next++ % pool.size()];
    Result<StatementResult> r = service->Execute(q);
    if (!r.ok()) {
      if (!TolerateChaos(state, r.status(), &chaos_errors)) return;
      continue;
    }
    benchmark::DoNotOptimize(r->table);
  }
  state.SetItemsProcessed(state.iterations());
  ReportChaosErrors(state, chaos_errors);

  ServiceStats stats = service->Stats();
  uint64_t lookups = stats.plan_cache_hits + stats.plan_cache_misses;
  state.counters["cache_hit_rate"] = benchmark::Counter(
      lookups == 0 ? 0.0
                   : static_cast<double>(stats.plan_cache_hits) / lookups,
      benchmark::Counter::kAvgThreads);
  state.counters["optimize_p50_us"] =
      benchmark::Counter(stats.optimize_p50_micros,
                         benchmark::Counter::kAvgThreads);
  state.counters["exec_p50_us"] = benchmark::Counter(
      stats.exec_p50_micros, benchmark::Counter::kAvgThreads);
}

// Closed-loop load generator: each worker models one client connection that
// waits kThinkMicros between statements (network round-trip + client work),
// the standard YCSB-style closed system. Aggregate throughput rising with
// workers demonstrates the service sustains concurrent in-flight requests:
// worker count is the concurrency knob a serving deployment actually turns,
// and on multi-core hardware the reader path additionally scales past one
// core's worth of service time through the shared latch.
void BM_E12_ServiceClosedLoop(benchmark::State& state) {
  constexpr int kThinkMicros = 200;
  QueryService* service = GetService(/*cache_enabled=*/true);
  const std::vector<std::string>& pool = QueryPool();

  size_t next = static_cast<size_t>(state.thread_index()) * 3;
  uint64_t chaos_errors = 0;
  for (auto _ : state) {
    std::this_thread::sleep_for(std::chrono::microseconds(kThinkMicros));
    const std::string& q = pool[next++ % pool.size()];
    Result<StatementResult> r = service->Execute(q);
    if (!r.ok()) {
      if (!TolerateChaos(state, r.status(), &chaos_errors)) return;
      continue;
    }
    benchmark::DoNotOptimize(r->table);
  }
  state.SetItemsProcessed(state.iterations());
  ReportChaosErrors(state, chaos_errors);
}

// Planning-path microscope: the exact cost a warm hit saves per statement
// (single-threaded, no execution variance): optimizer entry vs cache hit.
void BM_E12_ColdPlanVsWarmPlan(benchmark::State& state) {
  const bool cache_enabled = state.range(0) != 0;
  QueryService* service = GetService(cache_enabled);
  const std::string q = PlanEarningsQuery(1995, 1e9);
  uint64_t chaos_errors = 0;
  for (auto _ : state) {
    Result<StatementResult> r = service->Execute("EXPLAIN " + q);
    if (!r.ok()) {
      if (!TolerateChaos(state, r.status(), &chaos_errors)) return;
      continue;
    }
    benchmark::DoNotOptimize(r->message);
  }
  state.SetItemsProcessed(state.iterations());
  ReportChaosErrors(state, chaos_errors);
}

// E17: batched-insert throughput through the maintained write path. Each
// iteration builds a FRESH service (paused timing) with a maintainable
// SUM/COUNT view over the target table, then inserts the same total row
// count as batch_rows-tuple statements. Single-row pays one COW publication
// and one maintenance pass per row — O(table) copies each time — while a
// batch pays them once per statement.
void BM_E17_InsertThroughput(benchmark::State& state) {
  const int batch_rows = static_cast<int>(state.range(0));
  const int total_rows =
      *std::max_element(g_batch_rows.begin(), g_batch_rows.end());
  uint64_t chaos_errors = 0;
  for (auto _ : state) {
    state.PauseTiming();
    QueryService service;
    CheckOrDie(service.Execute("CREATE TABLE E17(A, B)").status(),
               "create E17");
    CheckOrDie(service
                   .Execute("CREATE MATERIALIZED VIEW E17V AS SELECT A_1, "
                            "SUM(B_1) AS S, COUNT(B_1) AS N FROM E17 "
                            "GROUPBY A_1")
                   .status(),
               "create E17V");
    // Pre-render the statements: timing covers the service, not snprintf.
    std::vector<std::string> stmts;
    for (int done = 0; done < total_rows;) {
      int n = std::min(batch_rows, total_rows - done);
      std::string sql = "INSERT INTO E17 VALUES ";
      for (int r = 0; r < n; ++r) {
        if (r > 0) sql += ", ";
        sql += "(" + std::to_string((done + r) % 16) + ", " +
               std::to_string(done + r) + ")";
      }
      done += n;
      stmts.push_back(std::move(sql));
    }
    state.ResumeTiming();
    for (const std::string& sql : stmts) {
      Result<StatementResult> r = service.Execute(sql);
      if (!r.ok()) {
        if (!TolerateChaos(state, r.status(), &chaos_errors)) return;
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * total_rows);
  ReportChaosErrors(state, chaos_errors);
}

// E17: incremental maintenance vs forced full recompute, as the base table
// grows. Maintenance work scales with the delta; recompute scales with the
// base, so the per-statement gap is the crossover argument for the
// maintainer's dialect. Fixed iteration count: each iteration grows the
// table by only 100 rows, so the base size stays ~N for the whole series.
void BM_E17_MaintainVsRecompute(benchmark::State& state) {
  const int base_rows = static_cast<int>(state.range(0));
  const bool recompute = state.range(1) != 0;
  constexpr int kDeltaRows = 100;

  QueryService service;
  CheckOrDie(service.Execute("CREATE TABLE M(A, B)").status(), "create M");
  {
    // Seed the base in big batches (not timed).
    for (int done = 0; done < base_rows;) {
      int n = std::min(1000, base_rows - done);
      std::string sql = "INSERT INTO M VALUES ";
      for (int r = 0; r < n; ++r) {
        if (r > 0) sql += ", ";
        sql += "(" + std::to_string((done + r) % 16) + ", " +
               std::to_string(done + r) + ")";
      }
      done += n;
      CheckOrDie(service.Execute(sql).status(), "seed M");
    }
  }
  // SUM/COUNT is inside the incremental dialect; AVG forces the write path
  // onto the full-recompute fallback.
  CheckOrDie(service
                 .Execute(recompute
                              ? "CREATE MATERIALIZED VIEW MV AS SELECT A_1, "
                                "AVG(B_1) AS X FROM M GROUPBY A_1"
                              : "CREATE MATERIALIZED VIEW MV AS SELECT A_1, "
                                "SUM(B_1) AS X, COUNT(B_1) AS N FROM M "
                                "GROUPBY A_1")
                 .status(),
             "create MV");

  std::string delta = "INSERT INTO M VALUES ";
  for (int r = 0; r < kDeltaRows; ++r) {
    if (r > 0) delta += ", ";
    delta += "(" + std::to_string(r % 16) + ", " + std::to_string(r) + ")";
  }
  uint64_t chaos_errors = 0;
  for (auto _ : state) {
    Result<StatementResult> r = service.Execute(delta);
    if (!r.ok()) {
      if (!TolerateChaos(state, r.status(), &chaos_errors)) return;
    }
  }
  state.SetItemsProcessed(state.iterations() * kDeltaRows);
  ReportChaosErrors(state, chaos_errors);
  ServiceStats stats = service.Stats();
  state.counters["maintain_p50_us"] = benchmark::Counter(
      stats.maintain_p50_micros, benchmark::Counter::kAvgThreads);
  state.counters["views_recomputed"] = benchmark::Counter(
      static_cast<double>(stats.views_recomputed),
      benchmark::Counter::kAvgThreads);
}

// E16: the cost of one *disabled* failpoint site — the price every wired
// call path pays in a production (no-chaos) process. The helper is a real
// Status-returning function so the measured code is exactly what a wired
// site compiles to. In a fault-free run nothing is armed and this times
// the one-relaxed-load fast path; under --chaos the registry has other
// sites armed, so it times the armed-elsewhere map probe instead.
Status DisabledFailpointSite() {
  AQV_FAILPOINT("bench.e16.never_armed");
  return Status::OK();
}

void BM_E16_DisabledFailpointCheck(benchmark::State& state) {
  for (auto _ : state) {
    Status s = DisabledFailpointSite();
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations());
}

// E16: arm the chaos schedule across the wired sites. Error rates are kept
// low enough that cached plans survive most of the time (the point is
// sustained throughput under faults, not a wall of errors); the COW-copy
// site only fires on the write-mix series. Reseeded from the workload seed
// so a chaos sweep replays exactly.
void ArmChaos() {
  FailpointRegistry& reg = FailpointRegistry::Global();
  CheckOrDie(reg.Set("parse", "delay(20,10)"), "arm parse");
  CheckOrDie(reg.Set("plan_cache.lookup", "error(5)"), "arm lookup");
  CheckOrDie(reg.Set("plan_cache.insert", "error(5)"), "arm insert");
  CheckOrDie(reg.Set("exec.operator", "error(2)"), "arm exec");
  CheckOrDie(reg.Set("table.cow_copy", "error(5)"), "arm cow");
  CheckOrDie(reg.Set("maintain.apply", "error(5)"), "arm maintain");
  reg.Reseed(g_workload_seed);
}

// ---- Flag parsing + registration (custom main). ----

// Comma-separated non-negative integer list, e.g. "1,2,4,8".
std::vector<int> ParseIntList(const char* flag, const char* value) {
  std::vector<int> out;
  const char* p = value;
  while (*p != '\0') {
    char* end = nullptr;
    long t = std::strtol(p, &end, 10);
    if (end == p || t < 0) {
      std::fprintf(stderr, "bad %s list: %s\n", flag, value);
      std::exit(1);
    }
    out.push_back(static_cast<int>(t));
    p = (*end == ',') ? end + 1 : end;
  }
  if (out.empty()) {
    std::fprintf(stderr, "empty %s list\n", flag);
    std::exit(1);
  }
  return out;
}

void RegisterAll(const std::vector<int>& threads, double duration_seconds) {
  auto configure = [&](benchmark::internal::Benchmark* b) {
    for (int t : threads) b->Threads(t);
    if (duration_seconds > 0) b->MinTime(duration_seconds);
    b->UseRealTime()->Unit(benchmark::kMicrosecond);
  };
  configure(benchmark::RegisterBenchmark("BM_E12_Service", BM_E12_Service)
                ->ArgName("cache")
                ->Arg(0)
                ->Arg(1));
  configure(benchmark::RegisterBenchmark("BM_E12_ServiceClosedLoop",
                                         BM_E12_ServiceClosedLoop));
  auto* plan = benchmark::RegisterBenchmark("BM_E12_ColdPlanVsWarmPlan",
                                            BM_E12_ColdPlanVsWarmPlan)
                   ->ArgName("cache")
                   ->Arg(0)
                   ->Arg(1)
                   ->Unit(benchmark::kMicrosecond);
  if (duration_seconds > 0) plan->MinTime(duration_seconds);

  auto* mix = benchmark::RegisterBenchmark("BM_E12_ServiceWriteMix",
                                           BM_E12_ServiceWriteMix)
                  ->ArgNames({"write_pct", "stripes"});
  for (int s : g_stripe_counts) {
    for (int w : g_write_pcts) mix->Args({w, s});
  }
  configure(mix);

  auto* insert = benchmark::RegisterBenchmark("BM_E17_InsertThroughput",
                                              BM_E17_InsertThroughput)
                     ->ArgName("batch_rows")
                     ->Unit(benchmark::kMillisecond)
                     ->UseRealTime();
  for (int b : g_batch_rows) insert->Arg(b);

  auto* crossover = benchmark::RegisterBenchmark("BM_E17_MaintainVsRecompute",
                                                 BM_E17_MaintainVsRecompute)
                        ->ArgNames({"base_rows", "recompute"})
                        ->Unit(benchmark::kMicrosecond)
                        ->UseRealTime()
                        ->Iterations(50);
  for (int base : {1000, 8000, 64000}) {
    crossover->Args({base, 0})->Args({base, 1});
  }

  benchmark::RegisterBenchmark("BM_E16_DisabledFailpointCheck",
                               BM_E16_DisabledFailpointCheck)
      ->Unit(benchmark::kNanosecond);
}

}  // namespace
}  // namespace aqv

int main(int argc, char** argv) {
  std::vector<int> threads = {1, 2, 4, 8};
  double duration_seconds = 0;

  // Pull out our workload flags; everything else stays for benchmark's own
  // parser (--benchmark_format=json etc.).
  std::vector<char*> remaining;
  remaining.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (const char* v = aqv::FlagValue(argv[i], "--threads")) {
      threads = aqv::ParseIntList("--threads", v);
    } else if (const char* v = aqv::FlagValue(argv[i], "--duration")) {
      duration_seconds = std::atof(v);
    } else if (const char* v = aqv::FlagValue(argv[i], "--seed")) {
      aqv::g_workload_seed = static_cast<uint64_t>(std::strtoull(v, nullptr, 10));
    } else if (const char* v = aqv::FlagValue(argv[i], "--cache_capacity")) {
      aqv::g_cache_capacity = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (const char* v = aqv::FlagValue(argv[i], "--write_pct")) {
      aqv::g_write_pcts = aqv::ParseIntList("--write_pct", v);
    } else if (const char* v = aqv::FlagValue(argv[i], "--stripes")) {
      aqv::g_stripe_counts = aqv::ParseIntList("--stripes", v);
    } else if (const char* v = aqv::FlagValue(argv[i], "--batch_rows")) {
      aqv::g_batch_rows = aqv::ParseIntList("--batch_rows", v);
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      aqv::g_chaos = true;
    } else {
      remaining.push_back(argv[i]);
    }
  }
  int remaining_argc = static_cast<int>(remaining.size());
  for (int t : threads) {
    if (t > aqv::g_mix_slots) aqv::g_mix_slots = t;
  }

  aqv::RegisterAll(threads, duration_seconds);
  if (aqv::g_chaos) {
    // Bootstrap every service before any failpoint is armed — setup DDL
    // must not face injected faults (CheckOrDie would abort) — then arm
    // the chaos schedule for the whole measured sweep.
    aqv::GetService(false);
    aqv::GetService(true);
    for (int s : aqv::g_stripe_counts) {
      aqv::GetMixService(static_cast<size_t>(s));
    }
    aqv::ArmChaos();
  }
  benchmark::Initialize(&remaining_argc, remaining.data());
  if (benchmark::ReportUnrecognizedArguments(remaining_argc,
                                             remaining.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
