// Experiment E19 — what does observability cost, and does attribution add
// up? (PR 7). Two questions, one self-timed A/B harness (no
// google-benchmark: the binary is also the CI gate, so it owns its exit
// code and its JSON artifact):
//
//   1. Sampler overhead. The telemetry recorder's background thread
//      snapshots every registered metric each interval. Rounds of the E12
//      telephony SELECT pool run against ONE warm service, alternating
//      sampler-off / sampler-on (Stop()/Start() on the service's own
//      recorder), so cache state, data, and allocator heat are identical
//      across arms. overhead_pct compares the two median throughputs; the
//      claim (EXPERIMENTS.md E19) is < 2% at a 5 ms interval — far tighter
//      than the 250 ms production default in aqvsh.
//
//   2. Attribution accuracy. Per-statement cost attribution (QueryStats)
//      is always on; the check is that the disjoint phase times it reports
//      cover the measured statement wall clock. EXPLAIN ANALYZE over a
//      full-scan aggregation is parsed for "wall=" / "phases=" and the
//      coverage ratio is reported (min / mean over the samples).
//
// Flags:
//   --rounds=N             A/B round pairs after the warmup pair (default 5)
//   --statements=N         pool statements per round (default 2000)
//   --interval=MICROS      sampler interval for the on-arm (default 5000)
//   --calls=N              telephony warehouse size (default 20000)
//   --seed=N               workload seed (default 42)
//   --analyze_samples=N    EXPLAIN ANALYZE accuracy samples (default 20)
//   --json=PATH            write the JSON artifact here (default
//                          e19_observability.json in the cwd)
//   --max-overhead-pct=X   exit 1 if sampler overhead exceeds X percent
//                          (default: report only, never fail)
//
// e.g. build/bench/bench_e19_observability --max-overhead-pct=10
//          --json=bench/e19_observability.json

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "service/query_service.h"
#include "workload/telephony.h"

namespace aqv {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The E12 statement pool: distinct canonical fingerprints over the
// telephony warehouse, all rewritable against the V1/V2 summaries.
std::vector<std::string> QueryPool() {
  std::vector<std::string> pool;
  char buf[256];
  for (int year = 1994; year <= 1996; ++year) {
    for (double threshold : {200.0, 400.0, 800.0, 1e9}) {
      std::snprintf(buf, sizeof(buf),
                    "SELECT Plan_Id_2, Plan_Name_2, SUM(Charge_1) AS Total "
                    "FROM Calls, Calling_Plans "
                    "WHERE Plan_Id_1 = Plan_Id_2 AND Year_1 = %d "
                    "GROUPBY Plan_Id_2, Plan_Name_2 "
                    "HAVING SUM(Charge_1) < %.1f",
                    year, threshold);
      pool.push_back(buf);
    }
    std::snprintf(buf, sizeof(buf),
                  "SELECT Plan_Id_1, SUM(Charge_1) AS Yearly FROM Calls "
                  "WHERE Year_1 = %d GROUPBY Plan_Id_1",
                  year);
    pool.push_back(buf);
  }
  return pool;
}

// First unsigned integer after `token`, or 0 if absent.
uint64_t NumberAfter(const std::string& text, const char* token) {
  size_t pos = text.find(token);
  if (pos == std::string::npos) return 0;
  return std::strtoull(text.c_str() + pos + std::strlen(token), nullptr, 10);
}

std::string JsonList(const std::vector<double>& v) {
  std::string out = "[";
  char buf[32];
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    std::snprintf(buf, sizeof(buf), "%.1f", v[i]);
    out += buf;
  }
  return out + "]";
}

}  // namespace
}  // namespace aqv

int main(int argc, char** argv) {
  using aqv::Clock;
  int rounds = 5;
  int statements = 2000;
  uint64_t interval_micros = 5000;
  int num_calls = 20000;
  uint64_t seed = 42;
  int analyze_samples = 20;
  std::string json_path = "e19_observability.json";
  double max_overhead_pct = -1.0;  // report only

  for (int i = 1; i < argc; ++i) {
    if (const char* v = aqv::FlagValue(argv[i], "--rounds")) {
      rounds = std::atoi(v);
    } else if (const char* v = aqv::FlagValue(argv[i], "--statements")) {
      statements = std::atoi(v);
    } else if (const char* v = aqv::FlagValue(argv[i], "--interval")) {
      interval_micros = std::strtoull(v, nullptr, 10);
    } else if (const char* v = aqv::FlagValue(argv[i], "--calls")) {
      num_calls = std::atoi(v);
    } else if (const char* v = aqv::FlagValue(argv[i], "--seed")) {
      seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = aqv::FlagValue(argv[i], "--analyze_samples")) {
      analyze_samples = std::atoi(v);
    } else if (const char* v = aqv::FlagValue(argv[i], "--json")) {
      json_path = v;
    } else if (const char* v = aqv::FlagValue(argv[i], "--max-overhead-pct")) {
      max_overhead_pct = std::atof(v);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (rounds < 1 || statements < 1 || interval_micros == 0) {
    std::fprintf(stderr, "need --rounds>=1, --statements>=1, --interval>0\n");
    return 2;
  }

  // One warm service for both arms: the sampler is the only difference.
  aqv::TelephonyParams params;
  params.num_calls = num_calls;
  params.seed = seed;
  aqv::TelephonyWorkload w = aqv::MakeTelephonyWorkload(params);
  aqv::ServiceOptions options;
  options.telemetry_interval_micros = interval_micros;
  options.telemetry_history_capacity = 1024;
  aqv::QueryService service(options);
  service.telemetry().Stop();  // arms toggle it explicitly below
  aqv::CheckOrDie(service.Bootstrap(std::move(w.catalog), std::move(w.db),
                                    std::move(w.views)),
                  "bootstrap service");
  aqv::CheckOrDie(service.Execute("REFRESH V1").status(), "materialize V1");
  aqv::CheckOrDie(service
                      .Execute("CREATE MATERIALIZED VIEW V2 AS "
                               "SELECT Plan_Id_1, Year_1, SUM(Charge_1) AS "
                               "Yearly FROM Calls GROUPBY Plan_Id_1, Year_1")
                      .status(),
                  "materialize V2");
  const std::vector<std::string> pool = aqv::QueryPool();

  // Alternating off/on rounds; the first pair is warmup (plan-cache misses
  // and allocator growth land there) and is discarded.
  auto run_round = [&](size_t phase_offset) {
    Clock::time_point start = Clock::now();
    for (int i = 0; i < statements; ++i) {
      const std::string& q = pool[(phase_offset + i) % pool.size()];
      aqv::Result<aqv::StatementResult> r = service.Execute(q);
      aqv::CheckOrDie(r.status(), "pool statement");
    }
    double secs = aqv::SecondsSince(start);
    return secs > 0 ? statements / secs : 0.0;
  };
  std::vector<double> off_throughput;
  std::vector<double> on_throughput;
  for (int pair = 0; pair < rounds + 1; ++pair) {
    service.telemetry().Stop();
    double off = run_round(pair);
    service.telemetry().Start();
    double on = run_round(pair);
    if (pair == 0) continue;  // warmup pair
    off_throughput.push_back(off);
    on_throughput.push_back(on);
    std::fprintf(stderr, "round %d: off=%.0f stmts/s on=%.0f stmts/s\n",
                 pair, off, on);
  }
  service.telemetry().Stop();
  double off_median = aqv::Median(off_throughput);
  double on_median = aqv::Median(on_throughput);
  double overhead_pct =
      off_median > 0 ? 100.0 * (off_median - on_median) / off_median : 0.0;
  uint64_t windows = service.telemetry().windows_sampled();
  uint64_t dropped = service.telemetry().windows_dropped();

  // Attribution accuracy: phase coverage of the measured wall clock on a
  // full-scan aggregation (exec-dominated, so untimed dispatch is noise).
  double coverage_sum = 0.0;
  double coverage_min = 100.0;
  int coverage_n = 0;
  for (int i = 0; i < analyze_samples; ++i) {
    // Grouped by Cust_Id, which no summary view covers: the chosen plan
    // must scan all of Calls, keeping exec well above the render glue.
    aqv::Result<aqv::StatementResult> r = service.Execute(
        "EXPLAIN ANALYZE SELECT Cust_Id_1, SUM(Charge_1) AS Total "
        "FROM Calls GROUPBY Cust_Id_1");
    aqv::CheckOrDie(r.status(), "explain analyze");
    size_t at = r->message.find("attribution:");
    if (at == std::string::npos) continue;
    std::string tail = r->message.substr(at);
    uint64_t wall = aqv::NumberAfter(tail, "wall=");
    uint64_t phases = aqv::NumberAfter(tail, "phases=");
    if (wall == 0) continue;
    double pct = 100.0 * static_cast<double>(phases) / wall;
    coverage_sum += pct;
    coverage_min = std::min(coverage_min, pct);
    ++coverage_n;
  }
  double coverage_mean = coverage_n > 0 ? coverage_sum / coverage_n : 0.0;

  bool pass = max_overhead_pct < 0 || overhead_pct <= max_overhead_pct;
  char json[2048];
  std::snprintf(
      json, sizeof(json),
      "{\n"
      "  \"experiment\": \"E19\",\n"
      "  \"workload\": {\"calls\": %d, \"seed\": %llu, \"pool\": %zu,\n"
      "                \"rounds\": %d, \"statements_per_round\": %d},\n"
      "  \"sampler\": {\"interval_micros\": %llu, \"windows_sampled\": %llu,\n"
      "               \"windows_dropped\": %llu},\n"
      "  \"throughput_stmts_per_sec\": {\n"
      "    \"sampler_off\": %s,\n"
      "    \"sampler_on\": %s,\n"
      "    \"off_median\": %.1f,\n"
      "    \"on_median\": %.1f\n"
      "  },\n"
      "  \"sampler_overhead_pct\": %.2f,\n"
      "  \"attribution\": {\"samples\": %d,\n"
      "                   \"phase_coverage_mean_pct\": %.1f,\n"
      "                   \"phase_coverage_min_pct\": %.1f},\n"
      "  \"max_overhead_pct\": %.1f,\n"
      "  \"pass\": %s\n"
      "}\n",
      num_calls, static_cast<unsigned long long>(seed), pool.size(), rounds,
      statements, static_cast<unsigned long long>(interval_micros),
      static_cast<unsigned long long>(windows),
      static_cast<unsigned long long>(dropped),
      aqv::JsonList(off_throughput).c_str(),
      aqv::JsonList(on_throughput).c_str(), off_median, on_median,
      overhead_pct, coverage_n, coverage_mean,
      coverage_n > 0 ? coverage_min : 0.0, max_overhead_pct,
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
                 "FAIL: sampler overhead %.2f%% exceeds --max-overhead-pct "
                 "%.1f%%\n",
                 overhead_pct, max_overhead_pct);
    return 1;
  }
  return 0;
}
