// Fixed-work benchmark over QueryService.
//
// Each workload is a fixed *round*: a list of operations generated once from
// the seed and replayed until the measuring window closes. An operation is a
// SELECT, one DML statement, or a whole BEGIN WRITE..COMMIT or
// BEGIN SNAPSHOT..COMMIT transaction. Every round leaves the database exactly
// as it found it (rows it inserts it also deletes), so all rounds do the same
// work and their times are comparable. One client runs the round in a closed
// loop, sending its next operation when the last one returns. Every workload
// runs on durable storage over the Example 1.1 telephony warehouse (Calls,
// Calling_Plans, Customer); the traffic follows the scenario list of the
// ROADMAP's north star (rewritten and base reads, cache-hit reads, snapshot
// reads, single-row and batched DML with view maintenance, durable commit,
// recovery). Table sizes, batch sizes and mixes are chosen, not taken from a
// trace:
//
//   warehouse_read  20k calls. Per year, Example 1.1's query and a yearly
//                   total (answered from the summary views V1/V2) and two
//                   reads no view answers (base scans); the set runs twice
//                   per state, so the first run after a write plans and the
//                   second hits the plan cache. A snapshot read and one
//                   50-row trickle load plus its removal per round. WAL fsync
//                   on.
//   dml_churn_20k,  single-row INSERT/UPDATE/DELETE on 20k or 200k calls
//   dml_churn_200k  with two maintained views (SUM+COUNT folds
//                   incrementally; one delete per round removes a group's
//                   MAX and forces a recompute), checked by reads. WAL
//                   written, not fsynced. The two sizes show whether a write
//                   costs its delta or its table.
//   durable_commit  20k calls, small BEGIN WRITE..COMMIT transactions on new
//                   customers (each signs up, makes calls, later leaves),
//                   every commit fsynced to the WAL; one maintained view.
//
// One client, not several: on a machine of a few shared cores, latch waits
// between concurrent clients amplified the machine's noise until the same
// code's latencies moved by a third between runs.
//
// End-to-end metrics: the round time (the sum of each op's median latency);
// the typical latency of reads answered from a view, of reads no view
// answers, and of writes (each the mean, over the round's ops of that kind,
// of each op's median latency); and the median set-up time. Every latency is
// the median of one op of the round first and only then averaged: a round
// mixes ops whose latencies differ tenfold, and a quantile taken over the
// pooled mix lands on the boundary between two of them, where it jumps
// between runs. No tail percentile is reported: on a machine of a few shared
// cores and a shared disk, each op's p75, p90 and p95 moved by 15-45%
// between runs of the same code, past any bound a regression check could
// use.
// Set-up time and restart (recovery) time are sampled by probes spread over
// the measuring window: each sets up a second database (several times, for
// the set-up median), applies the round's write prefix, and reopens it from
// its files.
//
// Layer metrics (--trace 1; times per round, split from the service's
// per-statement QueryStats) and the end-to-end metric each should move:
//   optimize_us, plan_cache_hit_rate, rewrite_rate: view_read_us on
//     warehouse_read;
//   exec_us (scans; for writes, predicate evaluation and copy-on-write):
//     base_read_us everywhere, write_us and round_ms on dml_churn_*;
//   maintain_us, views_maintained/recomputed_per_round: write_us on
//     dml_churn_*;
//   wal_commit_us, wal_bytes_per_round, wal_fsyncs_per_round: write_us on
//     durable_commit;
//   other_us (dispatch, latching, result building): every metric;
//   parse_us: every metric, by a small share.
//
// Correctness: a reference service with no views (so nothing is rewritten)
// runs the warm-up round; every checked SELECT of every timed round must
// return that reference's multiset. Every probe restart must bring back
// every table and view as acknowledged.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 --dir DIR
// (DIR holds the database files; the program creates and removes it).
// The last line of stdout is one JSON object. With --trace 0 it carries the
// end-to-end metrics; with --trace 1 the service records every statement's
// phase split (QueryStats via the slow log) and the per-layer metrics are
// reported instead.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <pthread.h>
#include <sched.h>
#include <random>
#include <string>
#include <vector>

#include "exec/table.h"
#include "service/query_service.h"
#include "workload/telephony.h"

namespace aqv {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int i = 0; i < CPU_SETSIZE; ++i) {
      if (CPU_ISSET(i, &set)) cpus.push_back(i);
    }
  }
  return cpus;
}

// Moves the calling thread to `cpu`.
void RunOn(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : Sum(v) / static_cast<double>(v.size());
}

// One statement of an operation; `check` marks a SELECT whose rows are
// compared against the reference answer.
struct Statement {
  std::string sql;
  bool check = false;
};

// What an operation is timed as.
enum class Kind { kViewRead, kBaseRead, kWrite };

// The unit of latency: a SELECT, a DML statement, or a transaction.
struct Op {
  std::vector<Statement> stmts;
  Kind kind;
};

struct Workload {
  TelephonyParams params;
  bool fsync = true;
  std::vector<std::string> views;  // CREATE MATERIALIZED VIEW statements
  std::vector<Op> round;
  // Ops of the round replayed before the restart check: everything up to
  // the point where the round's rows are in the tables.
  size_t prefix = 0;
};

// A checked SELECT that a view should answer, or that none can.
Op ViewRead(std::string sql) {
  return Op{{Statement{std::move(sql), true}}, Kind::kViewRead};
}
Op BaseRead(std::string sql) {
  return Op{{Statement{std::move(sql), true}}, Kind::kBaseRead};
}

// One DML statement.
Op Write(std::string sql) {
  return Op{{Statement{std::move(sql), false}}, Kind::kWrite};
}

std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

// Example 1.1's query: plans that earned less than `threshold` in `year`.
std::string PlanEarnings(int year, double threshold) {
  return Fmt("SELECT Plan_Id_2, Plan_Name_2, SUM(Charge_1) AS Total "
             "FROM Calls, Calling_Plans "
             "WHERE Plan_Id_1 = Plan_Id_2 AND Year_1 = %d "
             "GROUPBY Plan_Id_2, Plan_Name_2 HAVING SUM(Charge_1) < %.2f",
             year, threshold);
}

std::string YearlyEarnings(int year) {
  return Fmt("SELECT Plan_Id_1, SUM(Charge_1) AS Yearly FROM Calls "
             "WHERE Year_1 = %d GROUPBY Plan_Id_1",
             year);
}

std::string PlanMaxCharge() {
  return "SELECT Plan_Id_1, MAX(Charge_1) AS Top FROM Calls GROUPBY Plan_Id_1";
}

// No view keeps months without plans: a base scan.
std::string MonthlyCalls(int year) {
  return Fmt("SELECT Month_1, COUNT(Call_Id_1) AS Calls FROM Calls "
             "WHERE Year_1 = %d GROUPBY Month_1",
             year);
}

// A row of Calls with the generator's value ranges; `cust` < 0 draws one.
std::string CallTuple(std::mt19937_64& rng, const TelephonyParams& p,
                      int64_t call_id, double charge, int cust = -1) {
  // Drawn one statement at a time: argument evaluation order is unspecified.
  if (cust < 0) cust = static_cast<int>(rng() % p.num_customers);
  int plan = static_cast<int>(rng() % p.num_plans);
  int day = static_cast<int>(1 + rng() % 28);
  int month = static_cast<int>(1 + rng() % 12);
  int year = p.first_year + static_cast<int>(rng() % p.num_years);
  return Fmt("(%" PRId64 ", %d, %d, %d, %d, %d, %.2f)", call_id, cust, plan,
             day, month, year, charge);
}

double Charge(std::mt19937_64& rng, double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(rng);
}

constexpr char kYearlyView[] =
    "CREATE MATERIALIZED VIEW V2 AS SELECT Plan_Id_1, Year_1, "
    "SUM(Charge_1) AS Yearly, COUNT(Call_Id_1) AS N FROM Calls "
    "GROUPBY Plan_Id_1, Year_1";

Workload WarehouseRead(uint64_t seed) {
  Workload w;
  w.params.num_calls = 20000;
  w.params.seed = seed;
  // V1 is the paper's monthly summary plus a COUNT, which lets the write
  // path fold deletes into it instead of recomputing.
  w.views = {
      "CREATE MATERIALIZED VIEW V1 AS SELECT Plan_Id_1, Plan_Name_2, Month_1, "
      "Year_1, SUM(Charge_1) AS Monthly_Earnings, COUNT(Call_Id_1) AS N "
      "FROM Calls, Calling_Plans WHERE Plan_Id_1 = Plan_Id_2 "
      "GROUPBY Plan_Id_1, Plan_Name_2, Month_1, Year_1",
      kYearlyView};
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  const TelephonyParams& p = w.params;
  // Mean yearly earnings of one plan; thresholds straddle it so HAVING
  // keeps some groups and drops others.
  double per_plan_year = p.num_calls / double(p.num_plans * p.num_years) *
                         (0.05 + p.max_charge) / 2;
  std::vector<Op> pool;
  for (int year = p.first_year; year < p.first_year + p.num_years; ++year) {
    pool.push_back(
        ViewRead(PlanEarnings(year, per_plan_year * Charge(rng, 0.98, 1.02))));
    pool.push_back(ViewRead(YearlyEarnings(year)));
    pool.push_back(BaseRead(MonthlyCalls(year)));
    pool.push_back(BaseRead(
        Fmt("SELECT Cust_Id_1, SUM(Charge_1) AS Spend FROM Calls "
            "WHERE Year_1 = %d AND Month_1 = %d GROUPBY Cust_Id_1",
            year, static_cast<int>(1 + rng() % 12))));
  }
  std::vector<Op>& round = w.round;
  auto reads = [&] {
    std::vector<Op> twice = pool;
    twice.insert(twice.end(), pool.begin(), pool.end());
    std::shuffle(twice.begin(), twice.end(), rng);
    round.insert(round.end(), twice.begin(), twice.end());
  };
  const int64_t first_new = p.num_calls;
  std::string load = "INSERT INTO Calls VALUES ";
  for (int i = 0; i < 50; ++i) {
    if (i > 0) load += ", ";
    load += CallTuple(rng, p, first_new + i, Charge(rng, 0.05, p.max_charge));
  }
  reads();
  round.push_back(Write(load));
  w.prefix = round.size();
  reads();
  int year = p.first_year + 1;
  round.push_back(Op{{{"BEGIN SNAPSHOT", false},
                      {PlanEarnings(year, per_plan_year), true},
                      {YearlyEarnings(year), true},
                      {"COMMIT", false}},
                     Kind::kViewRead});
  round.push_back(
      Write(Fmt("DELETE FROM Calls WHERE Call_Id >= %" PRId64, first_new)));
  return w;
}

Workload DmlChurn(uint64_t seed, int num_calls) {
  Workload w;
  w.params.num_calls = num_calls;
  w.params.seed = seed;
  w.fsync = false;
  w.views = {kYearlyView,
             "CREATE MATERIALIZED VIEW VM AS SELECT Plan_Id_1, "
             "MAX(Charge_1) AS Top, COUNT(Call_Id_1) AS N FROM Calls "
             "GROUPBY Plan_Id_1"};
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 2);
  const TelephonyParams& p = w.params;
  const int64_t first_new = p.num_calls;
  const int kRows = 8;
  int check_year = p.first_year + static_cast<int>(rng() % p.num_years);
  std::vector<Op>& round = w.round;
  auto checks = [&] {
    round.push_back(ViewRead(YearlyEarnings(check_year)));
    round.push_back(ViewRead(PlanMaxCharge()));
    round.push_back(BaseRead(MonthlyCalls(check_year)));
  };
  for (int i = 0; i < kRows; ++i) {
    // Row 0 becomes its plan's MAX, so deleting it cannot be folded into VM
    // (one recompute per round). The others stay below every existing
    // maximum even after the UPDATE, so their deletes fold.
    double charge = i == 0 ? p.max_charge + 50 : Charge(rng, 0.05, 5.0);
    round.push_back(Write("INSERT INTO Calls VALUES " +
                          CallTuple(rng, p, first_new + i, charge)));
  }
  w.prefix = round.size();
  checks();
  for (int i = 0; i < kRows; ++i) {
    round.push_back(Write(
        Fmt("UPDATE Calls SET Charge = Charge + 1.25 WHERE Call_Id = %" PRId64,
            first_new + i)));
  }
  checks();
  for (int i = 0; i < kRows; ++i) {
    round.push_back(Write(
        Fmt("DELETE FROM Calls WHERE Call_Id = %" PRId64, first_new + i)));
  }
  checks();
  return w;
}

Workload DurableCommit(uint64_t seed) {
  Workload w;
  w.params.num_calls = 20000;
  w.params.seed = seed;
  // Spend per customer: the reads of the new customers are answered from it.
  w.views = {"CREATE MATERIALIZED VIEW VC AS SELECT Cust_Id_1, "
             "SUM(Charge_1) AS Spend, COUNT(Call_Id_1) AS N FROM Calls "
             "GROUPBY Cust_Id_1"};
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 3);
  const TelephonyParams& p = w.params;
  const int kTxns = 8;
  const int kCallsPerTxn = 4;
  std::vector<Op>& round = w.round;
  // The round's customers are [lo, hi], new ones with new calls.
  const int lo = p.num_customers;
  const int hi = lo + kTxns - 1;
  const int64_t first_call = p.num_calls;
  auto checks = [&] {
    round.push_back(ViewRead(
        Fmt("SELECT Cust_Id_1, SUM(Charge_1) AS Spend FROM Calls "
            "WHERE Cust_Id_1 >= %d AND Cust_Id_1 <= %d GROUPBY Cust_Id_1",
            lo, hi)));
    round.push_back(BaseRead(
        Fmt("SELECT Cust_Id_1, Month_1, COUNT(Call_Id_1) AS Calls "
            "FROM Calls WHERE Cust_Id_1 >= %d AND Cust_Id_1 <= %d "
            "GROUPBY Cust_Id_1, Month_1",
            lo, hi)));
  };
  // A customer signs up, then makes its first calls: two transactions on
  // different tables.
  for (int t = 0; t < kTxns; ++t) {
    const int cust = lo + t;
    round.push_back(
        Op{{{"BEGIN WRITE", false},
            {Fmt("INSERT INTO Customer VALUES (%d, 'new_%d', %d, %d)", cust,
                 cust, 200 + cust % 800, 7770000 + cust),
             false},
            {"COMMIT", false}},
           Kind::kWrite});
    std::string calls = "INSERT INTO Calls VALUES ";
    for (int i = 0; i < kCallsPerTxn; ++i) {
      if (i > 0) calls += ", ";
      calls += CallTuple(rng, p, first_call + t * kCallsPerTxn + i,
                         Charge(rng, 0.05, p.max_charge), cust);
    }
    round.push_back(Op{{{"BEGIN WRITE", false},
                        {calls, false},
                        {"COMMIT", false}},
                       Kind::kWrite});
  }
  checks();
  w.prefix = round.size();
  // Each customer leaves: its calls and its row go in one transaction.
  for (int cust = lo; cust <= hi; ++cust) {
    round.push_back(
        Op{{{"BEGIN WRITE", false},
            {Fmt("DELETE FROM Calls WHERE Cust_Id = %d", cust), false},
            {Fmt("DELETE FROM Customer WHERE Cust_Id = %d", cust), false},
            {"COMMIT", false}},
           Kind::kWrite});
  }
  checks();
  return w;
}

// Phase totals from the service's per-statement QueryStats (the slow log),
// plus the benchmark's own span around each Execute.
struct LayerTotals {
  double span_us = 0, parse_us = 0, optimize_us = 0, exec_us = 0;
  double maintain_us = 0, wal_us = 0;
  uint64_t rounds = 0;
  uint64_t cache_hits = 0, cache_misses = 0;
  uint64_t rewrites_applied = 0, rewrites_skipped = 0;
  uint64_t views_maintained = 0, views_recomputed = 0, wal_bytes = 0;
  uint64_t wal_fsyncs = 0;
};

// What the timed rounds (or the warm-up and the probes) measured.
struct RunLog {
  std::vector<std::vector<double>> per_op_us;  // by position in the round
  double span_us = 0;
  uint64_t rounds = 0, attempted = 0, failed = 0;
  size_t check = 0;  // index of the next expected answer
  bool correct = true;
};

// The window is cut into this many slices, each opened by a probe, so the
// set-up and restart medians see the same machine conditions as the rounds
// rather than one moment at start-up.
constexpr int kProbes = 5;
// Set-ups per probe: set-up takes tens of milliseconds, so its median over a
// few dozen samples costs well under a second of the window.
constexpr int kSetUpsPerProbe = 5;

class Bench {
 public:
  Bench(Workload w, std::filesystem::path dir, bool trace)
      : w_(std::move(w)), dir_(std::move(dir)), trace_(trace),
        data_(MakeTelephonyWorkload(w_.params)) {}

  // Sets up the measured service and runs the round once on it and on a
  // view-less in-memory reference, recording the reference's answer for
  // every checked SELECT.
  void WarmUp() {
    svc_ = SetUp(dir_ / "main");
    QueryService ref;
    Must(ref.Bootstrap(data_.catalog, data_.db, ViewRegistry{}), "reference");
    for (const Op& op : w_.round) {
      for (const Statement& s : op.stmts) {
        Result<StatementResult> want = ref.Execute(s.sql);
        if (!want.ok()) {
          Die("reference: " + s.sql + ": " + want.status().ToString());
        }
        if (s.check) expected_.push_back(*want.value().table);
      }
      if (!RunOp(svc_.get(), op, &warm_, nullptr)) Die("warm-up failed");
    }
    if (!warm_.correct) Die("warm-up: results differ from the reference");
  }

  void Measure(double seconds) {
    Clock::time_point start = Clock::now();
    log_.per_op_us.resize(w_.round.size());
    for (int slice = 1; slice <= kProbes; ++slice) {
      Probe();
      Clock::time_point until =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds * slice / kProbes));
      if (trace_) svc_->ResetStats();
      // Each slice runs at least one round.
      bool ok = RunRound();
      while (ok && Clock::now() < until) ok = RunRound();
      if (trace_) CollectLayers();
      if (!ok) break;
    }
    svc_.reset();
    std::filesystem::remove_all(dir_);
  }

  // For each of the round's ops of the given kinds, its q-quantile latency.
  // A burst of machine noise in a few rounds does not move a per-op median
  // the way it moves the median of whole-round times.
  std::vector<double> PerOp(double q, std::vector<Kind> kinds) const {
    std::vector<double> out;
    for (size_t i = 0; i < w_.round.size(); ++i) {
      Kind kind = w_.round[i].kind;
      if (std::find(kinds.begin(), kinds.end(), kind) == kinds.end()) continue;
      out.push_back(Quantile(log_.per_op_us[i], q));
    }
    return out;
  }

  const std::vector<double>& setup_s() const { return setup_s_; }
  const std::vector<double>& recovery_ms() const { return recovery_ms_; }
  const LayerTotals& layers() const { return layers_; }
  bool correct() const { return warm_.correct && log_.correct; }
  uint64_t attempted() const { return log_.attempted; }
  uint64_t failed() const { return log_.failed; }

 private:
  static void Must(const Status& s, const std::string& what) {
    if (!s.ok()) Die(what + ": " + s.ToString());
  }

  // Opens (or recovers) a service on the database file under `dir`.
  std::unique_ptr<QueryService> Open(const std::filesystem::path& dir) {
    ServiceOptions opts;
    opts.storage_path = (dir / "bench.aqvdb").string();
    opts.storage_fsync_wal = w_.fsync;
    if (trace_) {
      opts.slow_query_micros = 1;  // record every statement's phase split
      opts.slow_query_log_capacity = 1 << 18;
    }
    auto svc = std::make_unique<QueryService>(opts);
    if (!svc->storage_status().ok()) {
      Die("open: " + svc->storage_status().ToString());
    }
    return svc;
  }

  // Fresh storage under `dir`, the warehouse installed (and checkpointed),
  // the views materialized: what a user pays before the first query. The
  // time is recorded as a set-up sample.
  std::unique_ptr<QueryService> SetUp(const std::filesystem::path& dir) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<QueryService> svc = Open(dir);
    Must(svc->Bootstrap(data_.catalog, data_.db, ViewRegistry{}), "bootstrap");
    for (const std::string& v : w_.views) Must(svc->Execute(v).status(), v);
    setup_s_.push_back(SecondsSince(t0));
    return svc;
  }

  // Runs the round once on the measured service; false if an op failed.
  bool RunRound() {
    // Each round runs on the next CPU, so every CPU serves a share of the
    // rounds: how busy the machine keeps one of them does not decide the
    // whole run.
    if (!cpus_.empty()) RunOn(cpus_[log_.rounds % cpus_.size()]);
    for (size_t i = 0; i < w_.round.size(); ++i) {
      ++log_.attempted;
      double us = 0;
      if (!RunOp(svc_.get(), w_.round[i], &log_, &us)) {
        ++log_.failed;
        return false;
      }
      log_.per_op_us[i].push_back(us);
      log_.span_us += us;
    }
    ++log_.rounds;
    return true;
  }

  // Executes one op on `svc`, timing it. Checked SELECTs are compared with
  // the reference answers in round order.
  bool RunOp(QueryService* svc, const Op& op, RunLog* log, double* micros) {
    std::vector<StatementResult> got;
    double span = 0;
    for (const Statement& s : op.stmts) {
      Clock::time_point t0 = Clock::now();
      Result<StatementResult> r = svc->Execute(s.sql);
      span += std::chrono::duration<double, std::micro>(Clock::now() - t0)
                  .count();
      if (!r.ok()) {
        std::fprintf(stderr, "perfbench: %s: %s\n", s.sql.c_str(),
                     r.status().ToString().c_str());
        log->correct = false;
        return false;
      }
      if (s.check) got.push_back(std::move(r.value()));
    }
    for (const StatementResult& r : got) {
      const Table& want = expected_[log->check++ % expected_.size()];
      if (!MultisetAlmostEqual(*r.table, want)) {
        std::fprintf(stderr, "perfbench: wrong result:\n%s\nexpected:\n%s\n",
                     r.table->ToString().c_str(), want.ToString().c_str());
        log->correct = false;
      }
      // A read timed as a view read that the service answered from the
      // base tables (or the reverse) is reported at warm-up, not failed:
      // the timing classes are fixed by the workload.
      if (log == &warm_ &&
          r.used_materialized_view != (op.kind == Kind::kViewRead)) {
        std::fprintf(stderr, "perfbench: note: %s a view: %s\n",
                     r.used_materialized_view ? "answered from" : "not from",
                     op.stmts[0].sql.c_str());
      }
    }
    if (micros != nullptr) *micros = span;
    return true;
  }

  // Set-up samples and one recovery sample on a separate database: set up,
  // apply the round's write prefix, then restart from the files (a
  // fixed-size checkpoint plus a fixed WAL tail).
  void Probe() {
    std::filesystem::path dir = dir_ / "probe";
    std::unique_ptr<QueryService> svc;
    for (int i = 0; i < kSetUpsPerProbe; ++i) {
      svc.reset();
      svc = SetUp(dir);
    }
    RunLog log;
    for (size_t i = 0; i < w_.prefix; ++i) {
      if (!RunOp(svc.get(), w_.round[i], &log, nullptr)) Die("probe failed");
    }
    ServiceSnapshotPtr before = svc->PinSnapshot();
    svc.reset();
    Clock::time_point t0 = Clock::now();
    svc = Open(dir);
    recovery_ms_.push_back(SecondsSince(t0) * 1000.0);
    for (const std::string& name : before->db.TableNames()) {
      TablePtr a = before->db.GetShared(name);
      TablePtr b = svc->PinSnapshot()->db.GetShared(name);
      if (b == nullptr || !MultisetAlmostEqual(*a, *b)) {
        std::fprintf(stderr, "perfbench: %s differs after restart\n",
                     name.c_str());
        log.correct = false;
      }
    }
    warm_.correct = warm_.correct && log.correct;
    svc.reset();
    std::filesystem::remove_all(dir);
  }

  // Adds one slice's slow-log records and counters to the totals.
  void CollectLayers() {
    for (const SlowQueryRecord& r : svc_->SlowQueries()) {
      layers_.parse_us += r.parse_micros;
      layers_.optimize_us += r.optimize_micros;
      layers_.exec_us += r.exec_micros;
      layers_.maintain_us += r.maintain_micros;
      layers_.wal_us += r.wal_commit_micros;
    }
    ServiceStats s = svc_->Stats();
    layers_.cache_hits += s.plan_cache_hits;
    layers_.cache_misses += s.plan_cache_misses;
    layers_.rewrites_applied += s.rewrites_applied;
    layers_.rewrites_skipped += s.rewrites_skipped;
    layers_.views_maintained += s.views_maintained;
    layers_.views_recomputed += s.views_recomputed;
    layers_.wal_bytes += s.storage_wal_bytes;
    layers_.wal_fsyncs += s.storage_wal_fsyncs;
    layers_.rounds = log_.rounds;
    layers_.span_us = log_.span_us;
  }

  Workload w_;
  std::filesystem::path dir_;
  bool trace_;
  TelephonyWorkload data_;
  std::unique_ptr<QueryService> svc_;
  std::vector<Table> expected_;  // in round order
  RunLog log_;                   // the timed rounds
  RunLog warm_;                  // the warm-up's and the probes' checks
  const std::vector<int> cpus_ = AllowedCpus();
  std::vector<double> setup_s_, recovery_ms_;
  LayerTotals layers_;
};

struct Metric {
  std::string name, unit;
  double value;
};

void PrintResult(const Bench& b, const std::vector<Metric>& metrics) {
  std::string out = Fmt("{\"correct\": %s, \"attempted\": %" PRIu64
                        ", \"failed\": %" PRIu64 ", \"metrics\": {",
                        b.correct() ? "true" : "false", b.attempted(),
                        b.failed());
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += Fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
               i > 0 ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
               metrics[i].unit.c_str());
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace
}  // namespace aqv

int main(int argc, char** argv) {
  using namespace aqv;
  std::string workload, dir;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") seconds = std::atof(value.c_str());
    else if (flag == "--trace") trace = value != "0";
    else if (flag == "--dir") dir = value;
    else Die("unknown flag " + flag);
  }
  if (dir.empty() || seconds <= 0) Die("need --dir and --seconds > 0");
  Workload w;
  if (workload == "warehouse_read") w = WarehouseRead(seed);
  else if (workload == "dml_churn_20k") w = DmlChurn(seed, 20000);
  else if (workload == "dml_churn_200k") w = DmlChurn(seed, 200000);
  else if (workload == "durable_commit") w = DurableCommit(seed);
  else Die("unknown workload '" + workload + "'");

  Bench bench(std::move(w), dir, trace);
  bench.WarmUp();
  bench.Measure(seconds);

  std::vector<Metric> metrics;
  if (!trace) {
    const std::vector<Kind> all = {Kind::kViewRead, Kind::kBaseRead,
                                   Kind::kWrite};
    metrics = {
        {"round_ms", "ms", Sum(bench.PerOp(0.5, all)) / 1000.0},
        {"view_read_us", "us", Mean(bench.PerOp(0.5, {Kind::kViewRead}))},
        {"base_read_us", "us", Mean(bench.PerOp(0.5, {Kind::kBaseRead}))},
        {"write_us", "us", Mean(bench.PerOp(0.5, {Kind::kWrite}))},
        {"setup_s", "s", Quantile(bench.setup_s(), 0.5)},
    };
  } else {
    // Times are per round: the benchmark's span around its Execute calls,
    // the service's phases inside them, and the rest (dispatch, latching,
    // result building).
    const LayerTotals& l = bench.layers();
    double attributed =
        l.parse_us + l.optimize_us + l.exec_us + l.maintain_us + l.wal_us;
    double lookups = double(l.cache_hits + l.cache_misses);
    double plans = double(l.rewrites_applied + l.rewrites_skipped);
    double rounds = l.rounds > 0 ? double(l.rounds) : 1.0;
    metrics = {
        {"span_us", "us/round", l.span_us / rounds},
        {"parse_us", "us/round", l.parse_us / rounds},
        {"optimize_us", "us/round", l.optimize_us / rounds},
        {"exec_us", "us/round", l.exec_us / rounds},
        {"maintain_us", "us/round", l.maintain_us / rounds},
        {"wal_commit_us", "us/round", l.wal_us / rounds},
        {"other_us", "us/round", (l.span_us - attributed) / rounds},
        {"plan_cache_hit_rate", "ratio", lookups > 0 ? l.cache_hits / lookups : 0},
        {"rewrite_rate", "ratio", plans > 0 ? l.rewrites_applied / plans : 0},
        {"views_maintained_per_round", "count", l.views_maintained / rounds},
        {"views_recomputed_per_round", "count", l.views_recomputed / rounds},
        {"wal_bytes_per_round", "B", l.wal_bytes / rounds},
        {"wal_fsyncs_per_round", "count", l.wal_fsyncs / rounds},
        {"recovery_ms", "ms", Quantile(bench.recovery_ms(), 0.5)},
    };
  }
  PrintResult(bench, metrics);
  return 0;
}
