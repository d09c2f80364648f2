// Experiment E21 — do group commit and staged replay deliver? (PR 9).
// Two self-timed A/B measurements over the storage engine, one binary that
// is also the CI gate (E19 pattern: no google-benchmark, it owns its exit
// code and its JSON artifact):
//
//   1. Group-commit throughput. N writer threads run closed-loop
//      LogCommit calls against one engine with fsync_wal on, group commit
//      off vs on (fresh database file per arm so WAL size and allocator
//      heat match). Off is the PR 6 baseline: each commit pays its own
//      fsync serialized under the engine mutex. On coalesces every record
//      appended while the leader's fsync is in flight under ONE fsync.
//      The arms run twice: on the raw host, and with a fixed device
//      latency (kInjectedFsyncMicros) added to every WAL fsync through the
//      wal.fsync failpoint. The raw ratio moves with the host's fsync
//      latency (a faster device leaves fewer records to coalesce); the
//      injected arms give every host the same device, so their ratio
//      measures fsyncs per commit. The gate claims
//      >= --min-commit-speedup at --threads writers on the injected arms;
//      the raw arms are reported beside them.
//
//   2. Staged replay. For each WAL length K in {64, 256, 1024, 4096}, one
//      database file is built (checkpoint, then K single-row commits) and
//      recovered under both replay strategies — recovery is read-only, so
//      the same file serves both arms. Per-record replay republishes a
//      whole COW epoch per commit (E18 measured it superlinear, ~395 ms at
//      4k commits); staged replay folds the tail into one staging image
//      and publishes one epoch. The gate claims >= --min-replay-speedup at
//      the largest K.
//
// Flags:
//   --threads=N              part-1 writers (default 8)
//   --commits=N              part-1 commits per thread per round (default 250)
//   --rounds=N               part-1 A/B round pairs after warmup (default 3)
//   --replay-reps=N          part-2 recoveries per arm, best-of (default 3)
//   --json=PATH              JSON artifact (default e21_group_commit.json)
//   --min-commit-speedup=X   exit 1 if group-commit speedup < X (default 2.0;
//                            0 disables the gate)
//   --min-replay-speedup=X   exit 1 if staged-replay speedup at the largest
//                            WAL < X (default 5.0; 0 disables the gate)
//
// e.g. build/bench/bench_e21_group_commit --json=bench/e21_group_commit.json

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "base/failpoint.h"
#include "bench/bench_util.h"
#include "catalog/catalog.h"
#include "exec/table.h"
#include "maintain/incremental.h"
#include "storage/storage_engine.h"

namespace aqv {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string FreshPath(const std::string& stem) {
  const char* tmp = std::getenv("TMPDIR");
  std::string path =
      std::string(tmp != nullptr ? tmp : "/tmp") + "/aqv_e21_" + stem;
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  return path;
}

void RemoveDb(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

Delta OneRowDelta(const std::string& table, int64_t a, int64_t b) {
  Delta delta;
  delta.inserts[table].push_back({Value::Int64(a), Value::Int64(b)});
  return delta;
}

std::string JsonList(const std::vector<double>& v, const char* fmt) {
  std::string out = "[";
  char buf[64];
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    std::snprintf(buf, sizeof(buf), fmt, v[i]);
    out += buf;
  }
  return out + "]";
}

// bench_util's ValueOrDie copies the result value, which a unique_ptr
// forbids; move out through the rvalue `value()` overload instead.
std::unique_ptr<StorageEngine> OpenOrDie(const StorageOptions& opts,
                                         MetricsRegistry* metrics) {
  Result<std::unique_ptr<StorageEngine>> result =
      StorageEngine::Open(opts, metrics);
  CheckOrDie(result.status(), "open storage engine");
  return std::move(result).value();
}

// Part 1: closed-loop commits/s for one arm on a fresh database. Each of
// the `threads` writers commits into its own table, so the writes commute
// and the WAL (not table contention) is the shared resource.
double CommitThroughput(bool group_commit, int threads, int commits,
                        uint64_t* fsyncs_out) {
  StorageOptions opts;
  opts.path = FreshPath(group_commit ? "commit_on.db" : "commit_off.db");
  opts.fsync_wal = true;
  opts.group_commit = group_commit;

  Catalog catalog;
  Database db;
  for (int t = 0; t < threads; ++t) {
    std::string name = "T" + std::to_string(t);
    CheckOrDie(catalog.AddTable(TableDef(name, {"A", "B"})), "add table");
    db.Put(name, Table({"A", "B"}));
  }
  MetricsRegistry metrics;
  auto engine = OpenOrDie(opts, &metrics);
  CheckOrDie(engine->Checkpoint(catalog, ViewRegistry{}, db, {}),
             "seed checkpoint");

  Clock::time_point start = Clock::now();
  std::vector<std::thread> writers;
  for (int t = 0; t < threads; ++t) {
    writers.emplace_back([&engine, t, commits] {
      std::string name = "T" + std::to_string(t);
      for (int i = 0; i < commits; ++i) {
        CheckOrDie(engine->LogCommit(OneRowDelta(name, i, t)), "log commit");
      }
    });
  }
  for (std::thread& w : writers) w.join();
  double secs = SecondsSince(start);
  if (fsyncs_out != nullptr) {
    *fsyncs_out = metrics.GetCounter("storage.wal_fsyncs").value();
  }
  engine.reset();
  RemoveDb(opts.path);
  return secs > 0 ? (static_cast<double>(threads) * commits) / secs : 0.0;
}

// The device latency the gated commit arms add to every WAL fsync: 1 ms,
// a flush to a typical networked or SATA disk.
constexpr int kInjectedFsyncMicros = 1000;

// Part 1, both arms: `rounds` alternating off/on pairs after a discarded
// warmup pair (file creation, allocator growth).
struct CommitArms {
  std::vector<double> off_tput;
  std::vector<double> on_tput;
  double off_median = 0;
  double on_median = 0;
  double speedup = 0;
  double on_records_per_fsync = 0;
};

CommitArms MeasureCommitArms(int threads, int commits, int rounds) {
  CommitArms arms;
  uint64_t off_fsyncs = 0;
  uint64_t on_fsyncs = 0;
  for (int pair = 0; pair < rounds + 1; ++pair) {
    double off = CommitThroughput(false, threads, commits, &off_fsyncs);
    double on = CommitThroughput(true, threads, commits, &on_fsyncs);
    if (pair == 0) continue;
    arms.off_tput.push_back(off);
    arms.on_tput.push_back(on);
    std::fprintf(stderr,
                 "commit round %d: off=%.0f commits/s on=%.0f commits/s\n",
                 pair, off, on);
  }
  arms.off_median = Median(arms.off_tput);
  arms.on_median = Median(arms.on_tput);
  arms.speedup = arms.off_median > 0 ? arms.on_median / arms.off_median : 0.0;
  const uint64_t total = static_cast<uint64_t>(threads) * commits;
  arms.on_records_per_fsync =
      on_fsyncs > 0 ? static_cast<double>(total) / on_fsyncs : 0.0;
  return arms;
}

// The JSON fields of one CommitArms.
std::string ArmsJson(const CommitArms& arms) {
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "\"off_commits_per_sec\": %s,\n"
                "    \"on_commits_per_sec\": %s,\n"
                "    \"off_median\": %.1f,\n"
                "    \"on_median\": %.1f,\n"
                "    \"speedup\": %.2f,\n"
                "    \"on_mean_records_per_fsync\": %.1f",
                JsonList(arms.off_tput, "%.0f").c_str(),
                JsonList(arms.on_tput, "%.0f").c_str(), arms.off_median,
                arms.on_median, arms.speedup, arms.on_records_per_fsync);
  return buf;
}

// Part 2: best-of-`reps` wall time for one recovery of `path` under the
// given replay strategy. Recovery is read-only, so arms share the file.
double RecoveryMillis(const std::string& path, bool staged, int reps) {
  double best = 1e18;
  for (int r = 0; r < reps; ++r) {
    StorageOptions opts;
    opts.path = path;
    opts.staged_replay = staged;
    Clock::time_point start = Clock::now();
    auto engine = OpenOrDie(opts, nullptr);
    best = std::min(best, SecondsSince(start) * 1000.0);
    engine.reset();
  }
  return best;
}

}  // namespace
}  // namespace aqv

int main(int argc, char** argv) {
  int threads = 8;
  int commits = 250;
  int rounds = 3;
  int replay_reps = 3;
  std::string json_path = "e21_group_commit.json";
  double min_commit_speedup = 2.0;
  double min_replay_speedup = 5.0;

  for (int i = 1; i < argc; ++i) {
    if (const char* v = aqv::FlagValue(argv[i], "--threads")) {
      threads = std::atoi(v);
    } else if (const char* v = aqv::FlagValue(argv[i], "--commits")) {
      commits = std::atoi(v);
    } else if (const char* v = aqv::FlagValue(argv[i], "--rounds")) {
      rounds = std::atoi(v);
    } else if (const char* v = aqv::FlagValue(argv[i], "--replay-reps")) {
      replay_reps = std::atoi(v);
    } else if (const char* v = aqv::FlagValue(argv[i], "--json")) {
      json_path = v;
    } else if (const char* v =
                   aqv::FlagValue(argv[i], "--min-commit-speedup")) {
      min_commit_speedup = std::atof(v);
    } else if (const char* v =
                   aqv::FlagValue(argv[i], "--min-replay-speedup")) {
      min_replay_speedup = std::atof(v);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (threads < 1 || commits < 1 || rounds < 1 || replay_reps < 1) {
    std::fprintf(stderr, "need positive --threads/--commits/--rounds/"
                         "--replay-reps\n");
    return 2;
  }

  // Part 1 — group-commit throughput, on the raw host and then with the
  // fixed device latency the gate is judged on.
  std::fprintf(stderr, "group commit, raw host fsync:\n");
  aqv::CommitArms raw = aqv::MeasureCommitArms(threads, commits, rounds);
  aqv::CommitArms injected;
  {
    aqv::FailpointScope latency(
        "wal.fsync",
        "delay(" + std::to_string(aqv::kInjectedFsyncMicros) + ")");
    if (!latency.armed()) {
      std::fprintf(stderr, "cannot arm the wal.fsync failpoint\n");
      return 2;
    }
    std::fprintf(stderr, "group commit, fsync + %d us injected:\n",
                 aqv::kInjectedFsyncMicros);
    injected = aqv::MeasureCommitArms(threads, commits, rounds);
  }
  double commit_speedup = injected.speedup;

  // Part 2 — staged replay across WAL lengths.
  const std::vector<int> wal_commits = {64, 256, 1024, 4096};
  std::vector<double> replay_off_ms;
  std::vector<double> replay_on_ms;
  std::vector<double> replay_speedup;
  for (int k : wal_commits) {
    std::string path = aqv::FreshPath("replay_" + std::to_string(k) + ".db");
    {
      aqv::StorageOptions opts;
      opts.path = path;
      opts.fsync_wal = false;  // build speed; replay cost is what matters
      aqv::Catalog catalog;
      aqv::CheckOrDie(catalog.AddTable(aqv::TableDef("R", {"A", "B"})),
                      "add table");
      aqv::Database db;
      db.Put("R", aqv::Table({"A", "B"}));
      auto engine = aqv::OpenOrDie(opts, nullptr);
      aqv::CheckOrDie(
          engine->Checkpoint(catalog, aqv::ViewRegistry{}, db, {}),
          "seed checkpoint");
      for (int i = 0; i < k; ++i) {
        aqv::CheckOrDie(engine->LogCommit(aqv::OneRowDelta("R", i, i)),
                        "build commit");
      }
    }
    double off_ms = aqv::RecoveryMillis(path, false, replay_reps);
    double on_ms = aqv::RecoveryMillis(path, true, replay_reps);
    aqv::RemoveDb(path);
    replay_off_ms.push_back(off_ms);
    replay_on_ms.push_back(on_ms);
    replay_speedup.push_back(on_ms > 0 ? off_ms / on_ms : 0.0);
    std::fprintf(stderr,
                 "replay %4d commits: per-record=%.1f ms staged=%.1f ms "
                 "(%.1fx)\n",
                 k, off_ms, on_ms, replay_speedup.back());
  }
  double gate_replay_speedup = replay_speedup.back();

  bool commit_pass =
      min_commit_speedup <= 0 || commit_speedup >= min_commit_speedup;
  bool replay_pass =
      min_replay_speedup <= 0 || gate_replay_speedup >= min_replay_speedup;
  bool pass = commit_pass && replay_pass;

  char json[4096];
  std::snprintf(
      json, sizeof(json),
      "{\n"
      "  \"experiment\": \"E21\",\n"
      "  \"group_commit\": {\n"
      "    \"threads\": %d, \"commits_per_thread\": %d, \"rounds\": %d,\n"
      "    \"injected_fsync_micros\": %d,\n"
      "    %s,\n"
      "    \"min_commit_speedup\": %.1f\n"
      "  },\n"
      "  \"group_commit_raw_host\": {\n"
      "    %s\n"
      "  },\n"
      "  \"staged_replay\": {\n"
      "    \"wal_commits\": [64, 256, 1024, 4096],\n"
      "    \"per_record_ms\": %s,\n"
      "    \"staged_ms\": %s,\n"
      "    \"speedup\": %s,\n"
      "    \"min_replay_speedup\": %.1f\n"
      "  },\n"
      "  \"pass\": %s\n"
      "}\n",
      threads, commits, rounds, aqv::kInjectedFsyncMicros,
      aqv::ArmsJson(injected).c_str(), min_commit_speedup,
      aqv::ArmsJson(raw).c_str(),
      aqv::JsonList(replay_off_ms, "%.2f").c_str(),
      aqv::JsonList(replay_on_ms, "%.2f").c_str(),
      aqv::JsonList(replay_speedup, "%.2f").c_str(), min_replay_speedup,
      pass ? "true" : "false");
  std::fputs(json, stdout);
  std::ofstream out(json_path, std::ios::trunc);
  if (out) {
    out << json;
  } else {
    std::fprintf(stderr, "warning: cannot write %s\n", json_path.c_str());
  }

  if (!commit_pass) {
    std::fprintf(stderr,
                 "FAIL: group-commit speedup %.2fx (fsync + %d us) below "
                 "--min-commit-speedup %.1fx\n",
                 commit_speedup, aqv::kInjectedFsyncMicros,
                 min_commit_speedup);
  }
  if (!replay_pass) {
    std::fprintf(stderr,
                 "FAIL: staged-replay speedup %.2fx at %d commits below "
                 "--min-replay-speedup %.1fx\n",
                 gate_replay_speedup, wal_commits.back(), min_replay_speedup);
  }
  return pass ? 0 : 1;
}
