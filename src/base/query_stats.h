#ifndef AQV_BASE_QUERY_STATS_H_
#define AQV_BASE_QUERY_STATS_H_

#include <cstdint>
#include <string>

namespace aqv {

/// Per-statement cost attribution. One QueryStats rides through a single
/// statement's lifetime — hung on the ExecContext for the read path, passed
/// into the write path explicitly — and each stage adds the time and work
/// it consumed. The service reports it in EXPLAIN ANALYZE, attaches it to
/// SLOWLOG entries, and folds it into per-fingerprint aggregates for the
/// view advisor.
///
/// Phase times are disjoint wall-clock intervals, so their sum approximates
/// the statement's total wall time; the gap (total minus phase sum) is
/// dispatch overhead outside any timed phase and should stay within a few
/// percent (asserted by observability_test and measured in E19).
struct QueryStats {
  // --- disjoint phase times, microseconds ---
  uint64_t parse_micros = 0;     // text -> IR
  uint64_t latch_micros = 0;     // a write waiting on its stripe latches
  uint64_t optimize_micros = 0;  // rewrite search + plan-cache probe/fill
  uint64_t exec_micros = 0;      // evaluator time over the chosen plan
  uint64_t maintain_micros = 0;  // incremental view maintenance (writes)
  uint64_t wal_commit_micros = 0;  // WAL serialize + append + fsync (writes)
  uint64_t total_micros = 0;       // wall clock for the whole statement

  // --- plan provenance ---
  uint64_t fingerprint = 0;  // canonical IR fingerprint (0 for writes)
  uint64_t epoch = 0;        // database epoch the statement ran against
  bool cache_hit = false;    // plan served from the plan cache
  bool degraded = false;     // fell back to the unrewritten plan

  // --- work counters ---
  uint64_t rows_processed = 0;  // operator row charges (ExecContext)
  uint64_t wal_bytes = 0;       // WAL bytes appended for this statement

  /// Sum of the disjoint phases — compare against total_micros to see how
  /// much wall time the attribution accounts for.
  uint64_t PhaseSumMicros() const {
    return parse_micros + latch_micros + optimize_micros + exec_micros +
           maintain_micros + wal_commit_micros;
  }

  void Add(const QueryStats& o) {
    parse_micros += o.parse_micros;
    latch_micros += o.latch_micros;
    optimize_micros += o.optimize_micros;
    exec_micros += o.exec_micros;
    maintain_micros += o.maintain_micros;
    wal_commit_micros += o.wal_commit_micros;
    total_micros += o.total_micros;
    rows_processed += o.rows_processed;
    wal_bytes += o.wal_bytes;
  }
};

/// Running per-fingerprint aggregate of QueryStats, kept by the service so
/// the advisor can rank statements by where time actually goes rather than
/// by slow-log anecdotes.
struct FingerprintProfile {
  uint64_t fingerprint = 0;
  std::string example;  // one representative statement text
  uint64_t count = 0;
  uint64_t cache_hits = 0;
  QueryStats totals;  // summed attribution across executions
};

}  // namespace aqv

#endif  // AQV_BASE_QUERY_STATS_H_
