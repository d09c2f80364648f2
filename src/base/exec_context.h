#ifndef AQV_BASE_EXEC_CONTEXT_H_
#define AQV_BASE_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "base/query_stats.h"
#include "base/status.h"

namespace aqv {

/// Per-statement resource governance: a deadline, a row budget, and a
/// cooperative cancel flag, carried from the service through the optimizer's
/// candidate enumeration down into the evaluator's operator loops.
///
/// Usage contract:
///   - One ExecContext per statement, owned by whoever issued it (the
///     service handler, a test). The statement executes on one thread;
///     only the cancel flag may be flipped from another thread.
///   - Hot loops call TickRows(n) per row processed. The budget check is a
///     plain counter compare; the deadline/cancel check (a clock read and
///     an atomic load) runs only every kCheckStride charged rows, so the
///     per-row cost stays at an increment and a branch.
///   - Once TickRows returns false the loop must stop; status() then holds
///     the violation (kResourceExhausted / kDeadlineExceeded) and every
///     later TickRows keeps returning false. Partial output is discarded
///     by the caller — governance never produces silently truncated rows.
///   - A default-constructed context has no limits: TickRows always
///     returns true and costs one compare more than not having it.
class ExecContext {
 public:
  using Clock = std::chrono::steady_clock;

  /// Deadline/cancel re-check interval, in charged rows.
  static constexpr size_t kCheckStride = 1024;

  ExecContext() = default;
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  /// Absolute deadline on the steady clock.
  void set_deadline(Clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }
  /// Deadline `micros` from now. 0 is a valid (already expired) deadline.
  void set_deadline_after_micros(uint64_t micros) {
    set_deadline(Clock::now() + std::chrono::microseconds(micros));
  }
  /// Budget on rows processed across all operators of the statement
  /// (scans, joins, grouping — the work and intermediate-size proxy).
  /// 0 means unlimited.
  void set_row_budget(size_t rows) { row_budget_ = rows; }
  /// External cancel flag; polled (relaxed) on the same stride as the
  /// deadline. `flag` must outlive the statement.
  void set_cancel_flag(const std::atomic<bool>* flag) { cancel_ = flag; }

  /// True if any limit is configured (callers may skip plumbing otherwise).
  bool limited() const {
    return has_deadline_ || row_budget_ > 0 || cancel_ != nullptr;
  }

  /// Charges `n` rows and returns true to continue. See class comment.
  bool TickRows(size_t n = 1) {
    if (!status_.ok()) return false;
    rows_charged_ += n;
    if (row_budget_ > 0 && rows_charged_ > row_budget_) {
      status_ = Status::ResourceExhausted(
          "statement exceeded its row budget of " +
          std::to_string(row_budget_) + " rows");
      return false;
    }
    stride_ += n;
    if (stride_ >= kCheckStride) {
      stride_ = 0;
      return CheckNow();
    }
    return true;
  }

  /// Immediate deadline/cancel check (no row charge): true to continue.
  /// Used between pipeline stages and by the rewrite enumeration cutoff.
  bool CheckNow() {
    if (!status_.ok()) return false;
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      status_ = Status::DeadlineExceeded("statement cancelled");
      return false;
    }
    if (has_deadline_ && Clock::now() > deadline_) {
      status_ = Status::DeadlineExceeded("statement exceeded its deadline");
      return false;
    }
    return true;
  }

  /// Stops the statement with `error` (an operator's own failure, such as
  /// an INT64 SUM that left its range), exactly as a tripped limit does:
  /// later TickRows calls return false and status() holds the first
  /// violation.
  void Fail(Status error) {
    if (status_.ok()) status_ = std::move(error);
  }

  /// Non-OK once a limit has tripped; the first violation wins.
  const Status& status() const { return status_; }
  bool ok() const { return status_.ok(); }

  /// Rows charged so far (monotonic across operators).
  size_t rows_charged() const { return rows_charged_; }

  /// Optional per-statement cost attribution sink. The owner (the service
  /// handler) hangs its QueryStats here so stages that only see the
  /// context — the evaluator, the storage commit path — can contribute
  /// phase times and work counters. Must outlive the statement; never
  /// touched by TickRows, so the hot path is unaffected.
  void set_stats(QueryStats* stats) { stats_ = stats; }
  QueryStats* stats() const { return stats_; }

  /// Resets the violation and row accounting but keeps the configured
  /// limits — except that a tripped row budget stays tripped only through
  /// its counter, so a degraded retry gets a fresh budget against the same
  /// absolute deadline.
  void ResetForRetry() {
    status_ = Status::OK();
    rows_charged_ = 0;
    stride_ = 0;
  }

 private:
  Clock::time_point deadline_{};
  bool has_deadline_ = false;
  size_t row_budget_ = 0;
  const std::atomic<bool>* cancel_ = nullptr;

  size_t rows_charged_ = 0;
  size_t stride_ = 0;
  Status status_;
  QueryStats* stats_ = nullptr;
};

}  // namespace aqv

#endif  // AQV_BASE_EXEC_CONTEXT_H_
