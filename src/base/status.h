#ifndef AQV_BASE_STATUS_H_
#define AQV_BASE_STATUS_H_

#include <ostream>
#include <string>
#include <utility>

namespace aqv {

/// Error categories used across the library. The set is deliberately small:
/// callers mostly branch on ok() vs !ok(); codes exist so tests can assert
/// *why* an operation failed (e.g., a view being unusable is kUnusable, not
/// an internal invariant violation).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   // malformed input (bad IR, bad SQL text, bad schema)
  kNotFound,          // missing table/column/view in a catalog lookup
  kUnusable,          // view not usable for the query (conditions C1..C4 fail)
  kUnsatisfiable,     // a condition set is provably unsatisfiable
  kUnsupported,       // outside the dialect handled by this library
  kInternal,          // invariant violation; indicates a bug
  kResourceExhausted, // a statement exceeded its row budget (ExecContext)
  kDeadlineExceeded,  // a statement exceeded its deadline or was cancelled
  kUnavailable,       // transient: admission rejection, injected fault
  kOutOfRange,        // an exact result does not fit its type (INT64 SUM)
};

/// Returns the canonical lowercase name of a status code ("ok", "not found"...).
const char* StatusCodeToString(StatusCode code);

/// Arrow/RocksDB-style status object. Functions that can fail return Status
/// (or Result<T>); the library does not throw exceptions across API
/// boundaries.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Unusable(std::string msg) {
    return Status(StatusCode::kUnusable, std::move(msg));
  }
  static Status Unsatisfiable(std::string msg) {
    return Status(StatusCode::kUnsatisfiable, std::move(msg));
  }
  static Status Unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<code name>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// Propagates a non-OK Status out of the current function.
#define AQV_RETURN_NOT_OK(expr)                 \
  do {                                          \
    ::aqv::Status _aqv_status = (expr);         \
    if (!_aqv_status.ok()) return _aqv_status;  \
  } while (false)

}  // namespace aqv

#endif  // AQV_BASE_STATUS_H_
