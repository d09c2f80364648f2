#include "base/status.h"

namespace aqv {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid argument";
    case StatusCode::kNotFound:
      return "not found";
    case StatusCode::kUnusable:
      return "unusable";
    case StatusCode::kUnsatisfiable:
      return "unsatisfiable";
    case StatusCode::kUnsupported:
      return "unsupported";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kResourceExhausted:
      return "resource exhausted";
    case StatusCode::kDeadlineExceeded:
      return "deadline exceeded";
    case StatusCode::kUnavailable:
      return "unavailable";
    case StatusCode::kOutOfRange:
      return "out of range";
  }
  return "unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string result = StatusCodeToString(code_);
  if (!message_.empty()) {
    result += ": ";
    result += message_;
  }
  return result;
}

std::ostream& operator<<(std::ostream& os, const Status& status) {
  return os << status.ToString();
}

}  // namespace aqv
