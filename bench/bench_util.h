#ifndef AQV_BENCH_BENCH_UTIL_H_
#define AQV_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "base/result.h"

namespace aqv {

/// Unwraps a Result in bench setup code, aborting on failure (benchmarks
/// have no gtest assertions).
template <typename T>
T ValueOrDie(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "bench setup: %s: %s\n", what,
                 result.status().ToString().c_str());
    std::abort();
  }
  return *std::move(result);
}

inline void CheckOrDie(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "bench setup: %s: %s\n", what,
                 status.ToString().c_str());
    std::abort();
  }
}

/// Microseconds elapsed since `start`.
inline double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Median of `v` (the mean of the middle two for even sizes), 0 if empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

/// Consumes "--name=value" from a bench flag; returns nullptr if `arg` is
/// not this flag (so unmatched argv entries can fall through, e.g. to
/// google-benchmark).
inline const char* FlagValue(const char* arg, const char* name) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    return arg + len + 1;
  }
  return nullptr;
}

}  // namespace aqv

#endif  // AQV_BENCH_BENCH_UTIL_H_
