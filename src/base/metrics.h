#ifndef AQV_BASE_METRICS_H_
#define AQV_BASE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace aqv {

/// A monotonically increasing event counter safe for concurrent use.
/// Increments are relaxed: counters order nothing, they only count.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A point-in-time level (cache occupancy, configured capacity, queue
/// depth). Unlike a Counter it may go down; updates are relaxed atomics.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A lock-free latency histogram over microseconds with power-of-two
/// buckets: bucket i counts samples in [2^(i-1), 2^i), bucket 0 counts
/// sub-microsecond samples. Percentiles are recovered by linear
/// interpolation within the bucket, so they are approximate (at worst a
/// factor-of-two bucket wide) but never require locking on the record path.
class LatencyHistogram {
 public:
  static constexpr int kNumBuckets = 64;

  void Record(uint64_t micros);

  uint64_t count() const;
  uint64_t sum_micros() const {
    return sum_micros_.load(std::memory_order_relaxed);
  }
  double mean_micros() const;

  /// Relaxed snapshot of every bucket count, index-aligned with
  /// BucketUpperMicros. Used by the Prometheus exposition and the
  /// telemetry sampler; not a consistent cut (buckets may be mid-update)
  /// but each bucket value is monotone, so cumulative sums stay monotone.
  std::vector<uint64_t> BucketCounts() const;

  /// Inclusive upper bound in microseconds of bucket `i`: 0 for bucket 0,
  /// else 2^i - 1 (samples are integer micros, so this is exact). The last
  /// bucket absorbs everything larger and has no finite bound.
  static uint64_t BucketUpperMicros(int i);

  /// Largest sample ever recorded (exact, not bucket-rounded) — the tail
  /// value that pages you, reported alongside the approximate percentiles.
  uint64_t max_micros() const {
    return max_micros_.load(std::memory_order_relaxed);
  }

  /// Approximate value at quantile `q` in (0, 1], e.g. 0.5 for p50. Returns
  /// 0 when the histogram is empty.
  double PercentileMicros(double q) const;

  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> sum_micros_{0};
  std::atomic<uint64_t> max_micros_{0};
};

/// Registry-internal metric name for one series of a labeled family, with
/// the label value escaped per the Prometheus text format (backslash,
/// double-quote, and newline). Example:
///   PromLabeledName("service.errors_total", "code", "bad\"value")
///     -> service.errors_total{code="bad\"value"}
/// Build labeled names through this so PromText can emit the stored label
/// block verbatim and still be parseable.
std::string PromLabeledName(const std::string& family, const std::string& key,
                            const std::string& value);

/// Point-in-time copy of every registered metric, taken under the registry
/// mutex with relaxed value reads. This is what the telemetry sampler
/// diffs between windows.
struct MetricsSnapshot {
  struct Hist {
    std::string name;
    uint64_t count = 0;
    uint64_t sum_micros = 0;
    uint64_t max_micros = 0;
  };
  std::vector<std::pair<std::string, uint64_t>> counters;  // name-sorted
  std::vector<std::pair<std::string, int64_t>> gauges;     // name-sorted
  std::vector<Hist> histograms;                            // name-sorted
};

/// Name -> metric registry. Metrics are created on first use and live as
/// long as the registry, so callers may cache the returned references.
/// Creation takes a mutex; the returned Counter/LatencyHistogram objects are
/// themselves lock-free.
class MetricsRegistry {
 public:
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  LatencyHistogram& GetHistogram(const std::string& name);

  /// Reads a metric by name: 0, or null, when none is registered. Unlike
  /// Get*, never registers one, so a const registry can be read.
  uint64_t CounterValue(const std::string& name) const;
  int64_t GaugeValue(const std::string& name) const;
  const LatencyHistogram* FindHistogram(const std::string& name) const;

  /// Attach Prometheus `# HELP` text to a metric family (the name before
  /// any label block). Families without registered help export their own
  /// dotted name as help text.
  void SetHelp(const std::string& family, const std::string& help);

  /// Multi-line "name value" / "name count=.. mean=.. p50=.. p99=.. max=.."
  /// report, sorted by metric name.
  std::string Report() const;

  /// Prometheus text exposition format: `# HELP` + `# TYPE` per metric
  /// family; histograms export natively as cumulative `_bucket{le="..."}`
  /// series over the power-of-two bucket bounds plus `_sum`/`_count`.
  /// Names are prefixed "aqv_" and sanitized to [a-z0-9_], except that a
  /// trailing label block — as in `service.errors_total{code="x"}` — is
  /// exported verbatim (escape values via PromLabeledName at creation).
  std::string PromText() const;

  /// (name, value) of every counter whose name starts with `prefix`,
  /// sorted by name. Lets embedders enumerate dynamically labeled families
  /// (per-status-code error counters) without parsing the Prom text.
  std::vector<std::pair<std::string, uint64_t>> CounterValues(
      const std::string& prefix) const;

  /// Snapshot of all registered metrics (see MetricsSnapshot).
  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric (the metrics stay registered).
  void ResetAll();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
  std::map<std::string, std::string> help_;
};

}  // namespace aqv

#endif  // AQV_BASE_METRICS_H_
