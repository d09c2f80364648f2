#include "base/metrics.h"

#include <bit>
#include <cmath>
#include <cstdio>

namespace aqv {

namespace {

/// Index of the bucket covering `micros`: 0 for 0, else 1 + floor(log2).
int BucketIndex(uint64_t micros) {
  if (micros == 0) return 0;
  int idx = 64 - std::countl_zero(micros);  // 1 + floor(log2(micros))
  return idx < LatencyHistogram::kNumBuckets
             ? idx
             : LatencyHistogram::kNumBuckets - 1;
}

/// Inclusive value range covered by bucket `i` (see BucketIndex).
std::pair<double, double> BucketRange(int i) {
  if (i == 0) return {0.0, 0.0};
  double lo = i == 1 ? 1.0 : static_cast<double>(uint64_t{1} << (i - 1));
  double hi = static_cast<double>(uint64_t{1} << i) - 1.0;
  return {lo, hi};
}

}  // namespace

void LatencyHistogram::Record(uint64_t micros) {
  buckets_[BucketIndex(micros)].fetch_add(1, std::memory_order_relaxed);
  sum_micros_.fetch_add(micros, std::memory_order_relaxed);
  uint64_t cur = max_micros_.load(std::memory_order_relaxed);
  while (micros > cur && !max_micros_.compare_exchange_weak(
                             cur, micros, std::memory_order_relaxed)) {
  }
}

uint64_t LatencyHistogram::count() const {
  uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

double LatencyHistogram::mean_micros() const {
  uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum_micros()) / n;
}

double LatencyHistogram::PercentileMicros(double q) const {
  uint64_t counts[kNumBuckets];
  uint64_t total = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Nearest-rank (1-based, rounded up): the q-th sample exists for any
  // count, so p99 of three samples is the third, not the second.
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(total)));
  if (rank == 0) rank = 1;
  if (rank > total) rank = total;
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (counts[i] == 0) continue;
    if (seen + counts[i] >= rank) {
      auto [lo, hi] = BucketRange(i);
      double within = static_cast<double>(rank - seen) / counts[i];
      return lo + (hi - lo) * within;
    }
    seen += counts[i];
  }
  return BucketRange(kNumBuckets - 1).second;
}

std::vector<uint64_t> LatencyHistogram::BucketCounts() const {
  std::vector<uint64_t> out(kNumBuckets);
  for (int i = 0; i < kNumBuckets; ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

uint64_t LatencyHistogram::BucketUpperMicros(int i) {
  if (i <= 0) return 0;
  if (i >= 63) return ~uint64_t{0};
  return (uint64_t{1} << i) - 1;
}

void LatencyHistogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_micros_.store(0, std::memory_order_relaxed);
  max_micros_.store(0, std::memory_order_relaxed);
}

std::string PromLabeledName(const std::string& family, const std::string& key,
                            const std::string& value) {
  std::string out = family;
  out += '{';
  out += key;
  out += "=\"";
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  out += "\"}";
  return out;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

LatencyHistogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<LatencyHistogram>();
  return *slot;
}

uint64_t MetricsRegistry::CounterValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

int64_t MetricsRegistry::GaugeValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second->value();
}

const LatencyHistogram* MetricsRegistry::FindHistogram(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

void MetricsRegistry::SetHelp(const std::string& family,
                              const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  help_[family] = help;
}

std::string MetricsRegistry::Report() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  char line[256];
  for (const auto& [name, counter] : counters_) {
    std::snprintf(line, sizeof(line), "%-32s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(counter->value()));
    out += line;
  }
  for (const auto& [name, gauge] : gauges_) {
    std::snprintf(line, sizeof(line), "%-32s %lld\n", name.c_str(),
                  static_cast<long long>(gauge->value()));
    out += line;
  }
  for (const auto& [name, hist] : histograms_) {
    std::snprintf(
        line, sizeof(line),
        "%-32s count=%llu mean=%.1fus p50=%.1fus p99=%.1fus max=%lluus\n",
        name.c_str(), static_cast<unsigned long long>(hist->count()),
        hist->mean_micros(), hist->PercentileMicros(0.5),
        hist->PercentileMicros(0.99),
        static_cast<unsigned long long>(hist->max_micros()));
    out += line;
  }
  return out;
}

namespace {

/// "service.plan_cache.hits" -> "aqv_service_plan_cache_hits". A trailing
/// Prometheus label block ('{...}') is kept verbatim — only the base name
/// is sanitized — so labeled metrics like `service.errors_total{code="x"}`
/// export as `aqv_service_errors_total{code="x"}`.
std::string PromName(const std::string& name) {
  size_t labels = name.find('{');
  std::string out = "aqv_";
  for (char c : name.substr(0, labels)) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9');
    out += ok ? c : '_';
  }
  if (labels != std::string::npos) out += name.substr(labels);
  return out;
}

/// The metric name without its label block ("aqv_x{a="1"}" -> "aqv_x").
std::string PromBase(const std::string& prom_name) {
  return prom_name.substr(0, prom_name.find('{'));
}

/// HELP text must escape backslash and newline per the text format.
std::string EscapeHelp(const std::string& help) {
  std::string out;
  for (char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::PromText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  char line[256];
  // Emits the family header (# HELP then # TYPE) once per family; labeled
  // series of one family are adjacent because the maps are name-sorted.
  // Families without registered help self-describe with the internal
  // dotted name, so every family always carries both header lines.
  std::string last_family;
  auto header = [&](const std::string& name, const std::string& family,
                    const char* type) {
    if (family == last_family) return;
    last_family = family;
    std::string dotted = name.substr(0, name.find('{'));
    auto it = help_.find(dotted);
    std::string help = it != help_.end() ? it->second : "aqv metric " + dotted;
    out += "# HELP " + family + " " + EscapeHelp(help) + "\n";
    out += "# TYPE " + family + " " + type + "\n";
  };
  for (const auto& [name, counter] : counters_) {
    std::string p = PromName(name);
    header(name, PromBase(p), "counter");
    std::snprintf(line, sizeof(line), "%s %llu\n", p.c_str(),
                  static_cast<unsigned long long>(counter->value()));
    out += line;
  }
  for (const auto& [name, gauge] : gauges_) {
    std::string p = PromName(name);
    header(name, PromBase(p), "gauge");
    std::snprintf(line, sizeof(line), "%s %lld\n", p.c_str(),
                  static_cast<long long>(gauge->value()));
    out += line;
  }
  for (const auto& [name, hist] : histograms_) {
    std::string p = PromName(name);
    header(name, PromBase(p), "histogram");
    // Native histogram exposition: cumulative counts at each power-of-two
    // upper bound. le values are the *inclusive* integer bucket bounds
    // (0, 1, 3, 7, ...), exact for integer-microsecond samples. Empty
    // trailing buckets are collapsed into the +Inf series to bound output.
    std::vector<uint64_t> counts = hist->BucketCounts();
    int last_nonempty = -1;
    uint64_t total = 0;
    for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
      if (counts[i] != 0) last_nonempty = i;
      total += counts[i];
    }
    uint64_t cumulative = 0;
    for (int i = 0; i <= last_nonempty && i < LatencyHistogram::kNumBuckets - 1;
         ++i) {
      cumulative += counts[i];
      std::snprintf(line, sizeof(line), "%s_bucket{le=\"%llu\"} %llu\n",
                    p.c_str(),
                    static_cast<unsigned long long>(
                        LatencyHistogram::BucketUpperMicros(i)),
                    static_cast<unsigned long long>(cumulative));
      out += line;
    }
    std::snprintf(line, sizeof(line),
                  "%s_bucket{le=\"+Inf\"} %llu\n%s_sum %llu\n%s_count %llu\n",
                  p.c_str(), static_cast<unsigned long long>(total), p.c_str(),
                  static_cast<unsigned long long>(hist->sum_micros()),
                  p.c_str(), static_cast<unsigned long long>(total));
    out += line;
  }
  return out;
}

std::vector<std::pair<std::string, uint64_t>> MetricsRegistry::CounterValues(
    const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, uint64_t>> out;
  for (auto it = counters_.lower_bound(prefix); it != counters_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.emplace_back(it->first, it->second->value());
  }
  return out;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace_back(name, gauge->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) {
    MetricsSnapshot::Hist h;
    h.name = name;
    h.count = hist->count();
    h.sum_micros = hist->sum_micros();
    h.max_micros = hist->max_micros();
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, hist] : histograms_) hist->Reset();
}

}  // namespace aqv
