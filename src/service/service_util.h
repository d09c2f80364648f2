#ifndef AQV_SERVICE_SERVICE_UTIL_H_
#define AQV_SERVICE_SERVICE_UTIL_H_

// Helpers shared by the files that define QueryService's members; not part
// of the service's API.

#include <chrono>
#include <string>
#include <string_view>

#include "rewrite/optimizer.h"
#include "service/query_service.h"

namespace aqv {

using Clock = std::chrono::steady_clock;

inline uint64_t ElapsedMicros(Clock::time_point start) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   Clock::now() - start)
                                   .count());
}

inline std::string TrimStatement(std::string_view s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  size_t e = s.find_last_not_of(" \t\r\n;");
  if (b == std::string::npos || e == std::string::npos || e < b) return "";
  return std::string(s.substr(b, e - b + 1));
}

/// True when `stamp` was taken on `state`'s catalog and view registry. The
/// stamp's weak_ptrs keep their control blocks alive, so a replaced
/// object's address can never be mistaken for a newer one.
inline bool SameSchema(const SchemaStamp& stamp, const ServiceSnapshot& state) {
  auto same = [](const auto& recorded, const auto& current) {
    return !recorded.owner_before(current) && !current.owner_before(recorded);
  };
  return same(stamp.catalog, state.catalog) && same(stamp.views, state.views);
}

/// True when `entry` was costed on `state`: its schema and the same
/// version of every dependency.
inline bool OptimizedOn(const PlanCache::Entry& entry,
                        const ServiceSnapshot& state) {
  if (!SameSchema(entry, state)) return false;
  for (size_t i = 0; i < entry.dependencies.size(); ++i) {
    if (state.db.VersionOf(entry.dependencies[i]) != entry.versions[i]) {
      return false;
    }
  }
  return true;
}

/// How a cached entry may serve a reader (see PlanCache).
enum class EntryFit { kCurrent, kRecost, kStale };

inline EntryFit FitOf(const PlanCache::Entry& entry,
                      const ServiceSnapshot& state,
                      uint64_t quarantine_generation) {
  if (entry.quarantine_generation != quarantine_generation) {
    return EntryFit::kStale;
  }
  if (OptimizedOn(entry, state)) return EntryFit::kCurrent;
  if (entry.candidates == nullptr || !SameSchema(entry, state) ||
      CountStoredViews(*state.views, state.db) !=
          entry.candidates->stored_views) {
    return EntryFit::kStale;
  }
  return EntryFit::kRecost;
}

/// Records `state` as the one `entry` was costed on.
inline void StampState(PlanCache::Entry* entry, const ServiceSnapshot& state) {
  entry->catalog = state.catalog;
  entry->views = state.views;
  entry->versions.clear();
  for (const std::string& dep : entry->dependencies) {
    entry->versions.push_back(state.db.VersionOf(dep));
  }
}

/// Total rows across every table of one side of a delta.
inline size_t CountRows(const std::map<std::string, std::vector<Row>>& side) {
  size_t n = 0;
  for (const auto& [table, rows] : side) n += rows.size();
  return n;
}

/// The first base table in `view`'s definition closure that `quarantine`
/// names, or "" when there is none. Views in the closure never count: they
/// are derivations, recomputed from their own inputs.
inline std::string QuarantinedBaseOf(
    const std::string& view, const ViewRegistry& views,
    const std::map<std::string, std::string>& quarantine) {
  std::vector<std::string> closure;
  CollectDependencies({view}, views, &closure);
  for (const std::string& n : closure) {
    if (!views.Has(n) && quarantine.count(n) > 0) return n;
  }
  return "";
}

/// One statement's attribution as `key=value` tokens: the wall clock, the
/// disjoint phases and their share of it, and the work counters. SLOWLOG,
/// STATS ATTRIBUTION (over summed QueryStats) and EXPLAIN ANALYZE all
/// render through it.
std::string RenderAttribution(const QueryStats& qs);

/// Where one statement's numbers come from: its fingerprint (0 for a
/// write), the epoch it ran against and whether its plan was cached.
std::string RenderProvenance(const QueryStats& qs);

}  // namespace aqv

#endif  // AQV_SERVICE_SERVICE_UTIL_H_
