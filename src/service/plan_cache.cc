#include "service/plan_cache.h"

#include <cstdio>

#include "base/failpoint.h"

namespace aqv {

namespace {

/// Lookup/Insert do not return Status, so injected faults here degrade
/// semantically instead of propagating: a faulted lookup is a miss (the
/// statement re-optimizes), a faulted insert skips caching (the next
/// statement re-optimizes). Both keep results correct — exactly the
/// contract the chaos differential harness checks.
bool FailpointFires(const char* name) {
  return FailpointRegistry::Global().any_armed() &&
         !FailpointRegistry::Global().Evaluate(name).ok();
}

}  // namespace

PlanCache::EntryPtr PlanCache::Lookup(const std::string& key) {
  if (FailpointFires("plan_cache.lookup")) return nullptr;
  return entries_.Lookup(key);
}

void PlanCache::Insert(const std::string& key, EntryPtr entry) {
  if (capacity() == 0) return;
  if (FailpointFires("plan_cache.insert")) return;
  entries_.Insert(key, std::move(entry));
}

std::string PlanCache::StatementKey(std::string_view text, const void* catalog,
                                    const void* views) {
  char schema[48];
  int n = std::snprintf(schema, sizeof(schema), "%p %p\n", catalog, views);
  std::string key(schema, static_cast<size_t>(n));
  key.append(text);
  return key;
}

}  // namespace aqv
