#include "service/plan_cache.h"

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
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // promote to MRU
  return it->second->second;
}

void PlanCache::Insert(const std::string& key, EntryPtr entry) {
  if (capacity_ == 0) return;
  if (FailpointFires("plan_cache.insert")) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(entry));
  index_[key] = lru_.begin();
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

size_t PlanCache::Erase(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return 0;
  lru_.erase(it->second);
  index_.erase(it);
  return 1;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

std::vector<std::pair<std::string, PlanCache::EntryPtr>> PlanCache::Snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, EntryPtr>> out;
  out.reserve(lru_.size());
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) out.push_back(*it);
  return out;
}

}  // namespace aqv
