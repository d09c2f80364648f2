#ifndef AQV_SERVICE_PLAN_CACHE_H_
#define AQV_SERVICE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ir/query.h"
#include "rewrite/optimizer.h"

namespace aqv {

/// A bounded, thread-safe LRU cache of optimized plans, keyed by the
/// canonical query fingerprint string of ir/fingerprint.h. Keys are full
/// canonical serializations (not just 64-bit hashes), so two distinct
/// queries can never collide onto one entry.
///
/// The cache is never invalidated from the write path. Each entry records
/// the state it was optimized on — the catalog and view registry objects
/// (DDL replaces them copy-on-write, so each object is one schema version)
/// and the Database::VersionOf of every dependency. The owning service
/// treats an entry whose recorded state differs from the reader's pinned
/// state as a miss and inserts the re-optimized entry in its place, so a
/// plan is only ever served on the state it was chosen for — whether the
/// reader is at the head or on an older snapshot.
///
/// Entries are immutable once inserted and handed out as
/// shared_ptr<const Entry>: a hit copies one pointer under the mutex (not a
/// deep Query), keeping the critical section tiny on the hot path, and an
/// entry evicted or replaced mid-execution stays alive until its last
/// reader drops it.
class PlanCache {
 public:
  struct Entry : PlanRecord {
    Query plan;
    /// The state this entry was optimized on: the catalog and view
    /// registry (weakly held, so an entry never keeps a replaced schema
    /// object alive, yet its identity stays unambiguous) and, parallel to
    /// `dependencies`, each dependency's Database::VersionOf.
    std::weak_ptr<const void> catalog;
    std::weak_ptr<const void> views;
    std::vector<uint64_t> versions;
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  explicit PlanCache(size_t capacity) : capacity_(capacity) {}

  /// Returns the entry for `key` and promotes it to most-recently-used, or
  /// nullptr on miss.
  EntryPtr Lookup(const std::string& key);

  /// Inserts (or replaces) the entry for `key`, evicting the LRU entry when
  /// over capacity. A zero-capacity cache stores nothing.
  void Insert(const std::string& key, EntryPtr entry);

  /// Drops the entry for `key` if present (a cached plan that just failed
  /// mid-execution; the next statement re-optimizes). Returns 1 or 0.
  size_t Erase(const std::string& key);

  size_t size() const;
  size_t capacity() const { return capacity_; }

  /// Every (key, entry) pair, least-recently-used first: re-Inserting them
  /// in order reproduces the recency order. The storage layer persists this
  /// across restarts so a recovered service starts with a warm cache.
  std::vector<std::pair<std::string, EntryPtr>> Snapshot() const;

 private:
  using LruList = std::list<std::pair<std::string, EntryPtr>>;  // front = MRU

  mutable std::mutex mu_;
  size_t capacity_;
  LruList lru_;
  std::unordered_map<std::string, LruList::iterator> index_;
};

}  // namespace aqv

#endif  // AQV_SERVICE_PLAN_CACHE_H_
