#ifndef AQV_SERVICE_PLAN_CACHE_H_
#define AQV_SERVICE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ir/query.h"
#include "rewrite/optimizer.h"

namespace aqv {

/// A bounded, thread-safe LRU map from strings to shared, immutable
/// values: a hit copies one pointer under the mutex, and a value evicted
/// or replaced while a reader holds it stays alive until the reader drops
/// it. A zero-capacity map stores nothing.
template <typename Value>
class LruMap {
 public:
  using Ptr = std::shared_ptr<const Value>;

  explicit LruMap(size_t capacity) : capacity_(capacity) {}

  /// Returns the value for `key` and promotes it to most-recently-used, or
  /// nullptr on miss.
  Ptr Lookup(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);  // promote to MRU
    return it->second->second;
  }

  /// Inserts (or replaces) the value for `key`, evicting the LRU value when
  /// over capacity.
  void Insert(const std::string& key, Ptr value) {
    if (capacity_ == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.emplace_front(key, std::move(value));
    index_[key] = lru_.begin();
    if (lru_.size() > capacity_) {
      index_.erase(lru_.back().first);
      lru_.pop_back();
    }
  }

  /// Drops the value for `key` if present. Returns 1 or 0.
  size_t Erase(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) return 0;
    lru_.erase(it->second);
    index_.erase(it);
    return 1;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lru_.size();
  }
  size_t capacity() const { return capacity_; }

  /// Every (key, value) pair, least-recently-used first: re-Inserting them
  /// in order reproduces the recency order.
  std::vector<std::pair<std::string, Ptr>> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return {lru_.rbegin(), lru_.rend()};
  }

 private:
  using List = std::list<std::pair<std::string, Ptr>>;  // front = MRU

  mutable std::mutex mu_;
  size_t capacity_;
  List lru_;
  std::unordered_map<std::string, typename List::iterator> index_;
};

/// The schema a cached object was built on: the catalog and view registry
/// objects, weakly held so that a cached object never keeps a replaced
/// schema alive, yet its identity stays unambiguous. DDL replaces both
/// copy-on-write, so each object is one schema version.
struct SchemaStamp {
  std::weak_ptr<const void> catalog;
  std::weak_ptr<const void> views;
};

/// The service's plan cache: optimized plans keyed by the canonical query
/// serialization of ir/fingerprint.h (a full serialization, not a hash,
/// so two distinct queries never share an entry), fronted by a map from
/// statement text to the parsed statement.
///
/// The usability conditions a rewriting passes (C1-C4 and their set and
/// HAVING forms) are conditions on the query, the view definitions and the
/// declared keys, so the candidate set an entry keeps is valid on every
/// database of its schema; only the cost-based choice among the candidates
/// depends on data. The owning service therefore treats an entry as:
///   - current, served as is, while its schema, the quarantine generation
///     and the Database::VersionOf of every dependency are those it was
///     costed on;
///   - re-costable when only dependency versions differ: its candidates
///     are re-priced against the reader's database (PlanCandidates,
///     ChoosePlan) and a re-stamped entry replaces it, naming another
///     candidate if the choice flipped. No rewrite search runs;
///   - stale, re-optimized in full, when the schema or the
///     quarantine set changed, when a registered view has been stored
///     since, or when the entry keeps no complete candidate set: its
///     search hit the deadline, a view's rewriting failed, or it was
///     restored from a checkpoint. Such an entry is served only on the
///     data versions it was stamped with.
///
/// Entries are immutable once inserted and handed out as
/// shared_ptr<const Entry>; a re-stamped entry shares its plan and
/// candidates with the one it replaces.
class PlanCache {
 public:
  struct Entry : PlanRecord, SchemaStamp {
    std::shared_ptr<const Query> plan;
    /// The complete candidate set `plan` was chosen from (plan points into
    /// it); null when the entry cannot be re-costed.
    PlanCandidatesPtr candidates;
    /// The service's quarantine generation whose view set the search
    /// excluded.
    uint64_t quarantine_generation = 0;
    /// Parallel to `dependencies`: each one's Database::VersionOf when the
    /// entry was costed.
    std::vector<uint64_t> versions;
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  /// One parsed SELECT text: what a repeated statement needs before the
  /// plan lookup, so that it is neither parsed nor re-keyed.
  struct Statement : SchemaStamp {
    Query query;
    std::string key;       // CanonicalCacheKey(query); "" when not caching
    uint64_t fingerprint = 0;  // QueryFingerprint(query)
    /// The FROM names and every table their view definitions read, for
    /// the corruption-quarantine check.
    std::vector<std::string> dependencies;
  };
  using StatementPtr = std::shared_ptr<const Statement>;

  /// `capacity` bounds each of the two maps; 0 disables both.
  explicit PlanCache(size_t capacity)
      : entries_(capacity), statements_(capacity) {}

  /// The entry for `key` (promoted to most-recently-used), or nullptr.
  EntryPtr Lookup(const std::string& key);

  /// Inserts (or replaces) the entry for `key`, evicting the LRU entry when
  /// over capacity.
  void Insert(const std::string& key, EntryPtr entry);

  /// Drops the entry for `key` if present (a cached plan that just failed
  /// mid-execution; the next statement re-optimizes). Returns 1 or 0.
  size_t Erase(const std::string& key) { return entries_.Erase(key); }

  size_t size() const { return entries_.size(); }
  size_t capacity() const { return entries_.capacity(); }

  /// Every (key, entry) pair, least-recently-used first. The storage layer
  /// persists this across restarts so a recovered service starts with a
  /// warm cache.
  std::vector<std::pair<std::string, EntryPtr>> Snapshot() const {
    return entries_.Snapshot();
  }

  /// The statement-text map's key: the exact text plus the identity of the
  /// schema objects it was parsed and bound against.
  static std::string StatementKey(std::string_view text, const void* catalog,
                                  const void* views);
  StatementPtr LookupStatement(const std::string& key) {
    return statements_.Lookup(key);
  }
  void InsertStatement(const std::string& key, StatementPtr statement) {
    statements_.Insert(key, std::move(statement));
  }

 private:
  LruMap<Entry> entries_;
  LruMap<Statement> statements_;
};

}  // namespace aqv

#endif  // AQV_SERVICE_PLAN_CACHE_H_
