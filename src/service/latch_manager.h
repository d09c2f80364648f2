#ifndef AQV_SERVICE_LATCH_MANAGER_H_
#define AQV_SERVICE_LATCH_MANAGER_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

namespace aqv {

/// Two-level latching for the query service's writers and schema changes.
/// Reads take no latch at all: a pin copies the published head pointer (see
/// QueryService).
///
///   level 0 — one `ddl` shared_mutex, taken by writers only. Held shared
///     by a row write (INSERT, DELETE, UPDATE, REFRESH, LOAD into an
///     existing table) for its whole run, so the catalog and registry stay
///     fixed while it maintains views and publishes. Held exclusive by
///     statements that change the *schema* (CREATE TABLE/VIEW, LOAD of a
///     new table, Bootstrap) and by checkpoints, which need a quiesced
///     database; readers do not wait for them.
///
///   level 1 — `stripe_count` shared_mutexes, each covering the tables and
///     materialized views whose names hash onto it. A writer acquires the
///     stripes of the names it writes exclusive and those a view recompute
///     reads shared, so writes to table A do not block writes touching
///     only table B (unless the two names collide onto one stripe).
///
/// Deadlock freedom: every acquirer takes level 0 before level 1 and locks
/// its stripes in ascending index order (exclusive before shared on a tied
/// index); DDL takes level 0 exclusive and needs no stripes at all. All
/// orders are consistent with one global total order, so no cycle can form.
class LatchManager {
 public:
  static constexpr size_t kDefaultStripes = 16;

  explicit LatchManager(size_t stripe_count = kDefaultStripes);

  LatchManager(const LatchManager&) = delete;
  LatchManager& operator=(const LatchManager&) = delete;

  /// RAII ownership of one statement's latches. Movable; releases stripes
  /// in descending order, then the ddl latch, on destruction or Release().
  class Guard {
   public:
    Guard() = default;
    Guard(Guard&& other) noexcept;
    Guard& operator=(Guard&& other) noexcept;
    ~Guard() { Release(); }

    void Release();

    /// Number of level-1 stripes this guard holds.
    size_t stripes_held() const { return stripes_.size(); }
    /// True if any held stripe (or the ddl latch) is exclusive.
    bool exclusive() const;

   private:
    friend class LatchManager;

    enum class DdlMode : uint8_t { kNone, kShared, kExclusive };

    LatchManager* mgr_ = nullptr;
    DdlMode ddl_ = DdlMode::kNone;
    /// (stripe index, exclusive), strictly ascending by index.
    std::vector<std::pair<uint32_t, bool>> stripes_;
  };

  /// Level 0 shared: a row write's run — the writer then adds stripes
  /// with AcquireWrite.
  Guard StatementShared();

  /// Level 0 exclusive: total exclusivity, for schema changes. No stripes
  /// are needed (or taken) — nothing else can be running.
  Guard Ddl();

  /// Adds the stripes covering `writes` exclusive and `reads` shared to `g`
  /// (which must hold the ddl latch shared and no stripes yet). A stripe
  /// named by both sides is taken exclusive.
  void AcquireWrite(Guard* g, const std::vector<std::string>& writes,
                    const std::vector<std::string>& reads);

  size_t stripe_count() const { return stripe_count_; }

  /// Stripe index covering `name` (stable hash, any thread).
  uint32_t StripeOf(const std::string& name) const;

 private:
  size_t stripe_count_;
  std::shared_mutex ddl_;
  std::unique_ptr<std::shared_mutex[]> stripes_;
};

}  // namespace aqv

#endif  // AQV_SERVICE_LATCH_MANAGER_H_
