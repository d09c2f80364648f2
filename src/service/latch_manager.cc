#include "service/latch_manager.h"

#include <algorithm>
#include <cassert>
#include <functional>

namespace aqv {

LatchManager::LatchManager(size_t stripe_count)
    : stripe_count_(stripe_count == 0 ? 1 : stripe_count),
      stripes_(std::make_unique<std::shared_mutex[]>(
          stripe_count == 0 ? 1 : stripe_count)) {}

uint32_t LatchManager::StripeOf(const std::string& name) const {
  return static_cast<uint32_t>(std::hash<std::string>{}(name) % stripe_count_);
}

LatchManager::Guard::Guard(Guard&& other) noexcept
    : mgr_(other.mgr_), ddl_(other.ddl_), stripes_(std::move(other.stripes_)) {
  other.mgr_ = nullptr;
  other.ddl_ = DdlMode::kNone;
  other.stripes_.clear();
}

LatchManager::Guard& LatchManager::Guard::operator=(Guard&& other) noexcept {
  if (this != &other) {
    Release();
    mgr_ = other.mgr_;
    ddl_ = other.ddl_;
    stripes_ = std::move(other.stripes_);
    other.mgr_ = nullptr;
    other.ddl_ = DdlMode::kNone;
    other.stripes_.clear();
  }
  return *this;
}

void LatchManager::Guard::Release() {
  if (mgr_ == nullptr) return;
  // Reverse acquisition order: stripes descending, then the ddl latch.
  for (auto it = stripes_.rbegin(); it != stripes_.rend(); ++it) {
    if (it->second) {
      mgr_->stripes_[it->first].unlock();
    } else {
      mgr_->stripes_[it->first].unlock_shared();
    }
  }
  stripes_.clear();
  switch (ddl_) {
    case DdlMode::kShared:
      mgr_->ddl_.unlock_shared();
      break;
    case DdlMode::kExclusive:
      mgr_->ddl_.unlock();
      break;
    case DdlMode::kNone:
      break;
  }
  ddl_ = DdlMode::kNone;
  mgr_ = nullptr;
}

bool LatchManager::Guard::exclusive() const {
  if (ddl_ == DdlMode::kExclusive) return true;
  for (const auto& [index, exclusive] : stripes_) {
    if (exclusive) return true;
  }
  return false;
}

LatchManager::Guard LatchManager::StatementShared() {
  Guard g;
  ddl_.lock_shared();
  g.mgr_ = this;
  g.ddl_ = Guard::DdlMode::kShared;
  return g;
}

LatchManager::Guard LatchManager::Ddl() {
  Guard g;
  ddl_.lock();
  g.mgr_ = this;
  g.ddl_ = Guard::DdlMode::kExclusive;
  return g;
}

void LatchManager::AcquireWrite(Guard* g,
                                const std::vector<std::string>& writes,
                                const std::vector<std::string>& reads) {
  std::vector<std::pair<uint32_t, bool>> want;
  want.reserve(writes.size() + reads.size());
  for (const std::string& name : writes) {
    want.emplace_back(StripeOf(name), true);
  }
  for (const std::string& name : reads) {
    want.emplace_back(StripeOf(name), false);
  }
  assert(g->mgr_ == this && g->ddl_ == Guard::DdlMode::kShared &&
         g->stripes_.empty());
  // Canonical order: ascending index; on a tied index exclusive wins, then
  // duplicates collapse — one lock operation per stripe.
  std::sort(want.begin(), want.end(),
            [](const std::pair<uint32_t, bool>& a,
               const std::pair<uint32_t, bool>& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second > b.second;
            });
  want.erase(std::unique(want.begin(), want.end(),
                         [](const std::pair<uint32_t, bool>& a,
                            const std::pair<uint32_t, bool>& b) {
                           return a.first == b.first;
                         }),
             want.end());
  for (const auto& [index, exclusive] : want) {
    if (exclusive) {
      stripes_[index].lock();
    } else {
      stripes_[index].lock_shared();
    }
    g->stripes_.emplace_back(index, exclusive);
  }
}

}  // namespace aqv
