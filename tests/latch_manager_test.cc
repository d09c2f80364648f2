#include "service/latch_manager.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace aqv {
namespace {

TEST(LatchManagerTest, StripeOfIsStableAndInRange) {
  LatchManager latches(8);
  EXPECT_EQ(latches.stripe_count(), 8u);
  for (const std::string& name : {"R", "S", "a_long_table_name", ""}) {
    uint32_t stripe = latches.StripeOf(name);
    EXPECT_LT(stripe, 8u);
    EXPECT_EQ(stripe, latches.StripeOf(name));  // stable across calls
  }
}

TEST(LatchManagerTest, ZeroStripesClampsToOne) {
  LatchManager latches(0);
  EXPECT_EQ(latches.stripe_count(), 1u);
  EXPECT_EQ(latches.StripeOf("anything"), 0u);
}

TEST(LatchManagerTest, GuardTracksStripesAndExclusivity) {
  LatchManager latches(8);
  {
    LatchManager::Guard g = latches.StatementShared();
    EXPECT_EQ(g.stripes_held(), 0u);
    EXPECT_FALSE(g.exclusive());
    latches.AcquireWrite(&g, {}, {"R", "S", "T"});
    EXPECT_GT(g.stripes_held(), 0u);
    EXPECT_LE(g.stripes_held(), 3u);  // names may share a stripe
    EXPECT_FALSE(g.exclusive());
  }
  {
    LatchManager::Guard g = latches.StatementShared();
    latches.AcquireWrite(&g, {"R"}, {"S"});
    EXPECT_TRUE(g.exclusive());
  }
  {
    LatchManager::Guard g = latches.Ddl();
    EXPECT_EQ(g.stripes_held(), 0u);
    EXPECT_TRUE(g.exclusive());
  }
}

TEST(LatchManagerTest, WriteCollidingWithReadTakesExclusive) {
  LatchManager latches(4);
  LatchManager::Guard g = latches.StatementShared();
  // Same name on both sides: one stripe, exclusive wins.
  latches.AcquireWrite(&g, {"R"}, {"R"});
  EXPECT_EQ(g.stripes_held(), 1u);
  EXPECT_TRUE(g.exclusive());
}

TEST(LatchManagerTest, AllSharedHoldsEveryStripe) {
  LatchManager latches(16);
  // Enough distinct names to hash onto every stripe, all on the read side.
  std::vector<std::string> names;
  std::vector<bool> covered(16, false);
  for (int i = 0; std::count(covered.begin(), covered.end(), false) > 0; ++i) {
    names.push_back("t" + std::to_string(i));
    covered[latches.StripeOf(names.back())] = true;
  }
  LatchManager::Guard g = latches.StatementShared();
  latches.AcquireWrite(&g, {}, names);
  EXPECT_EQ(g.stripes_held(), 16u);
  EXPECT_FALSE(g.exclusive());
}

TEST(LatchManagerTest, MoveTransfersOwnership) {
  LatchManager latches(4);
  LatchManager::Guard g1 = latches.StatementShared();
  latches.AcquireWrite(&g1, {"R"}, {});
  LatchManager::Guard g2 = std::move(g1);
  EXPECT_EQ(g1.stripes_held(), 0u);
  EXPECT_TRUE(g2.exclusive());
  g2.Release();
  // The stripe is free again: re-acquiring exclusively must not block.
  LatchManager::Guard g3 = latches.StatementShared();
  latches.AcquireWrite(&g3, {"R"}, {});
  EXPECT_TRUE(g3.exclusive());
}

TEST(LatchManagerTest, SharedHoldersOverlapExclusiveExcludes) {
  LatchManager latches(4);
  LatchManager::Guard reader = latches.StatementShared();
  latches.AcquireWrite(&reader, {}, {"R"});

  // A second shared holder of the same stripe gets in while the first holds.
  std::atomic<bool> second_reader_in{false};
  std::thread t1([&] {
    LatchManager::Guard g = latches.StatementShared();
    latches.AcquireWrite(&g, {}, {"R"});
    second_reader_in.store(true);
  });
  t1.join();
  EXPECT_TRUE(second_reader_in.load());

  // A writer on that stripe blocks until the reader releases.
  std::atomic<bool> writer_done{false};
  std::thread t2([&] {
    LatchManager::Guard g = latches.StatementShared();
    latches.AcquireWrite(&g, {"R"}, {});
    writer_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(writer_done.load());
  reader.Release();
  t2.join();
  EXPECT_TRUE(writer_done.load());
}

TEST(LatchManagerTest, DdlExcludesStatements) {
  LatchManager latches(4);
  LatchManager::Guard ddl = latches.Ddl();
  std::atomic<bool> statement_in{false};
  std::thread t([&] {
    LatchManager::Guard g = latches.StatementShared();
    statement_in.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(statement_in.load());
  ddl.Release();
  t.join();
  EXPECT_TRUE(statement_in.load());
}

// Many threads taking overlapping write/read footprints in every order must
// neither deadlock (canonical stripe order) nor corrupt the counters.
TEST(LatchManagerTest, OverlappingFootprintsDoNotDeadlock) {
  LatchManager latches(4);
  const std::vector<std::string> names = {"A", "B", "C", "D", "E", "F"};
  std::atomic<int> completed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        LatchManager::Guard g = latches.StatementShared();
        // Rotate which names are written vs read so footprints overlap in
        // both directions across threads.
        std::vector<std::string> writes = {names[(t + i) % names.size()]};
        std::vector<std::string> reads = {names[(t + i + 1) % names.size()],
                                          names[(t + i + 3) % names.size()]};
        latches.AcquireWrite(&g, writes, reads);
        completed.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(completed.load(), 8 * 200);
}

}  // namespace
}  // namespace aqv
