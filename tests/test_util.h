#ifndef AQV_TESTS_TEST_UTIL_H_
#define AQV_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "base/result.h"
#include "base/status.h"
#include "exec/evaluator.h"
#include "exec/table.h"
#include "ir/printer.h"
#include "ir/query.h"
#include "ir/views.h"

namespace aqv {

// _s is a copy, not a reference: `expr` is often `SomeResult().status()`,
// whose referent dies with the temporary Result at the end of the
// declaration — a reference would dangle on the next line.
#define ASSERT_OK(expr)                                          \
  do {                                                           \
    const ::aqv::Status _s = (expr);                             \
    ASSERT_TRUE(_s.ok()) << "status: " << _s.ToString();         \
  } while (false)

#define EXPECT_OK(expr)                                          \
  do {                                                           \
    const ::aqv::Status _s = (expr);                             \
    EXPECT_TRUE(_s.ok()) << "status: " << _s.ToString();         \
  } while (false)

#define ASSERT_OK_AND_ASSIGN(lhs, expr)                              \
  AQV_ASSIGN_OR_RETURN_IMPL_TEST(                                    \
      AQV_ASSIGN_OR_RETURN_NAME(_test_result_, __LINE__), lhs, expr)

#define AQV_ASSIGN_OR_RETURN_IMPL_TEST(tmp, lhs, expr)               \
  auto tmp = (expr);                                                 \
  ASSERT_TRUE(tmp.ok()) << "status: " << tmp.status().ToString();    \
  lhs = std::move(tmp).value()

/// The AQV_TEST_SEED environment variable, 0 when unset or empty.
inline uint64_t TestSeedOverride() {
  const char* env = std::getenv("AQV_TEST_SEED");
  if (env == nullptr || *env == '\0') return 0;
  return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
}

/// Seed for a randomized test: `default_seed` when AQV_TEST_SEED is unset
/// (or 0); with AQV_TEST_SEED=n, `default_seed` XOR n times an odd
/// constant. That map is one-to-one in `default_seed`, so the instances of
/// a parameterized test (each with its own default) keep distinct seeds
/// under every n. Pair with SeedTrace so every failure of a randomized
/// sweep prints the value that replays it:
///
///   uint64_t seed = TestSeed(1000 + GetParam());
///   SCOPED_TRACE(SeedTrace(seed));
///
/// Replay: AQV_TEST_SEED=<n> ./property_test --gtest_filter=<failing test>.
inline uint64_t TestSeed(uint64_t default_seed) {
  return default_seed ^ (TestSeedOverride() * 0x9e3779b97f4a7c15ULL);
}

/// The failure annotation naming a randomized test's seed (see TestSeed)
/// and the AQV_TEST_SEED value that replays it.
inline std::string SeedTrace(uint64_t seed) {
  return "seed " + std::to_string(seed) + ": replay with AQV_TEST_SEED=" +
         std::to_string(TestSeedOverride());
}

/// Evaluates `a` and `b` against `db` (+`views`) and expects multiset-equal
/// results — the Definition 2.2 check that drives every rewriting test.
inline void ExpectQueriesEquivalentOn(const Query& a, const Query& b,
                                      const Database& db,
                                      const ViewRegistry* views) {
  Evaluator eval_a(&db, views);
  Evaluator eval_b(&db, views);
  Result<Table> ra = eval_a.Execute(a);
  ASSERT_TRUE(ra.ok()) << "evaluating " << ToSql(a) << ": "
                       << ra.status().ToString();
  Result<Table> rb = eval_b.Execute(b);
  ASSERT_TRUE(rb.ok()) << "evaluating " << ToSql(b) << ": "
                       << rb.status().ToString();
  EXPECT_TRUE(MultisetEqual(*ra, *rb))
      << "queries disagree:\n  Q:  " << ToSql(a) << "\n  Q': " << ToSql(b)
      << "\n  " << DescribeMultisetDifference(*ra, *rb) << "\nleft:\n"
      << ra->ToString() << "right:\n" << rb->ToString();
}

/// ExpectQueriesEquivalentOn with a floating-point tolerance, for workloads
/// whose aggregates sum DOUBLE data (re-associated sums differ in the last
/// bits).
inline void ExpectQueriesApproxEquivalentOn(const Query& a, const Query& b,
                                            const Database& db,
                                            const ViewRegistry* views) {
  Evaluator eval_a(&db, views);
  Evaluator eval_b(&db, views);
  Result<Table> ra = eval_a.Execute(a);
  ASSERT_TRUE(ra.ok()) << "evaluating " << ToSql(a) << ": "
                       << ra.status().ToString();
  Result<Table> rb = eval_b.Execute(b);
  ASSERT_TRUE(rb.ok()) << "evaluating " << ToSql(b) << ": "
                       << rb.status().ToString();
  EXPECT_TRUE(MultisetAlmostEqual(*ra, *rb))
      << "queries disagree:\n  Q:  " << ToSql(a) << "\n  Q': " << ToSql(b)
      << "\nleft:\n" << ra->ToString() << "right:\n" << rb->ToString();
}

}  // namespace aqv

#endif  // AQV_TESTS_TEST_UTIL_H_
