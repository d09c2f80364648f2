// Warehouse maintenance scenario: the telephony warehouse of Example 1.1
// receives nightly batches of new calls. The monthly summary view V1 is
// kept fresh *incrementally* (the counting algorithm specialized to this
// dialect), and the business query keeps being answered from the view —
// demonstrating the full life cycle the paper's motivation presumes:
//
//     load -> materialize V1 -> [batch -> maintain V1 -> query V1]*
//
// After every batch, the maintained view is checked against a from-scratch
// recomputation.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>

#include "exec/evaluator.h"
#include "ir/printer.h"
#include "maintain/incremental.h"
#include "rewrite/rewriter.h"
#include "workload/telephony.h"

using namespace aqv;  // NOLINT: example brevity

namespace {

template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, result.status().ToString().c_str());
    std::exit(1);
  }
  return *std::move(result);
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

Delta NightlyBatch(int day, int first_id, int size) {
  std::mt19937_64 rng(1000 + day);
  std::uniform_int_distribution<int> plan(0, 19);
  std::uniform_int_distribution<int> cust(0, 999);
  std::uniform_real_distribution<double> charge(0.05, 10.0);
  Delta d;
  for (int i = 0; i < size; ++i) {
    d.inserts["Calls"].push_back(
        {Value::Int64(first_id + i), Value::Int64(cust(rng)),
         Value::Int64(plan(rng)), Value::Int64(day), Value::Int64(12),
         Value::Int64(1995), Value::Double(charge(rng))});
  }
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  const int base_calls = argc > 1 ? std::atoi(argv[1]) : 150000;
  const int batch_size = 2000;

  TelephonyParams params;
  params.num_calls = base_calls;
  params.earnings_threshold = 0.55 * params.max_charge * base_calls /
                              (params.num_plans * params.num_years);
  TelephonyWorkload w = MakeTelephonyWorkload(params);

  // Initial materialization.
  Evaluator eval(&w.db, &w.views);
  Table v1 = Unwrap(eval.MaterializeView("V1"), "materialize V1");
  std::printf("initial load: %d calls, V1 has %zu rows\n", base_calls,
              v1.num_rows());

  const ViewDef* def = Unwrap(w.views.Get("V1"), "get V1");
  IncrementalMaintainer maintainer =
      Unwrap(IncrementalMaintainer::Create(*def), "create maintainer");
  Rewriter rewriter(&w.views);
  Query business_query =
      Unwrap(rewriter.RewriteUsingView(w.query, "V1"), "rewrite Q");
  std::printf("business query (over V1): %s\n\n", ToSql(business_query).c_str());

  int next_call_id = base_calls;
  for (int day = 1; day <= 5; ++day) {
    Delta batch = NightlyBatch(day, next_call_id, batch_size);
    next_call_id += batch_size;

    // Maintain the view incrementally...
    auto start = std::chrono::steady_clock::now();
    v1 = Unwrap(maintainer.Apply(batch, w.db, v1), "maintain V1");
    double maintain_ms = MillisSince(start);

    // ...then advance the base tables and compare against recomputation.
    if (Status s = ApplyDeltaToBase(batch, &w.db); !s.ok()) {
      std::fprintf(stderr, "apply base: %s\n", s.ToString().c_str());
      return 1;
    }
    start = std::chrono::steady_clock::now();
    Evaluator fresh(&w.db, &w.views);
    Table recomputed = Unwrap(fresh.MaterializeView("V1"), "recompute V1");
    double recompute_ms = MillisSince(start);
    bool consistent = MultisetAlmostEqual(v1, recomputed);

    // Serve the business query from the maintained view.
    Database serving = w.db;
    serving.Put("V1", v1);
    Evaluator serve(&serving, &w.views);
    start = std::chrono::steady_clock::now();
    Table answer = Unwrap(serve.Execute(business_query), "query V1");
    double query_ms = MillisSince(start);

    std::printf(
        "day %d: +%d calls | maintain %6.2f ms vs recompute %7.2f ms "
        "(%.0fx) | query %5.2f ms, %zu plans | consistent: %s\n",
        day, batch_size, maintain_ms, recompute_ms, recompute_ms / maintain_ms,
        query_ms, answer.num_rows(), consistent ? "yes" : "NO");
    if (!consistent) return 1;
  }
  std::printf("\nview stayed consistent across all batches\n");
  return 0;
}
