// Experiment E10 (extension) — keeping the summary view fresh: the
// warehousing scenario only pays off if maintaining V1 under new call
// batches is much cheaper than recomputing it. Measures incremental
// maintenance versus full recomputation of the telephony summary view,
// sweeping the batch size, plus the end-to-end "refresh + query" cycle.
//
// Series:
//   E10/IncrementalApply/<batch> — fold a batch of new calls into V1
//   E10/FullRecompute/<batch>    — recompute V1 from scratch instead
//
// Shape expectation: incremental cost tracks the batch size; recompute cost
// tracks |Calls|, so the gap is roughly |Calls| / batch.

#include <map>
#include <random>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "exec/evaluator.h"
#include "maintain/incremental.h"
#include "workload/telephony.h"

namespace aqv {
namespace {

constexpr int kCalls = 100000;

struct Scenario {
  TelephonyWorkload workload;
  Table v1;
  IncrementalMaintainer* maintainer;
};

Scenario* GetScenario() {
  static Scenario* s = [] {
    auto* sc = new Scenario();
    TelephonyParams params;
    params.num_calls = kCalls;
    sc->workload = MakeTelephonyWorkload(params);
    Evaluator eval(&sc->workload.db, &sc->workload.views);
    sc->v1 = ValueOrDie(eval.MaterializeView("V1"), "materialize V1");
    const ViewDef* def = ValueOrDie(sc->workload.views.Get("V1"), "get V1");
    sc->maintainer = new IncrementalMaintainer(
        ValueOrDie(IncrementalMaintainer::Create(*def), "create maintainer"));
    return sc;
  }();
  return s;
}

Delta MakeBatch(int batch, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> plan(0, 19);
  std::uniform_int_distribution<int> cust(0, 999);
  std::uniform_int_distribution<int> month(1, 12);
  std::uniform_real_distribution<double> charge(0.05, 10.0);
  Delta d;
  for (int i = 0; i < batch; ++i) {
    d.inserts["Calls"].push_back(
        {Value::Int64(kCalls + i), Value::Int64(cust(rng)),
         Value::Int64(plan(rng)), Value::Int64(14), Value::Int64(month(rng)),
         Value::Int64(1996), Value::Double(charge(rng))});
  }
  return d;
}

void BM_E10_IncrementalApply(benchmark::State& state) {
  Scenario* s = GetScenario();
  int batch = static_cast<int>(state.range(0));
  Delta delta = MakeBatch(batch, 11);
  for (auto _ : state) {
    Table next = ValueOrDie(s->maintainer->Apply(delta, s->workload.db, s->v1),
                            "incremental apply");
    benchmark::DoNotOptimize(next);
  }
  state.counters["batch"] = batch;
  state.counters["view_rows"] = static_cast<double>(s->v1.num_rows());
}

void BM_E10_FullRecompute(benchmark::State& state) {
  Scenario* s = GetScenario();
  int batch = static_cast<int>(state.range(0));
  // The recompute path sees the post-batch base tables.
  Database after = s->workload.db;
  CheckOrDie(ApplyDeltaToBase(MakeBatch(batch, 11), &after), "apply to base");
  for (auto _ : state) {
    Evaluator eval(&after, &s->workload.views);
    eval.ClearViewCache();
    Table v1 = ValueOrDie(eval.MaterializeView("V1"), "recompute");
    benchmark::DoNotOptimize(v1);
  }
  state.counters["batch"] = batch;
  state.counters["base_rows"] = kCalls + batch;
}

BENCHMARK(BM_E10_IncrementalApply)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E10_FullRecompute)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace aqv
