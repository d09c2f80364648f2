#include <random>
#include <set>

#include <gtest/gtest.h>

#include "exec/evaluator.h"
#include "ir/builder.h"
#include "maintain/incremental.h"
#include "tests/test_util.h"
#include "workload/random_db.h"

namespace aqv {
namespace {

Row R(std::initializer_list<int64_t> vals) {
  Row row;
  for (int64_t v : vals) row.push_back(Value::Int64(v));
  return row;
}

// Recompute-vs-maintain oracle: applies `delta` both ways and compares.
void ExpectMaintainMatchesRecompute(const ViewDef& view, Database db,
                                    const Delta& delta) {
  ViewRegistry views;
  ASSERT_OK(views.Register(view));
  Evaluator eval_before(&db, &views);
  ASSERT_OK_AND_ASSIGN(Table materialized,
                       eval_before.MaterializeView(view.name));

  ASSERT_OK_AND_ASSIGN(IncrementalMaintainer maintainer,
                       IncrementalMaintainer::Create(view));
  ASSERT_OK_AND_ASSIGN(materialized,
                       maintainer.Apply(delta, db, materialized));

  ASSERT_OK(ApplyDeltaToBase(delta, &db));
  Evaluator eval_after(&db, &views);
  ASSERT_OK_AND_ASSIGN(Table recomputed, eval_after.MaterializeView(view.name));

  EXPECT_TRUE(MultisetEqual(materialized, recomputed))
      << "maintained:\n" << materialized.ToString() << "recomputed:\n"
      << recomputed.ToString();
}

Database TwoTableDb() {
  Database db;
  Table r({"A", "B"});
  r.AddRowOrDie(R({1, 10}));
  r.AddRowOrDie(R({1, 20}));
  r.AddRowOrDie(R({2, 30}));
  db.Put("R", std::move(r));
  Table s({"C", "D"});
  s.AddRowOrDie(R({1, 5}));
  s.AddRowOrDie(R({2, 6}));
  db.Put("S", std::move(s));
  return db;
}

ViewDef SumCountView() {
  return ViewDef{"V", QueryBuilder()
                          .From("R", {"A1", "B1"})
                          .Select("A1")
                          .SelectAgg(AggFn::kSum, "B1", "s")
                          .SelectAgg(AggFn::kCount, "B1", "n")
                          .GroupBy("A1")
                          .BuildOrDie()};
}

TEST(MaintainTest, InsertIntoExistingGroup) {
  Delta d;
  d.inserts["R"] = {R({1, 7})};
  ExpectMaintainMatchesRecompute(SumCountView(), TwoTableDb(), d);
}

TEST(MaintainTest, InsertCreatesNewGroup) {
  Delta d;
  d.inserts["R"] = {R({9, 1}), R({9, 2})};
  ExpectMaintainMatchesRecompute(SumCountView(), TwoTableDb(), d);
}

TEST(MaintainTest, DeleteShrinksGroup) {
  Delta d;
  d.deletes["R"] = {R({1, 10})};
  ExpectMaintainMatchesRecompute(SumCountView(), TwoTableDb(), d);
}

TEST(MaintainTest, DeleteKillsGroup) {
  Delta d;
  d.deletes["R"] = {R({2, 30})};
  ExpectMaintainMatchesRecompute(SumCountView(), TwoTableDb(), d);
}

TEST(MaintainTest, MixedBatch) {
  Delta d;
  d.inserts["R"] = {R({2, 1}), R({3, 4})};
  d.deletes["R"] = {R({1, 20})};
  ExpectMaintainMatchesRecompute(SumCountView(), TwoTableDb(), d);
}

TEST(MaintainTest, ConjunctiveViewAppendsAndRemoves) {
  ViewDef v{"V", QueryBuilder()
                     .From("R", {"A1", "B1"})
                     .Select("A1")
                     .Select("B1")
                     .WhereConst("B1", CmpOp::kGe, Value::Int64(15))
                     .BuildOrDie()};
  Delta d;
  d.inserts["R"] = {R({5, 50}), R({5, 3})};  // the second fails the filter
  d.deletes["R"] = {R({1, 20})};
  ExpectMaintainMatchesRecompute(v, TwoTableDb(), d);
}

TEST(MaintainTest, JoinViewTelescopesBothTables) {
  ViewDef v{"V", QueryBuilder()
                     .From("R", {"A1", "B1"})
                     .From("S", {"C1", "D1"})
                     .Select("A1")
                     .SelectAgg(AggFn::kSum, "D1", "s")
                     .SelectAgg(AggFn::kCount, "D1", "n")
                     .WhereCols("A1", CmpOp::kEq, "C1")
                     .GroupBy("A1")
                     .BuildOrDie()};
  Delta d;
  d.inserts["R"] = {R({1, 99})};
  d.inserts["S"] = {R({1, 8}), R({2, 9})};
  d.deletes["S"] = {R({2, 6})};
  ExpectMaintainMatchesRecompute(v, TwoTableDb(), d);
}

TEST(MaintainTest, MinMaxAbsorbInserts) {
  ViewDef v{"V", QueryBuilder()
                     .From("R", {"A1", "B1"})
                     .Select("A1")
                     .SelectAgg(AggFn::kMin, "B1", "lo")
                     .SelectAgg(AggFn::kMax, "B1", "hi")
                     .SelectAgg(AggFn::kCount, "B1", "n")
                     .GroupBy("A1")
                     .BuildOrDie()};
  Delta d;
  d.inserts["R"] = {R({1, 5}), R({1, 100}), R({4, 7})};
  ExpectMaintainMatchesRecompute(v, TwoTableDb(), d);
}

TEST(MaintainTest, DeleteOfNonExtremumIsFine) {
  ViewDef v{"V", QueryBuilder()
                     .From("R", {"A1", "B1"})
                     .Select("A1")
                     .SelectAgg(AggFn::kMax, "B1", "hi")
                     .SelectAgg(AggFn::kCount, "B1", "n")
                     .GroupBy("A1")
                     .BuildOrDie()};
  Delta d;
  d.deletes["R"] = {R({1, 10})};  // max of group 1 is 20
  ExpectMaintainMatchesRecompute(v, TwoTableDb(), d);
}

TEST(MaintainTest, DeleteOfExtremumRefused) {
  ViewDef v{"V", QueryBuilder()
                     .From("R", {"A1", "B1"})
                     .Select("A1")
                     .SelectAgg(AggFn::kMax, "B1", "hi")
                     .SelectAgg(AggFn::kCount, "B1", "n")
                     .GroupBy("A1")
                     .BuildOrDie()};
  Database db = TwoTableDb();
  ViewRegistry views;
  ASSERT_OK(views.Register(v));
  Evaluator eval(&db, &views);
  ASSERT_OK_AND_ASSIGN(Table materialized, eval.MaterializeView("V"));
  Table untouched = materialized;

  ASSERT_OK_AND_ASSIGN(IncrementalMaintainer maintainer,
                       IncrementalMaintainer::Create(v));
  Delta d;
  d.deletes["R"] = {R({1, 20})};  // 20 is group 1's max
  Status s = maintainer.Apply(d, db, materialized).status();
  EXPECT_EQ(s.code(), StatusCode::kUnsupported);
  // The refusal left the materialization untouched.
  EXPECT_TRUE(MultisetEqual(materialized, untouched));
}

TEST(MaintainTest, ExtremumDeleteCoveredByBatchInsertMaintains) {
  // A delete ties the group extremum, but the SAME batch inserts a covering
  // value (>= for MAX): every surviving old value is bounded by the old
  // extremum, so the covering insert is the new extremum — no recompute.
  ViewDef vmax{"V", QueryBuilder()
                        .From("R", {"A1", "B1"})
                        .Select("A1")
                        .SelectAgg(AggFn::kMax, "B1", "hi")
                        .SelectAgg(AggFn::kCount, "B1", "n")
                        .GroupBy("A1")
                        .BuildOrDie()};
  Delta d;
  d.deletes["R"] = {R({1, 20})};  // 20 is group 1's max
  d.inserts["R"] = {R({1, 25})};  // 25 covers it
  ExpectMaintainMatchesRecompute(vmax, TwoTableDb(), d);

  // Equal value covers too: the inserted copy replaces the deleted one.
  Delta tie;
  tie.deletes["R"] = {R({1, 20})};
  tie.inserts["R"] = {R({1, 20})};
  ExpectMaintainMatchesRecompute(vmax, TwoTableDb(), tie);

  // MIN mirror: delete the minimum, insert something smaller.
  ViewDef vmin{"V", QueryBuilder()
                        .From("R", {"A1", "B1"})
                        .Select("A1")
                        .SelectAgg(AggFn::kMin, "B1", "lo")
                        .SelectAgg(AggFn::kCount, "B1", "n")
                        .GroupBy("A1")
                        .BuildOrDie()};
  Delta dmin;
  dmin.deletes["R"] = {R({1, 10})};  // 10 is group 1's min
  dmin.inserts["R"] = {R({1, 3})};
  ExpectMaintainMatchesRecompute(vmin, TwoTableDb(), dmin);
}

TEST(MaintainTest, ExtremumDeleteWithNonCoveringInsertStillRefused) {
  ViewDef v{"V", QueryBuilder()
                     .From("R", {"A1", "B1"})
                     .Select("A1")
                     .SelectAgg(AggFn::kMax, "B1", "hi")
                     .SelectAgg(AggFn::kCount, "B1", "n")
                     .GroupBy("A1")
                     .BuildOrDie()};
  Database db = TwoTableDb();
  ViewRegistry views;
  ASSERT_OK(views.Register(v));
  Evaluator eval(&db, &views);
  ASSERT_OK_AND_ASSIGN(Table materialized, eval.MaterializeView("V"));
  ASSERT_OK_AND_ASSIGN(IncrementalMaintainer maintainer,
                       IncrementalMaintainer::Create(v));
  // The insert (15) is below the deleted max (20): the new extremum is not
  // derivable from the summary, so the maintainer must still refuse.
  Delta d;
  d.deletes["R"] = {R({1, 20})};
  d.inserts["R"] = {R({1, 15})};
  EXPECT_EQ(maintainer.Apply(d, db, materialized).status().code(),
            StatusCode::kUnsupported);
  // A covering insert into a DIFFERENT group does not rescue the delete.
  Delta other_group;
  other_group.deletes["R"] = {R({1, 20})};
  other_group.inserts["R"] = {R({2, 99})};
  EXPECT_EQ(maintainer.Apply(other_group, db, materialized).status().code(),
            StatusCode::kUnsupported);
}

TEST(MaintainTest, ApplyToCopyLeavesInputUntouched) {
  ViewDef v = SumCountView();
  Database db = TwoTableDb();
  ViewRegistry views;
  ASSERT_OK(views.Register(v));
  Evaluator eval(&db, &views);
  ASSERT_OK_AND_ASSIGN(Table materialized, eval.MaterializeView("V"));
  Table original = materialized;
  ASSERT_OK_AND_ASSIGN(IncrementalMaintainer maintainer,
                       IncrementalMaintainer::Create(v));
  Delta d;
  d.inserts["R"] = {R({1, 7}), R({9, 1})};
  ASSERT_OK_AND_ASSIGN(Table maintained,
                       maintainer.Apply(d, db, materialized));
  // The input is untouched; the returned copy matches a recompute.
  EXPECT_TRUE(MultisetEqual(materialized, original));
  ASSERT_OK(ApplyDeltaToBase(d, &db));
  Evaluator after(&db, &views);
  ASSERT_OK_AND_ASSIGN(Table recomputed, after.MaterializeView("V"));
  EXPECT_TRUE(MultisetEqual(maintained, recomputed))
      << "maintained:\n" << maintained.ToString() << "recomputed:\n"
      << recomputed.ToString();
}

TEST(MaintainTest, DeletesWithoutCountRefused) {
  ViewDef v{"V", QueryBuilder()
                     .From("R", {"A1", "B1"})
                     .Select("A1")
                     .SelectAgg(AggFn::kSum, "B1", "s")
                     .GroupBy("A1")
                     .BuildOrDie()};
  Database db = TwoTableDb();
  ViewRegistry views;
  ASSERT_OK(views.Register(v));
  Evaluator eval(&db, &views);
  ASSERT_OK_AND_ASSIGN(Table materialized, eval.MaterializeView("V"));
  ASSERT_OK_AND_ASSIGN(IncrementalMaintainer maintainer,
                       IncrementalMaintainer::Create(v));
  Delta d;
  d.deletes["R"] = {R({1, 10})};
  EXPECT_EQ(maintainer.Apply(d, db, materialized).status().code(),
            StatusCode::kUnsupported);
  // Inserts-only still works without a COUNT output.
  Delta ins;
  ins.inserts["R"] = {R({1, 2})};
  EXPECT_OK(maintainer.Apply(ins, db, materialized).status());
}

TEST(MaintainTest, UnsupportedShapesRejectedAtCreate) {
  // HAVING.
  Query having = QueryBuilder()
                     .From("R", {"A1", "B1"})
                     .Select("A1")
                     .SelectAgg(AggFn::kSum, "B1", "s")
                     .GroupBy("A1")
                     .HavingAgg(AggFn::kSum, "B1", CmpOp::kGt, Value::Int64(1))
                     .BuildOrDie();
  EXPECT_EQ(IncrementalMaintainer::Create(ViewDef{"V1", having}).status().code(),
            StatusCode::kUnsupported);
  // AVG output.
  Query avg = QueryBuilder()
                  .From("R", {"A1", "B1"})
                  .Select("A1")
                  .SelectAgg(AggFn::kAvg, "B1", "a")
                  .GroupBy("A1")
                  .BuildOrDie();
  EXPECT_EQ(IncrementalMaintainer::Create(ViewDef{"V2", avg}).status().code(),
            StatusCode::kUnsupported);
  // DISTINCT.
  Query distinct =
      QueryBuilder().From("R", {"A1", "B1"}).Distinct().Select("A1").BuildOrDie();
  EXPECT_EQ(
      IncrementalMaintainer::Create(ViewDef{"V3", distinct}).status().code(),
      StatusCode::kUnsupported);
}

TEST(MaintainTest, ApplyDeltaToBaseValidates) {
  Database db = TwoTableDb();
  Delta bad;
  bad.deletes["R"] = {R({77, 77})};
  EXPECT_FALSE(ApplyDeltaToBase(bad, &db).ok());
  Delta unknown;
  unknown.inserts["Nope"] = {R({1})};
  EXPECT_EQ(ApplyDeltaToBase(unknown, &db).code(), StatusCode::kNotFound);
}

// A view version is an edit of the one before: a single-row write leaves
// every chunk it does not touch shared, and the result still equals a
// recompute. R holds one row (i, i % 7) per i, so both views below span
// four chunks and each group of the grouped view holds one base row.
constexpr int64_t kWideRows = 3 * static_cast<int64_t>(kChunkRows) + 100;

Database WideDb() {
  Database db;
  Table r({"A", "B"});
  for (int64_t i = 0; i < kWideRows; ++i) r.AddRowOrDie(R({i, i % 7}));
  db.Put("R", std::move(r));
  return db;
}

// Maintains `view` (materialized as `prev` over `db`) under `delta` and
// checks that every chunk of `prev` whose ordinal is not in `touched` is
// the same object in the next version, and that the next version equals a
// recompute.
void ExpectEditSharesUntouchedChunks(const ViewDef& view, Database db,
                                     const Table& prev, const Delta& delta,
                                     const std::set<size_t>& touched) {
  ViewRegistry views;
  ASSERT_OK(views.Register(view));
  ASSERT_OK_AND_ASSIGN(IncrementalMaintainer maintainer,
                       IncrementalMaintainer::Create(view));
  ASSERT_OK_AND_ASSIGN(Table next, maintainer.Apply(delta, db, prev));
  ASSERT_GE(next.chunks().size(), prev.chunks().size());
  for (size_t c = 0; c < prev.chunks().size(); ++c) {
    if (touched.count(c) == 0) {
      EXPECT_EQ(next.chunks()[c].get(), prev.chunks()[c].get())
          << "chunk " << c;
    }
  }
  ASSERT_OK(ApplyDeltaToBase(delta, &db));
  Evaluator after(&db, &views);
  ASSERT_OK_AND_ASSIGN(Table recomputed, after.MaterializeView(view.name));
  EXPECT_TRUE(MultisetEqual(next, recomputed));
}

TEST(MaintainTest, SingleRowWritesShareUntouchedViewChunks) {
  const Database db = WideDb();
  const ViewDef grouped{"VG", QueryBuilder()
                                  .From("R", {"A1", "B1"})
                                  .Select("A1")
                                  .SelectAgg(AggFn::kSum, "B1", "s")
                                  .SelectAgg(AggFn::kCount, "B1", "n")
                                  .GroupBy("A1")
                                  .BuildOrDie()};
  const ViewDef conjunctive{
      "VC", QueryBuilder()
                .From("R", {"A1", "B1"})
                .Select("A1")
                .Select("B1")
                .WhereConst("B1", CmpOp::kGe, Value::Int64(0))
                .BuildOrDie()};
  for (const ViewDef* view : {&grouped, &conjunctive}) {
    SCOPED_TRACE(view->name);
    ViewRegistry views;
    ASSERT_OK(views.Register(*view));
    Evaluator eval(&db, &views);
    ASSERT_OK_AND_ASSIGN(Table prev, eval.MaterializeView(view->name));
    ASSERT_GE(prev.chunks().size(), 3u);
    const size_t tail = prev.chunks().size() - 1;
    // The base row behind the first view row of chunk 1.
    const int64_t a = prev.chunks()[1]->RowAt(0)[0].int64();
    const Row base_row = R({a, a % 7});
    const bool is_grouped = view == &grouped;

    // An INSERT appends to the tail; into the grouped view it also moves
    // its group out of chunk 1.
    Delta insert;
    insert.inserts["R"] = {base_row};
    std::set<size_t> touched = {tail};
    if (is_grouped) touched.insert(1);
    ExpectEditSharesUntouchedChunks(*view, db, prev, insert, touched);

    // A DELETE rewrites chunk 1 only: the conjunctive row goes, and so does
    // the grouped view's one-row group.
    Delta remove;
    remove.deletes["R"] = {base_row};
    ExpectEditSharesUntouchedChunks(*view, db, prev, remove, {1});
  }
}

// Randomized oracle sweep: random base data, random insert/delete batches;
// after every batch the maintained contents of three views must equal a
// recompute: a grouped join view, a conjunctive join view and a MIN/MAX
// view. Each batch also deletes a current extreme of the MIN/MAX view,
// which the maintainer either folds or refuses with kUnsupported; a
// refused view is recomputed, as the write path does.
class MaintainPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MaintainPropertyTest, MatchesRecomputeAcrossBatches) {
  const uint64_t seed = TestSeed(GetParam());
  SCOPED_TRACE(SeedTrace(seed));
  std::mt19937_64 rng(seed);
  Catalog catalog;
  ASSERT_OK(catalog.AddTable(TableDef("R", {"A", "B"})));
  ASSERT_OK(catalog.AddTable(TableDef("S", {"C", "D"})));
  Database db = MakeRandomDatabase(catalog, 40, 5, seed);

  const std::vector<ViewDef> defs = {
      ViewDef{"V", QueryBuilder()
                       .From("R", {"A1", "B1"})
                       .From("S", {"C1", "D1"})
                       .Select("A1")
                       .SelectAgg(AggFn::kSum, "D1", "s")
                       .SelectAgg(AggFn::kCount, "D1", "n")
                       .WhereCols("B1", CmpOp::kEq, "C1")
                       .GroupBy("A1")
                       .BuildOrDie()},
      ViewDef{"VC", QueryBuilder()
                        .From("R", {"A1", "B1"})
                        .From("S", {"C1", "D1"})
                        .Select("A1")
                        .Select("D1")
                        .WhereCols("B1", CmpOp::kEq, "C1")
                        .BuildOrDie()},
      ViewDef{"VM", QueryBuilder()
                        .From("R", {"A1", "B1"})
                        .Select("A1")
                        .SelectAgg(AggFn::kMin, "B1", "lo")
                        .SelectAgg(AggFn::kMax, "B1", "hi")
                        .SelectAgg(AggFn::kCount, "B1", "n")
                        .GroupBy("A1")
                        .BuildOrDie()},
  };
  ViewRegistry views;
  std::vector<IncrementalMaintainer> maintainers;
  for (const ViewDef& v : defs) {
    ASSERT_OK(views.Register(v));
    ASSERT_OK_AND_ASSIGN(IncrementalMaintainer m,
                         IncrementalMaintainer::Create(v));
    maintainers.push_back(std::move(m));
  }
  std::vector<Table> materialized;
  Evaluator eval(&db, &views);
  for (const ViewDef& v : defs) {
    ASSERT_OK_AND_ASSIGN(Table t, eval.MaterializeView(v.name));
    materialized.push_back(std::move(t));
  }

  std::uniform_int_distribution<int64_t> val(0, 4);
  for (int batch = 0; batch < 5; ++batch) {
    Delta d;
    for (const char* table : {"R", "S"}) {
      int n_ins = static_cast<int>(rng() % 4);
      for (int i = 0; i < n_ins; ++i) {
        d.inserts[table].push_back({Value::Int64(val(rng)),
                                    Value::Int64(val(rng))});
      }
      // Delete up to 2 random existing rows.
      const Table* t = *db.Get(table);
      int n_del = static_cast<int>(rng() % 3);
      for (int i = 0; i < n_del && !t->rows().empty(); ++i) {
        d.deletes[table].push_back(t->rows()[rng() % t->rows().size()]);
      }
      // Avoid deleting the same physical row twice in one batch.
      if (d.deletes[table].size() == 2 &&
          RowEq{}(d.deletes[table][0], d.deletes[table][1])) {
        d.deletes[table].pop_back();
      }
    }
    // Delete the row holding a random group's MIN (even batches) or MAX
    // (odd batches) in VM, unless the batch already deletes that row. An
    // odd batch also inserts a value above that MAX, which covers the
    // delete, so VM sees extreme deletes it can fold as well as ones it
    // must refuse.
    const Table& vm = materialized[2];
    if (!vm.rows().empty()) {
      Row group = vm.rows()[rng() % vm.num_rows()];
      const bool max = batch % 2 == 1;
      Row extreme = {group[0], group[max ? 2 : 1]};
      std::vector<Row>& dels = d.deletes["R"];
      if (!extreme[1].is_null() &&
          std::none_of(dels.begin(), dels.end(), [&](const Row& row) {
                        return RowEq{}(row, extreme);
                      })) {
        if (max) {
          d.inserts["R"].push_back(
              {group[0], Value::Int64(extreme[1].int64() + 1)});
        }
        dels.push_back(std::move(extreme));
      }
    }

    std::vector<bool> refused(defs.size(), false);
    for (size_t i = 0; i < defs.size(); ++i) {
      Result<Table> next = maintainers[i].Apply(d, db, materialized[i]);
      if (next.ok()) {
        materialized[i] = *std::move(next);
        continue;
      }
      // Only a MIN/MAX view may refuse, and only as kUnsupported.
      ASSERT_EQ(defs[i].name, "VM") << next.status().ToString();
      ASSERT_EQ(next.status().code(), StatusCode::kUnsupported)
          << next.status().ToString();
      refused[i] = true;
    }
    ASSERT_OK(ApplyDeltaToBase(d, &db));
    Evaluator check(&db, &views);
    for (size_t i = 0; i < defs.size(); ++i) {
      ASSERT_OK_AND_ASSIGN(Table recomputed,
                           check.MaterializeView(defs[i].name));
      if (refused[i]) {
        materialized[i] = std::move(recomputed);
        continue;
      }
      ASSERT_TRUE(MultisetEqual(materialized[i], recomputed))
          << defs[i].name << " batch " << batch << "\nmaintained:\n"
          << materialized[i].ToString() << "recomputed:\n"
          << recomputed.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MaintainPropertyTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace aqv
