// Predicate construction, evaluation, printing and hashing.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <unordered_set>

#include "predicate/predicate.h"
#include "test_helpers.h"

namespace scorpion {
namespace {

using testing_helpers::PaperSensorsTable;

TEST(PredicateBuild, EmptyPredicateIsTrue) {
  Predicate p;
  EXPECT_TRUE(p.IsTrue());
  EXPECT_EQ(p.num_clauses(), 0);
  EXPECT_EQ(p.ToString(), "TRUE");
}

TEST(PredicateBuild, RejectsEmptyRanges) {
  Predicate p;
  EXPECT_TRUE(p.AddRange({"x", 5.0, 5.0, false}).IsInvalidArgument());
  EXPECT_TRUE(p.AddRange({"x", 5.0, 4.0, true}).IsInvalidArgument());
  // Degenerate closed point range [5, 5] is allowed.
  EXPECT_TRUE(p.AddRange({"x", 5.0, 5.0, true}).ok());
}

TEST(PredicateBuild, RejectsDuplicateAndConflictingClauses) {
  Predicate p;
  ASSERT_TRUE(p.AddRange({"x", 0.0, 1.0, false}).ok());
  EXPECT_TRUE(p.AddRange({"x", 2.0, 3.0, false}).IsInvalidArgument());
  EXPECT_TRUE(p.AddSet({"x", {1}}).IsInvalidArgument());
  Predicate q;
  ASSERT_TRUE(q.AddSet({"y", {1, 2}}).ok());
  EXPECT_TRUE(q.AddRange({"y", 0.0, 1.0, false}).IsInvalidArgument());
  EXPECT_TRUE(q.AddSet({"y", {3}}).IsInvalidArgument());
}

TEST(PredicateBuild, SetCodesAreNormalized) {
  Predicate p;
  ASSERT_TRUE(p.AddSet({"s", {3, 1, 2, 3, 1}}).ok());
  ASSERT_EQ(p.sets().size(), 1u);
  EXPECT_EQ(p.sets()[0].codes, (std::vector<int32_t>{1, 2, 3}));
  Predicate q;
  EXPECT_TRUE(q.AddSet({"s", {}}).IsInvalidArgument());
}

TEST(PredicateBuild, WithRangeReplacesClause) {
  Predicate p;
  ASSERT_TRUE(p.AddRange({"x", 0.0, 10.0, true}).ok());
  ASSERT_TRUE(p.AddSet({"s", {1}}).ok());
  Predicate narrowed = p.WithRange({"x", 2.0, 5.0, false});
  EXPECT_EQ(narrowed.FindRange("x")->lo, 2.0);
  EXPECT_EQ(narrowed.FindRange("x")->hi, 5.0);
  EXPECT_NE(narrowed.FindSet("s"), nullptr);   // other clauses preserved
  EXPECT_EQ(p.FindRange("x")->hi, 10.0);       // original untouched
  // WithRange also adds when absent.
  Predicate added = p.WithRange({"y", 1.0, 2.0, false});
  EXPECT_EQ(added.num_clauses(), 3);
}

TEST(PredicateEval, RangeSemanticsHalfOpenAndClosed) {
  Table t(Schema({{"x", DataType::kDouble}}));
  for (double v : {0.0, 1.0, 2.0, 3.0}) {
    ASSERT_TRUE(t.AppendRow({v}).ok());
  }
  Predicate half_open;
  ASSERT_TRUE(half_open.AddRange({"x", 1.0, 3.0, false}).ok());
  auto rows = half_open.Evaluate(t);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, (RowIdList{1, 2}));  // 3.0 excluded

  Predicate closed;
  ASSERT_TRUE(closed.AddRange({"x", 1.0, 3.0, true}).ok());
  rows = closed.Evaluate(t);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, (RowIdList{1, 2, 3}));  // 3.0 included
}

TEST(PredicateEval, ConjunctionOverPaperTable) {
  Table t = PaperSensorsTable();
  Predicate p;
  auto sensor_col = t.ColumnByName("sensorid");
  ASSERT_TRUE(p.AddSet({"sensorid", {(*sensor_col)->CodeOf("3")}}).ok());
  ASSERT_TRUE(p.AddRange({"voltage", 0.0, 2.4, false}).ok());
  auto rows = p.Evaluate(t);
  ASSERT_TRUE(rows.ok());
  // Sensor 3 with voltage < 2.4: T6 (row 5) and T9 (row 8).
  EXPECT_EQ(*rows, (RowIdList{5, 8}));
}

TEST(PredicateEval, TypeMismatchesAreErrors) {
  Table t = PaperSensorsTable();
  Predicate range_on_categorical;
  ASSERT_TRUE(range_on_categorical.AddRange({"sensorid", 0, 1, false}).ok());
  EXPECT_TRUE(range_on_categorical.Bind(t).status().IsTypeError());
  Predicate set_on_double;
  ASSERT_TRUE(set_on_double.AddSet({"voltage", {0}}).ok());
  EXPECT_TRUE(set_on_double.Bind(t).status().IsTypeError());
  Predicate unknown_attr;
  ASSERT_TRUE(unknown_attr.AddRange({"nope", 0, 1, false}).ok());
  EXPECT_TRUE(unknown_attr.Bind(t).status().IsKeyError());
}

TEST(PredicateEval, BoundFilterAndCountAgree) {
  Table t = PaperSensorsTable();
  Predicate p;
  ASSERT_TRUE(p.AddRange({"temp", 50.0, 200.0, true}).ok());
  auto bound = p.Bind(t);
  ASSERT_TRUE(bound.ok());
  RowIdList all = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  RowIdList matched = bound->Filter(all);
  EXPECT_EQ(matched, (RowIdList{5, 8}));
  EXPECT_EQ(bound->CountMatches(all), 2u);
  EXPECT_EQ(bound->FilterAll()->rows(), matched);
  EXPECT_EQ(*bound->Count(Selection::All(t.num_rows())), 2u);
}

TEST(PredicateEval, EvaluationAfterAppendFailsPrecondition) {
  Table t = PaperSensorsTable();
  Predicate p;
  ASSERT_TRUE(p.AddRange({"temp", 50.0, 200.0, true}).ok());
  auto bound = p.Bind(t);
  ASSERT_TRUE(bound.ok());
  // Appending after Bind() invalidates the bound column snapshots; the
  // Selection entry points report FailedPrecondition (naming both
  // generations) instead of reading stale (or reallocated) storage — the
  // recoverable contract live tables rely on.
  ASSERT_TRUE(
      t.AppendRow({std::string("2PM"), std::string("9"), 2.31, 0.6, 90.0})
          .ok());
  Result<Selection> all = bound->FilterAll();
  ASSERT_FALSE(all.ok());
  EXPECT_TRUE(all.status().IsFailedPrecondition());
  EXPECT_NE(all.status().ToString().find("re-Bind"), std::string::npos);
  EXPECT_TRUE(bound->Filter(Selection::All(t.num_rows()))
                  .status()
                  .IsFailedPrecondition());
  EXPECT_TRUE(bound->Count(Selection::All(t.num_rows()))
                  .status()
                  .IsFailedPrecondition());
}

TEST(PredicateEvalDeathTest, ScalarEvaluationAfterAppendAborts) {
  Table t = PaperSensorsTable();
  Predicate p;
  ASSERT_TRUE(p.AddRange({"temp", 50.0, 200.0, true}).ok());
  auto bound = p.Bind(t);
  ASSERT_TRUE(bound.ok());
  ASSERT_TRUE(
      t.AppendRow({std::string("2PM"), std::string("9"), 2.31, 0.6, 90.0})
          .ok());
  // The scalar RowIdList paths have no Status channel; they keep the hard
  // abort.
  EXPECT_DEATH(bound->Filter(RowIdList{0, 1}), "appended");
  EXPECT_DEATH(bound->CountMatches(RowIdList{0}), "appended");
}

TEST(PredicatePrint, CanonicalStringsAndDictionaryRendering) {
  Table t = PaperSensorsTable();
  Predicate p;
  auto col = t.ColumnByName("sensorid");
  ASSERT_TRUE(p.AddSet({"sensorid", {(*col)->CodeOf("3")}}).ok());
  ASSERT_TRUE(p.AddRange({"voltage", 2.0, 2.4, false}).ok());
  EXPECT_EQ(p.ToString(&t), "sensorid in {'3'} & voltage in [2, 2.4)");
  // Without a table the codes print raw.
  EXPECT_EQ(p.ToString(), "sensorid in {2} & voltage in [2, 2.4)");
}

TEST(PredicatePrint, EqualPredicatesHaveEqualStrings) {
  Predicate a, b;
  ASSERT_TRUE(a.AddRange({"x", 0.0, 1.0, false}).ok());
  ASSERT_TRUE(a.AddSet({"s", {2, 1}}).ok());
  ASSERT_TRUE(b.AddSet({"s", {1, 2}}).ok());
  ASSERT_TRUE(b.AddRange({"x", 0.0, 1.0, false}).ok());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.ToString(), b.ToString());
}

// --- Hashing: Predicate::Hash / std::hash<Predicate> agree with operator== ---

TEST(PredicateHash, OrderIndependentConstructionHashesAlike) {
  Predicate a, b;
  ASSERT_TRUE(a.AddRange({"x", 0.0, 1.0, false}).ok());
  ASSERT_TRUE(a.AddSet({"s", {3, 1}}).ok());
  ASSERT_TRUE(a.AddRange({"w", 2.0, 3.0, true}).ok());
  ASSERT_TRUE(b.AddRange({"w", 2.0, 3.0, true}).ok());
  ASSERT_TRUE(b.AddSet({"s", {1, 3, 3}}).ok());
  ASSERT_TRUE(b.AddRange({"x", 0.0, 1.0, false}).ok());
  ASSERT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_EQ(std::hash<Predicate>{}(a), a.Hash());
  EXPECT_EQ(Predicate::True().Hash(), Predicate().Hash());
}

TEST(PredicateHash, SignedZerosAreEqualAndHashAlike) {
  Predicate pos_lo, neg_lo, pos_hi, neg_hi;
  ASSERT_TRUE(pos_lo.AddRange({"x", 0.0, 1.0, false}).ok());
  ASSERT_TRUE(neg_lo.AddRange({"x", -0.0, 1.0, false}).ok());
  ASSERT_TRUE(pos_hi.AddRange({"x", -1.0, 0.0, true}).ok());
  ASSERT_TRUE(neg_hi.AddRange({"x", -1.0, -0.0, true}).ok());
  ASSERT_EQ(pos_lo, neg_lo);
  ASSERT_EQ(pos_hi, neg_hi);
  EXPECT_EQ(pos_lo.Hash(), neg_lo.Hash());
  EXPECT_EQ(pos_hi.Hash(), neg_hi.Hash());
  std::unordered_set<Predicate> seen = {pos_lo, pos_hi};
  EXPECT_EQ(seen.count(neg_lo), 1u);
  EXPECT_EQ(seen.count(neg_hi), 1u);
}

TEST(PredicateHash, EveryComparedFieldSeparatesKeys) {
  auto range = [](double lo, double hi, bool inclusive) {
    Predicate p;
    EXPECT_TRUE(p.AddRange({"x", lo, hi, inclusive}).ok());
    return p;
  };
  auto set = [](const std::string& attr, std::vector<int32_t> codes) {
    Predicate p;
    EXPECT_TRUE(p.AddSet({attr, std::move(codes)}).ok());
    return p;
  };
  // Bounds past ToString's six significant digits print alike but are
  // distinct keys.
  const Predicate near_a = range(1.0000001, 2.0, false);
  const Predicate near_b = range(1.0000002, 2.0, false);
  ASSERT_EQ(near_a.ToString(), near_b.ToString());
  const std::vector<Predicate> distinct = {
      near_a,           near_b,
      range(1.0000001, 2.0, true),
      set("s", {1, 2}), set("s", {1, 3}), set("s", {1, 2, 3}),
      set("t", {1, 2}), Predicate::True()};
  std::unordered_set<Predicate> keys(distinct.begin(), distinct.end());
  EXPECT_EQ(keys.size(), distinct.size());
  for (const Predicate& p : distinct) EXPECT_EQ(keys.count(p), 1u);
  // Not required by the contract, but a hash that skipped a field would
  // collide here: every compared field feeds it.
  std::unordered_set<size_t> hashes;
  for (const Predicate& p : distinct) hashes.insert(p.Hash());
  EXPECT_EQ(hashes.size(), distinct.size());
}

TEST(PredicateHash, NanBoundsNeverHit) {
  // operator== compares bounds by value, so a NaN bound makes a predicate
  // unequal even to itself: a hashed lookup never finds it.
  Predicate p;
  ASSERT_TRUE(
      p.AddRange({"x", std::numeric_limits<double>::quiet_NaN(), 1.0, false})
          .ok());
  EXPECT_FALSE(p == p);
  std::unordered_set<Predicate> keys = {p};
  EXPECT_EQ(keys.count(p), 0u);
}

}  // namespace
}  // namespace scorpion
