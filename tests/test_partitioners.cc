// Unit tests for the three partitioners, below the end-to-end level:
// NAIVE enumeration/budget semantics, DT partition structure and gating,
// MC property gating and pruning counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/random.h"
#include "core/dt.h"
#include "core/mc.h"
#include "core/naive.h"
#include "eval/experiment.h"
#include "table/selection.h"
#include "workload/synth.h"

namespace scorpion {
namespace {

struct Instance {
  SynthDataset dataset;
  QueryResult qr;
  ProblemSpec problem;
};

Instance MakeInstance(double c, const std::string& aggregate = "SUM",
                      int tuples_per_group = 400, double lambda = 0.5) {
  SynthOptions opts = SynthPreset(2, /*easy=*/true, /*seed=*/17);
  opts.tuples_per_group = tuples_per_group;
  Instance inst;
  inst.dataset = GenerateSynth(opts).ValueOrDie();
  inst.dataset.query.aggregate = aggregate;
  inst.qr = ExecuteGroupBy(inst.dataset.table, inst.dataset.query)
                .ValueOrDie();
  inst.problem = MakeProblem(inst.qr, inst.dataset.outlier_keys,
                             inst.dataset.holdout_keys, 1.0, lambda, c,
                             inst.dataset.attributes)
                     .ValueOrDie();
  return inst;
}

// --- NAIVE ---------------------------------------------------------------------

TEST(NaivePartitioner, ExhaustsSmallSpacesAndLogsCheckpoints) {
  Instance inst = MakeInstance(0.1, "SUM", 200);
  auto scorer = Scorer::Make(inst.dataset.table, inst.qr, inst.problem);
  ASSERT_TRUE(scorer.ok());
  NaiveOptions opts;
  opts.num_continuous_splits = 5;  // 15 clauses per attr -> small space
  opts.max_clauses = 2;
  opts.time_budget_seconds = 60.0;
  NaivePartitioner naive(*scorer, opts);
  auto result = naive.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->exhausted);
  // 5 splits -> 15 single-attr clauses per attribute; 2 attrs single
  // (2*15=30) + pairs (15*15=225) = 255 predicates.
  EXPECT_EQ(result->num_evaluated, 255u);
  ASSERT_FALSE(result->checkpoints.empty());
  // Checkpoints are monotone in time and influence.
  for (size_t i = 1; i < result->checkpoints.size(); ++i) {
    EXPECT_GE(result->checkpoints[i].elapsed_seconds,
              result->checkpoints[i - 1].elapsed_seconds);
    EXPECT_GE(result->checkpoints[i].influence,
              result->checkpoints[i - 1].influence);
  }
  // Final checkpoint matches the returned best.
  EXPECT_DOUBLE_EQ(result->checkpoints.back().influence,
                   result->best.influence);
}

TEST(NaivePartitioner, TimeBudgetCutsSearchOff) {
  Instance inst = MakeInstance(0.1, "SUM", 400);
  auto scorer = Scorer::Make(inst.dataset.table, inst.qr, inst.problem);
  ASSERT_TRUE(scorer.ok());
  NaiveOptions opts;
  opts.num_continuous_splits = 40;  // big space: 820 clauses/attr, 672k pairs
  opts.max_clauses = 2;
  opts.time_budget_seconds = 0.2;
  NaivePartitioner naive(*scorer, opts);
  auto result = naive.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->exhausted);
  EXPECT_GT(result->num_evaluated, 0u);
  EXPECT_TRUE(std::isfinite(result->best.influence));
}

TEST(NaivePartitioner, FindsSingleBestUnitOnTinyData) {
  // A dataset where one discrete value is the entire explanation: NAIVE
  // must return exactly that clause.
  Table t(Schema({{"g", DataType::kCategorical},
                  {"v", DataType::kDouble},
                  {"s", DataType::kCategorical}}));
  // Group "a" is the outlier: s='bad' rows carry value 100, others 1.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.AppendRow({std::string("a"),
                             i < 2 ? 100.0 : 1.0,
                             std::string(i < 2 ? "bad" : "ok")}).ok());
    ASSERT_TRUE(t.AppendRow({std::string("b"), 1.0,
                             std::string(i < 2 ? "bad" : "ok")}).ok());
  }
  GroupByQuery q{"SUM", "v", {"g"}};
  auto qr = ExecuteGroupBy(t, q);
  ASSERT_TRUE(qr.ok());
  ProblemSpec problem;
  problem.outliers = {qr->FindResult("a").ValueOrDie()};
  problem.holdouts = {qr->FindResult("b").ValueOrDie()};
  problem.SetUniformErrorVector(1.0);
  problem.lambda = 0.5;
  problem.c = 1.0;
  problem.attributes = {"s"};
  auto scorer = Scorer::Make(t, *qr, problem);
  ASSERT_TRUE(scorer.ok());
  NaivePartitioner naive(*scorer, NaiveOptions{});
  auto result = naive.Run();
  ASSERT_TRUE(result.ok());
  auto code = t.ColumnByName("s").ValueOrDie()->CodeOf("bad");
  Predicate expected;
  ASSERT_TRUE(expected.AddSet({"s", {code}}).ok());
  EXPECT_EQ(result->best.pred, expected);
}

// --- DT -------------------------------------------------------------------------

/// Reference for SplitQuantiles on NaN-free values: sort, then read the
/// quantile positions off the sorted vector.
std::vector<double> SortedQuantiles(std::vector<double> values,
                                    int num_candidates) {
  std::vector<double> out;
  if (values.size() < 2) return out;
  std::sort(values.begin(), values.end());
  for (int q = 1; q <= num_candidates; ++q) {
    size_t pos = values.size() * static_cast<size_t>(q) /
                 (static_cast<size_t>(num_candidates) + 1);
    pos = std::min(pos, values.size() - 1);
    const double v = values[pos];
    if (v > values.front() && v <= values.back() &&
        (out.empty() || out.back() != v)) {
      out.push_back(v);
    }
  }
  return out;
}

TEST(DTSplitQuantiles, MatchTheSortOracle) {
  Rng rng(3);
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 40; ++n) sizes.push_back(n);
  sizes.push_back(100);
  sizes.push_back(1000);
  for (size_t n : sizes) {
    for (int k : {1, 2, 3, 5, 9}) {
      for (bool duplicates : {false, true}) {
        std::vector<double> values;
        for (size_t i = 0; i < n; ++i) {
          values.push_back(duplicates
                               ? static_cast<double>(rng.UniformInt(0, 4))
                               : rng.Uniform(-50.0, 50.0));
        }
        EXPECT_EQ(SplitQuantiles(values, k), SortedQuantiles(values, k))
            << "n=" << n << " k=" << k << " duplicates=" << duplicates;
      }
    }
  }
}

TEST(DTSplitQuantiles, DropNaNsFirst) {
  const double nan = std::nan("");
  std::vector<double> values = {nan, 4.0, 1.0, nan, 3.0, 2.0, nan, 5.0, 6.0};
  EXPECT_EQ(SplitQuantiles(values, 3),
            SortedQuantiles({4.0, 1.0, 3.0, 2.0, 5.0, 6.0}, 3));
  EXPECT_TRUE(SplitQuantiles({nan, nan, 1.0}, 3).empty());
  EXPECT_TRUE(SplitQuantiles({nan, nan, nan}, 3).empty());
}

TEST(DTPartitioner, PartitionsTileTheSpaceDisjointly) {
  Instance inst = MakeInstance(0.5, "AVG");
  // Drop hold-outs so only outlier partitions are produced (combining adds
  // overlapping intersections by design).
  inst.problem.holdouts.clear();
  auto scorer = Scorer::Make(inst.dataset.table, inst.qr, inst.problem);
  ASSERT_TRUE(scorer.ok());
  DTOptions opts;
  DTPartitioner dt(*scorer, opts);
  auto parts = dt.Run();
  ASSERT_TRUE(parts.ok());
  ASSERT_GT(parts->size(), 1u);

  // Every outlier-group row falls in exactly one partition.
  RowIdList outlier_union;
  for (int idx : inst.problem.outliers) {
    outlier_union = Union(outlier_union, inst.qr.results[idx].input_group.rows());
  }
  std::vector<int> hits(inst.dataset.table.num_rows(), 0);
  for (const ScoredPredicate& sp : *parts) {
    auto bound = sp.pred.Bind(inst.dataset.table).ValueOrDie();
    for (RowId r : outlier_union) {
      if (bound.Matches(r)) ++hits[r];
    }
  }
  for (RowId r : outlier_union) {
    EXPECT_EQ(hits[r], 1) << "row " << r;
  }
}

TEST(DTPartitioner, LeavesCarryPartitionInfo) {
  Instance inst = MakeInstance(0.5, "AVG");
  inst.problem.holdouts.clear();
  auto scorer = Scorer::Make(inst.dataset.table, inst.qr, inst.problem);
  ASSERT_TRUE(scorer.ok());
  DTPartitioner dt(*scorer, DTOptions{});
  auto parts = dt.Run();
  ASSERT_TRUE(parts.ok());
  size_t num_outliers = inst.problem.outliers.size();
  uint64_t total_count = 0;
  for (const ScoredPredicate& sp : *parts) {
    ASSERT_EQ(sp.info.outlier_counts.size(), num_outliers);
    EXPECT_TRUE(sp.info.has_representative);
    for (uint32_t n : sp.info.outlier_counts) total_count += n;
  }
  // Counts over all partitions sum to the outlier rows exactly (tiling).
  size_t expected = 0;
  for (int idx : inst.problem.outliers) {
    expected += inst.qr.results[idx].input_group.size();
  }
  EXPECT_EQ(total_count, expected);
}

TEST(DTPartitioner, RequiresIndependentAggregate) {
  Instance inst = MakeInstance(0.5, "MEDIAN");
  auto scorer = Scorer::Make(inst.dataset.table, inst.qr, inst.problem);
  ASSERT_TRUE(scorer.ok());
  DTPartitioner dt(*scorer, DTOptions{});
  EXPECT_TRUE(dt.Run().status().IsInvalidArgument());
}

TEST(DTPartitioner, SamplingReducesTupleScoring) {
  Instance inst = MakeInstance(0.5, "AVG", /*tuples_per_group=*/2000);
  inst.problem.holdouts.clear();
  auto scorer = Scorer::Make(inst.dataset.table, inst.qr, inst.problem);
  ASSERT_TRUE(scorer.ok());

  DTOptions full;
  full.use_sampling = false;
  DTPartitioner dt_full(*scorer, full);
  ASSERT_TRUE(dt_full.Run().ok());

  auto scorer2 = Scorer::Make(inst.dataset.table, inst.qr, inst.problem);
  ASSERT_TRUE(scorer2.ok());
  DTOptions sampled;
  sampled.use_sampling = true;
  sampled.epsilon = 0.05;
  DTPartitioner dt_sampled(*scorer2, sampled);
  ASSERT_TRUE(dt_sampled.Run().ok());

  EXPECT_LT(dt_sampled.stats().tuple_influences,
            dt_full.stats().tuple_influences);
}

TEST(DTPartitioner, HoldoutCombiningAddsIntersections) {
  Instance with_holdouts = MakeInstance(0.5, "AVG");
  auto s1 = Scorer::Make(with_holdouts.dataset.table, with_holdouts.qr,
                         with_holdouts.problem);
  ASSERT_TRUE(s1.ok());
  DTPartitioner dt1(*s1, DTOptions{});
  auto parts_with = dt1.Run();
  ASSERT_TRUE(parts_with.ok());

  Instance no_holdouts = MakeInstance(0.5, "AVG");
  no_holdouts.problem.holdouts.clear();
  auto s2 = Scorer::Make(no_holdouts.dataset.table, no_holdouts.qr,
                         no_holdouts.problem);
  ASSERT_TRUE(s2.ok());
  DTPartitioner dt2(*s2, DTOptions{});
  auto parts_without = dt2.Run();
  ASSERT_TRUE(parts_without.ok());

  EXPECT_GE(parts_with->size(), parts_without->size());
}

// --- MC -------------------------------------------------------------------------

TEST(MCPartitioner, RequiresAntiMonotoneCheck) {
  // AVG is independent but not anti-monotone: MC must refuse.
  Instance inst = MakeInstance(0.5, "AVG");
  auto scorer = Scorer::Make(inst.dataset.table, inst.qr, inst.problem);
  ASSERT_TRUE(scorer.ok());
  MCPartitioner mc(*scorer, MCOptions{}, MergerOptions{});
  EXPECT_TRUE(mc.Run().status().IsInvalidArgument());
}

TEST(MCPartitioner, RejectsSumOverNegativeData) {
  // check(D) fails when a value is negative.
  Table t(Schema({{"g", DataType::kCategorical},
                  {"v", DataType::kDouble},
                  {"x", DataType::kDouble}}));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        t.AppendRow({std::string("a"), i == 0 ? -1.0 : 1.0, 1.0 * i}).ok());
    ASSERT_TRUE(t.AppendRow({std::string("b"), 1.0, 1.0 * i}).ok());
  }
  GroupByQuery q{"SUM", "v", {"g"}};
  auto qr = ExecuteGroupBy(t, q);
  ASSERT_TRUE(qr.ok());
  ProblemSpec problem;
  problem.outliers = {qr->FindResult("a").ValueOrDie()};
  problem.SetUniformErrorVector(1.0);
  problem.attributes = {"x"};
  auto scorer = Scorer::Make(t, *qr, problem);
  ASSERT_TRUE(scorer.ok());
  MCPartitioner mc(*scorer, MCOptions{}, MergerOptions{});
  auto result = mc.Run();
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(MCPartitioner, FindsMultiAttributePredicates) {
  Instance inst = MakeInstance(0.3, "SUM", 600);
  auto scorer = Scorer::Make(inst.dataset.table, inst.qr, inst.problem);
  ASSERT_TRUE(scorer.ok());
  MCPartitioner mc(*scorer, MCOptions{}, MergerOptions{});
  auto result = mc.Run();
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->empty());
  // The winning predicate should constrain both dimensions (the planted
  // cube is 2-D) and overlap the outer cube.
  const Predicate& best = result->front().pred;
  EXPECT_EQ(best.Attributes().size(), 2u);
  EXPECT_TRUE(
      Predicate::Intersect(best, inst.dataset.outer_cube).has_value());
  EXPECT_GT(mc.stats().iterations, 1u);
  EXPECT_GT(mc.stats().predicates_pruned, 0u);
}

TEST(MCPartitioner, HighCardinalitySeedingCapsUnits) {
  // One discrete attribute with 500 values: unit seeding must cap at
  // max_discrete_values, keeping the influence-heavy values.
  Table t(Schema({{"g", DataType::kCategorical},
                  {"v", DataType::kDouble},
                  {"s", DataType::kCategorical}}));
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    std::string value = "v";
    value += std::to_string(i % 500);  // append-style: avoids GCC 12 -Wrestrict FP
    double amount = (i % 500 == 7) ? 50.0 : rng.Uniform(0.5, 1.5);
    ASSERT_TRUE(t.AppendRow({std::string(i % 2 ? "a" : "b"), amount,
                             value}).ok());
  }
  GroupByQuery q{"SUM", "v", {"g"}};
  auto qr = ExecuteGroupBy(t, q);
  ASSERT_TRUE(qr.ok());
  ProblemSpec problem;
  problem.outliers = {qr->FindResult("a").ValueOrDie()};
  problem.holdouts = {qr->FindResult("b").ValueOrDie()};
  problem.SetUniformErrorVector(1.0);
  problem.attributes = {"s"};
  problem.c = 1.0;
  auto scorer = Scorer::Make(t, *qr, problem);
  ASSERT_TRUE(scorer.ok());
  MCOptions opts;
  opts.max_discrete_values = 32;
  MCPartitioner mc(*scorer, opts, MergerOptions{});
  auto result = mc.Run();
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->empty());
  // The planted heavy value must survive the cap and win... both groups
  // contain v7 rows; the outlier group's v7 rows are heavy.
  auto code = t.ColumnByName("s").ValueOrDie()->CodeOf("v7");
  const SetClause* clause = result->front().pred.FindSet("s");
  ASSERT_NE(clause, nullptr);
  EXPECT_TRUE(clause->Contains(code));
}

}  // namespace
}  // namespace scorpion
