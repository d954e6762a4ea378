// Narrowed match sets: a candidate's matches filtered within its parent's
// must equal a whole-group filter, slot by slot, on generated tables with
// NaN runs, a categorical attribute of more than 256 codes (hashed zone-map
// bitsets), sizes around multiples of the 4096-row block, and clustered or
// shuffled groups. Checked for the Scorer entry itself and for every
// partition DT and every candidate MC hands on.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/dt.h"
#include "core/mc.h"
#include "core/scorer.h"
#include "eval/experiment.h"
#include "query/groupby.h"
#include "workload/expense.h"
#include "workload/synth.h"

namespace scorpion {
namespace {

constexpr int kGroups = 6;
constexpr int kCodes = 300;

struct Instance {
  Table table{Schema{}};
  QueryResult qr;
  ProblemSpec problem;
};

/// `rows` rows over six groups G0..G5, in contiguous runs or shuffled. `x`
/// has runs of 37 NaNs, `cat` draws from 300 codes, and SUM(v) has v >= 0
/// so MC applies. Outlier groups G0 and G1 get large v where x > 70 and
/// cat is among the first 30 codes, so DT splits on both attributes.
Instance MakeGenerated(size_t rows, bool shuffled, uint64_t seed) {
  Instance inst;
  inst.table = Table(Schema({{"g", DataType::kCategorical},
                             {"x", DataType::kDouble},
                             {"y", DataType::kDouble},
                             {"cat", DataType::kCategorical},
                             {"v", DataType::kDouble}}));
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    const int g = shuffled ? static_cast<int>(rng.UniformInt(0, kGroups - 1))
                           : static_cast<int>(i * kGroups / rows);
    const bool nan_run = (i / 37) % 11 == 3;
    const double x = nan_run ? std::nan("") : rng.Uniform(0.0, 100.0);
    const double y = rng.Uniform(0.0, 100.0);
    const int code = static_cast<int>(rng.UniformInt(0, kCodes - 1));
    double v = rng.Uniform(0.0, 10.0);
    if (g < 2 && x > 70.0 && code < 30) v += 100.0;
    std::vector<Value> values = {"G" + std::to_string(g), x, y,
                                 "c" + std::to_string(code), v};
    EXPECT_TRUE(inst.table.AppendRow(values).ok());
  }
  GroupByQuery query;
  query.aggregate = "SUM";
  query.agg_attr = "v";
  query.group_by = {"g"};
  inst.qr = ExecuteGroupBy(inst.table, query).ValueOrDie();
  inst.problem = MakeProblem(inst.qr, {"G0", "G1"}, {"G2", "G3", "G4"}, 1.0,
                             /*lambda=*/0.5, /*c=*/0.5, {"cat", "x", "y"})
                     .ValueOrDie();
  return inst;
}

Instance MakeSynth() {
  SynthOptions opts = SynthPreset(2, /*easy=*/true, /*seed=*/17);
  opts.tuples_per_group = 400;
  SynthDataset data = GenerateSynth(opts).ValueOrDie();
  Instance inst;
  inst.qr = ExecuteGroupBy(data.table, data.query).ValueOrDie();
  inst.problem = MakeProblem(inst.qr, data.outlier_keys, data.holdout_keys,
                             1.0, 0.5, 0.5, data.attributes)
                     .ValueOrDie();
  inst.table = std::move(data.table);
  return inst;
}

Instance MakeExpense() {
  ExpenseOptions opts;
  opts.num_days = 40;
  opts.rows_per_day = 100;
  opts.num_recipients = 300;
  ExpenseDataset data = GenerateExpense(opts).ValueOrDie();
  Instance inst;
  inst.qr = ExecuteGroupBy(data.table, data.query).ValueOrDie();
  inst.problem = MakeProblem(inst.qr, data.outlier_keys, data.holdout_keys,
                             1.0, 0.8, 0.5, data.attributes)
                     .ValueOrDie();
  inst.table = std::move(data.table);
  return inst;
}

/// The whole-group filter of `pred` in the compact slot layout (outliers,
/// then hold-outs), computed without the Scorer.
PredicateMatchCache WholeGroupMatches(const Instance& inst,
                                      const Predicate& pred) {
  BoundPredicate bound = pred.Bind(inst.table).ValueOrDie();
  PredicateMatchCache cache;
  for (const std::vector<int>* groups :
       {&inst.problem.outliers, &inst.problem.holdouts}) {
    for (int idx : *groups) {
      cache.push_back(bound.Filter(inst.qr.results[idx].input_group)
                          .ValueOrDie());
    }
  }
  return cache;
}

void ExpectSameMatches(const PredicateMatchCache& got,
                       const PredicateMatchCache& want,
                       const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t slot = 0; slot < want.size(); ++slot) {
    EXPECT_EQ(got[slot].universe_size(), want[slot].universe_size())
        << label << " slot " << slot;
    EXPECT_EQ(got[slot].rows(), want[slot].rows())
        << label << " slot " << slot;
  }
}

size_t NaNRows(const Instance& inst, const PredicateMatchCache& cache) {
  const Column& x = *inst.table.ColumnByName("x").ValueOrDie();
  size_t n = 0;
  for (const Selection& slot : cache) {
    for (RowId r : slot.rows()) n += std::isnan(x.GetDouble(r)) ? 1 : 0;
  }
  return n;
}

Predicate Range(const std::string& attr, double lo, double hi) {
  return Predicate::True().WithRange({attr, lo, hi, false});
}

Predicate Codes(const std::string& attr, int32_t first, int32_t last) {
  SetClause clause{attr, {}};
  for (int32_t c = first; c <= last; ++c) clause.codes.push_back(c);
  return Predicate::True().WithSet(std::move(clause));
}

Predicate And(const Predicate& a, const Predicate& b) {
  return Predicate::Intersect(a, b).value();
}

class NarrowingOnGenerated
    : public ::testing::TestWithParam<std::tuple<size_t, bool>> {};

TEST_P(NarrowingOnGenerated, FilterWithinParentEqualsWholeGroupFilter) {
  const auto [rows, shuffled] = GetParam();
  const Instance inst = MakeGenerated(rows, shuffled, /*seed=*/rows);
  Scorer scorer = Scorer::Make(inst.table, inst.qr, inst.problem).ValueOrDie();
  auto within = [&](const Predicate& pred, const PredicateMatchCache* parent) {
    return scorer.BuildMatchCacheWithin(pred, parent).ValueOrDie();
  };

  const Predicate parent = And(Range("x", 10.0, 90.0), Codes("cat", 0, 199));
  const auto parent_matches = within(parent, nullptr);
  ExpectSameMatches(*parent_matches, WholeGroupMatches(inst, parent),
                    "parent");
  ASSERT_GT(NaNRows(inst, *parent_matches), 0u);

  // Range split: each child filters its own new range within the parent,
  // and NaN rows land on both sides.
  for (const RangeClause& clause :
       {RangeClause{"x", 10.0, 40.0, false}, RangeClause{"x", 40.0, 90.0, false}}) {
    const Predicate child = parent.WithRange(clause);
    const auto narrowed =
        within(Predicate::True().WithRange(clause), parent_matches.get());
    ExpectSameMatches(*narrowed, WholeGroupMatches(inst, child),
                      child.ToString());
    EXPECT_EQ(NaNRows(inst, *narrowed), NaNRows(inst, *parent_matches));
    ExpectSameMatches(*within(child, parent_matches.get()),
                      WholeGroupMatches(inst, child), child.ToString());
  }

  // Set split: the left child is one code; the right child, the parent's
  // set without it, is the parent's rows without the left's.
  const Predicate left = parent.WithSet({"cat", {5}});
  const auto left_matches =
      within(Predicate::True().WithSet({"cat", {5}}), parent_matches.get());
  ExpectSameMatches(*left_matches, WholeGroupMatches(inst, left), "left");
  SetClause rest{"cat", {}};
  for (int32_t c = 0; c <= 199; ++c) {
    if (c != 5) rest.codes.push_back(c);
  }
  const Predicate right = parent.WithSet(rest);
  PredicateMatchCache right_matches;
  for (size_t slot = 0; slot < parent_matches->size(); ++slot) {
    right_matches.push_back(
        (*parent_matches)[slot].AndNot((*left_matches)[slot]));
  }
  ExpectSameMatches(right_matches, WholeGroupMatches(inst, right), "right");

  // An intersection lies inside both of its sides.
  const Predicate a = And(Range("x", 20.0, 80.0), Codes("cat", 0, 149));
  const Predicate b = And(Range("y", 0.0, 50.0), Codes("cat", 100, 299));
  const Predicate inter = And(a, b);
  for (const Predicate* side : {&a, &b}) {
    ExpectSameMatches(*within(inter, within(*side, nullptr).get()),
                      WholeGroupMatches(inst, inter), inter.ToString());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, NarrowingOnGenerated,
    ::testing::Combine(::testing::Values(size_t{4095}, size_t{4096},
                                         size_t{4097}, size_t{3 * 4096 + 1}),
                       ::testing::Bool()));

/// Every DT partition carries matches equal to a whole-group filter.
void ExpectDTPartitionsExact(const Instance& inst) {
  Scorer scorer = Scorer::Make(inst.table, inst.qr, inst.problem).ValueOrDie();
  DTPartitioner dt(scorer, DTOptions{});
  auto partitions = dt.Run();
  ASSERT_TRUE(partitions.ok()) << partitions.status().ToString();
  ASSERT_GT(partitions->size(), 1u);
  for (const ScoredPredicate& sp : *partitions) {
    ASSERT_NE(sp.matches, nullptr) << sp.pred.ToString();
    ExpectSameMatches(*sp.matches, WholeGroupMatches(inst, sp.pred),
                      sp.pred.ToString());
  }
}

TEST(DTNarrowing, PartitionMatchesEqualWholeGroupFilterOnGenerated) {
  for (const auto& [rows, shuffled] :
       {std::pair<size_t, bool>{4097, true}, {3 * 4096 + 1, false}}) {
    const Instance inst = MakeGenerated(rows, shuffled, /*seed=*/7);
    SCOPED_TRACE(std::to_string(rows) + (shuffled ? " shuffled" : ""));
    ExpectDTPartitionsExact(inst);
  }
}

TEST(DTNarrowing, PartitionMatchesEqualWholeGroupFilterOnSynth) {
  ExpectDTPartitionsExact(MakeSynth());
}

TEST(DTNarrowing, PartitionMatchesEqualWholeGroupFilterOnExpense) {
  ExpectDTPartitionsExact(MakeExpense());
}

TEST(DTNarrowing, SplitsBothKindsOfClauseOnGenerated) {
  // The generated table makes DT narrow a range clause with NaN rows on
  // both sides and a set clause over more than 256 codes.
  const Instance inst = MakeGenerated(3 * 4096 + 1, true, /*seed=*/7);
  Scorer scorer = Scorer::Make(inst.table, inst.qr, inst.problem).ValueOrDie();
  auto partitions = DTPartitioner(scorer, DTOptions{}).Run().ValueOrDie();
  size_t ranges = 0, sets = 0, with_nan = 0;
  for (const ScoredPredicate& sp : partitions) {
    ranges += sp.pred.FindRange("x") != nullptr;
    sets += sp.pred.FindSet("cat") != nullptr;
    with_nan += sp.pred.FindRange("x") != nullptr &&
                NaNRows(inst, *sp.matches) > 0;
  }
  EXPECT_GT(ranges, 0u);
  EXPECT_GT(sets, 0u);
  EXPECT_GT(with_nan, 0u);
}

/// Every MC answer still carrying matches (a candidate the merge left
/// unchanged) has matches equal to a whole-group filter, and at least one
/// of them is an intersection narrowed from a frontier predicate.
void ExpectMCCandidatesExact(const Instance& inst) {
  Scorer scorer = Scorer::Make(inst.table, inst.qr, inst.problem).ValueOrDie();
  MCPartitioner mc(scorer, MCOptions{}, MergerOptions{});
  auto ranked = mc.Run();
  ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
  size_t narrowed = 0;
  for (const ScoredPredicate& sp : *ranked) {
    if (sp.matches == nullptr) continue;
    narrowed += sp.pred.num_clauses() > 1;
    ExpectSameMatches(*sp.matches, WholeGroupMatches(inst, sp.pred),
                      sp.pred.ToString());
  }
  EXPECT_GT(narrowed, 0u);
  EXPECT_GT(mc.stats().merger.exact_scores.load(), 0u);
}

TEST(MCNarrowing, CandidateMatchesEqualWholeGroupFilterOnGenerated) {
  ExpectMCCandidatesExact(MakeGenerated(4097, true, /*seed=*/7));
}

TEST(MCNarrowing, CandidateMatchesEqualWholeGroupFilterOnSynth) {
  ExpectMCCandidatesExact(MakeSynth());
}

}  // namespace
}  // namespace scorpion
