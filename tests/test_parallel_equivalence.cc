// Serial-vs-parallel equivalence: running the engine with num_threads > 1
// must produce bit-identical output to num_threads == 1. Parallel work writes
// to per-index slots and every reduction stays serial in index order, so this
// is an exact (==) comparison on doubles, not a tolerance check. Also covers
// exactness of the atomic ScorerStats under concurrent scoring.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/scorpion.h"
#include "eval/experiment.h"
#include "query/groupby.h"
#include "workload/synth.h"

namespace scorpion {
namespace {

struct Fixture {
  SynthDataset dataset;
  QueryResult qr;
  ProblemSpec problem;
};

Fixture MakeFixture(uint64_t seed = 17) {
  SynthOptions opts = SynthPreset(2, /*easy=*/true, seed);
  opts.num_groups = 8;
  opts.tuples_per_group = 400;
  Fixture f;
  f.dataset = GenerateSynth(opts).ValueOrDie();
  f.qr = ExecuteGroupBy(f.dataset.table, f.dataset.query).ValueOrDie();
  f.problem = MakeProblem(f.qr, f.dataset.outlier_keys,
                          f.dataset.holdout_keys, /*error_direction=*/1.0,
                          /*lambda=*/0.5, /*c=*/0.2, f.dataset.attributes)
                  .ValueOrDie();
  return f;
}

/// Asserts two explanations are exactly equal where determinism is promised:
/// same ranked predicates, same (bitwise) influences.
void ExpectSameExplanation(const Explanation& serial,
                           const Explanation& parallel) {
  ASSERT_EQ(serial.predicates.size(), parallel.predicates.size());
  for (size_t i = 0; i < serial.predicates.size(); ++i) {
    EXPECT_EQ(serial.predicates[i].pred.ToString(),
              parallel.predicates[i].pred.ToString())
        << "rank " << i;
    EXPECT_EQ(serial.predicates[i].influence, parallel.predicates[i].influence)
        << "rank " << i;
  }
}

class ParallelEquivalence : public ::testing::TestWithParam<Algorithm> {};

TEST_P(ParallelEquivalence, ExplainMatchesSerialBitForBit) {
  Fixture f = MakeFixture();

  ScorpionOptions options;
  options.algorithm = GetParam();
  // NAIVE must exhaust its space in both runs or the wall-clock budget would
  // make the comparison timing-dependent.
  options.naive.time_budget_seconds = 300.0;
  options.naive.max_clauses = 2;

  options.num_threads = 1;
  Scorpion serial_engine(options);
  auto serial = serial_engine.Explain(f.dataset.table, f.qr, f.problem);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  options.num_threads = 4;
  Scorpion parallel_engine(options);
  auto parallel = parallel_engine.Explain(f.dataset.table, f.qr, f.problem);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  if (GetParam() == Algorithm::kNaive) {
    ASSERT_TRUE(serial->naive_exhausted);
    ASSERT_TRUE(parallel->naive_exhausted);
  }
  ExpectSameExplanation(*serial, *parallel);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, ParallelEquivalence,
                         ::testing::Values(Algorithm::kDT, Algorithm::kMC,
                                           Algorithm::kNaive),
                         [](const ::testing::TestParamInfo<Algorithm>& info) {
                           return AlgorithmToString(info.param);
                         });

TEST(ParallelEquivalence, DTSamplingPathMatchesSerialBitForBit) {
  // Sampling exercises the RNG-order discipline in DTPartitioner: draws stay
  // serial, only influence computation parallelizes.
  Fixture f = MakeFixture(/*seed=*/23);
  ScorpionOptions options;
  options.algorithm = Algorithm::kDT;
  options.dt.use_sampling = true;
  options.dt.epsilon = 0.05;

  options.num_threads = 1;
  auto serial = Scorpion(options).Explain(f.dataset.table, f.qr, f.problem);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  options.num_threads = 4;
  auto parallel = Scorpion(options).Explain(f.dataset.table, f.qr, f.problem);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  ExpectSameExplanation(*serial, *parallel);
}

TEST(ParallelEquivalence, ScorerInfluenceMatchesSerialBitForBit) {
  Fixture f = MakeFixture();
  auto scorer = Scorer::Make(f.dataset.table, f.qr, f.problem);
  ASSERT_TRUE(scorer.ok());

  auto serial_inf = scorer->Influence(f.dataset.outer_cube);
  ASSERT_TRUE(serial_inf.ok());

  ThreadPool pool(4);
  scorer->set_thread_pool(&pool);
  auto parallel_inf = scorer->Influence(f.dataset.outer_cube);
  ASSERT_TRUE(parallel_inf.ok());
  EXPECT_EQ(*serial_inf, *parallel_inf);

  auto matches_pooled =
      scorer->BuildMatchCacheWithin(f.dataset.inner_cube, nullptr);
  ASSERT_TRUE(matches_pooled.ok());
  auto detailed_pooled = scorer->ScoreDetailed(**matches_pooled);
  scorer->set_thread_pool(nullptr);
  auto matches_plain =
      scorer->BuildMatchCacheWithin(f.dataset.inner_cube, nullptr);
  ASSERT_TRUE(matches_plain.ok());
  auto detailed_plain = scorer->ScoreDetailed(**matches_plain);
  ASSERT_TRUE(detailed_pooled.ok());
  ASSERT_TRUE(detailed_plain.ok());
  EXPECT_EQ(detailed_pooled->full, detailed_plain->full);
  EXPECT_EQ(detailed_pooled->outlier_only, detailed_plain->outlier_only);
  ASSERT_EQ((*matches_pooled)->size(), (*matches_plain)->size());
  for (size_t i = 0; i < (*matches_pooled)->size(); ++i) {
    EXPECT_EQ((**matches_pooled)[i], (**matches_plain)[i]);
  }
}

TEST(ParallelEquivalence, ScorerStatsStayExactUnderConcurrency) {
  Fixture f = MakeFixture();
  auto scorer = Scorer::Make(f.dataset.table, f.qr, f.problem);
  ASSERT_TRUE(scorer.ok());
  ThreadPool pool(4);
  scorer->set_thread_pool(&pool);

  // Drive the scorer from several top-level threads at once on top of its
  // internal per-group parallelism; the atomic counters must not lose
  // increments.
  constexpr int kCallers = 4;
  constexpr int kCallsPerCaller = 25;
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      for (int i = 0; i < kCallsPerCaller; ++i) {
        auto inf = scorer->Influence(f.dataset.outer_cube);
        ASSERT_TRUE(inf.ok());
      }
    });
  }
  for (std::thread& t : callers) t.join();

  EXPECT_EQ(scorer->stats().predicate_scores.load(),
            static_cast<uint64_t>(kCallers * kCallsPerCaller));
  // Every call scores all outlier and hold-out groups; matched sets can be
  // empty for some groups (Delta short-circuits), so group_deltas is a
  // multiple of the per-call count observed in a single serial call.
  Scorer solo = Scorer::Make(f.dataset.table, f.qr, f.problem).ValueOrDie();
  auto inf = solo.Influence(f.dataset.outer_cube);
  ASSERT_TRUE(inf.ok());
  EXPECT_EQ(scorer->stats().group_deltas.load(),
            solo.stats().group_deltas.load() *
                static_cast<uint64_t>(kCallers * kCallsPerCaller));
}

}  // namespace
}  // namespace scorpion
