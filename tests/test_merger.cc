// Merger behaviour: adjacency, expansion semantics, top-quartile and
// cached-tuple optimizations, the influence memo (no predicate scored twice
// in one Run), step replay against its no-replay oracle and the indexed
// estimate pass against its name-based oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <mutex>
#include <unordered_set>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/dt.h"
#include "core/merger.h"
#include "eval/experiment.h"
#include "oracle/merger_estimate.h"
#include "oracle/merger_expand.h"
#include "workload/synth.h"

namespace scorpion {
namespace {

Predicate Range1D(const std::string& attr, double lo, double hi,
                  bool inc = false) {
  Predicate p;
  EXPECT_TRUE(p.AddRange({attr, lo, hi, inc}).ok());
  return p;
}

TEST(MergerAdjacency, TouchingAndOverlappingRanges) {
  // Share a boundary: adjacent.
  EXPECT_TRUE(Merger::Adjacent(Range1D("x", 0, 5), Range1D("x", 5, 10)));
  // Overlap: adjacent.
  EXPECT_TRUE(Merger::Adjacent(Range1D("x", 0, 6), Range1D("x", 5, 10)));
  // Gap: not adjacent.
  EXPECT_FALSE(Merger::Adjacent(Range1D("x", 0, 4), Range1D("x", 5, 10)));
  // Different attributes: unconstrained side always touches.
  EXPECT_TRUE(Merger::Adjacent(Range1D("x", 0, 4), Range1D("y", 5, 10)));
  // Sets never block adjacency.
  Predicate sa, sb;
  ASSERT_TRUE(sa.AddSet({"s", {1}}).ok());
  ASSERT_TRUE(sb.AddSet({"s", {7}}).ok());
  EXPECT_TRUE(Merger::Adjacent(sa, sb));
}

class MergerOnSynth : public ::testing::Test {
 protected:
  void SetUp() override {
    SynthOptions opts = SynthPreset(2, /*easy=*/true, /*seed=*/13);
    opts.tuples_per_group = 500;
    auto ds = GenerateSynth(opts);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::make_unique<SynthDataset>(std::move(*ds));
    auto qr = ExecuteGroupBy(dataset_->table, dataset_->query);
    ASSERT_TRUE(qr.ok());
    qr_ = std::make_unique<QueryResult>(std::move(*qr));
    auto problem =
        MakeProblem(*qr_, dataset_->outlier_keys, dataset_->holdout_keys,
                    1.0, 0.5, 0.2, dataset_->attributes);
    ASSERT_TRUE(problem.ok());
    problem_ = std::make_unique<ProblemSpec>(std::move(*problem));
    auto scorer = Scorer::Make(dataset_->table, *qr_, *problem_);
    ASSERT_TRUE(scorer.ok());
    scorer_ = std::make_unique<Scorer>(std::move(*scorer));
    auto domains = ComputeDomains(dataset_->table, problem_->attributes);
    ASSERT_TRUE(domains.ok());
    domains_ = *domains;
  }

  /// Quarter-tiles of the planted outer cube, as merge inputs.
  std::vector<ScoredPredicate> CubeQuarters() {
    const RangeClause* x = dataset_->outer_cube.FindRange("A1");
    const RangeClause* y = dataset_->outer_cube.FindRange("A2");
    double xm = (x->lo + x->hi) / 2, ym = (y->lo + y->hi) / 2;
    std::vector<ScoredPredicate> parts;
    for (int qx = 0; qx < 2; ++qx) {
      for (int qy = 0; qy < 2; ++qy) {
        ScoredPredicate sp;
        EXPECT_TRUE(sp.pred.AddRange({"A1", qx ? xm : x->lo,
                                      qx ? x->hi : xm, qx != 0}).ok());
        EXPECT_TRUE(sp.pred.AddRange({"A2", qy ? ym : y->lo,
                                      qy ? y->hi : ym, qy != 0}).ok());
        parts.push_back(std::move(sp));
      }
    }
    return parts;
  }

  std::unique_ptr<SynthDataset> dataset_;
  std::unique_ptr<QueryResult> qr_;
  std::unique_ptr<ProblemSpec> problem_;
  std::unique_ptr<Scorer> scorer_;
  DomainMap domains_;
};

TEST_F(MergerOnSynth, MergesQuartersBackIntoTheCube) {
  MergerOptions opts;
  opts.top_quartile_only = false;
  opts.use_cached_tuple_estimate = false;
  Merger merger(*scorer_, domains_, opts);
  auto merged = merger.Run(CubeQuarters());
  ASSERT_TRUE(merged.ok());
  // The full cube (hull of all four quarters) must be discovered and must
  // outrank every individual quarter.
  const ScoredPredicate& best = merged->front();
  EXPECT_TRUE(Predicate::SyntacticallyContains(best.pred,
                                               CubeQuarters()[0].pred));
  double cube_influence =
      scorer_->Influence(dataset_->outer_cube).ValueOrDie();
  EXPECT_GE(best.influence, cube_influence * 0.8);
  EXPECT_GT(merger.stats().merges_accepted, 0u);
}

TEST_F(MergerOnSynth, OutputContainsInputsAndIsSortedDescending) {
  MergerOptions opts;
  opts.top_quartile_only = false;
  Merger merger(*scorer_, domains_, opts);
  auto inputs = CubeQuarters();
  auto merged = merger.Run(inputs);
  ASSERT_TRUE(merged.ok());
  EXPECT_GE(merged->size(), inputs.size());
  for (size_t i = 1; i < merged->size(); ++i) {
    EXPECT_GE((*merged)[i - 1].influence, (*merged)[i].influence);
  }
}

TEST_F(MergerOnSynth, SameAttributesOnlyBlocksCrossSetHulls) {
  MergerOptions opts;
  opts.top_quartile_only = false;
  opts.same_attributes_only = true;
  Merger merger(*scorer_, domains_, opts);
  // One x-strip and one y-strip: with same_attributes_only their hull
  // (which would drop to TRUE) must never be produced.
  std::vector<ScoredPredicate> parts(2);
  parts[0].pred = Range1D("A1", 0, 50);
  parts[1].pred = Range1D("A2", 0, 50);
  auto merged = merger.Run(parts);
  ASSERT_TRUE(merged.ok());
  for (const ScoredPredicate& sp : *merged) {
    EXPECT_FALSE(sp.pred.IsTrue());
  }
}

TEST_F(MergerOnSynth, CachedTupleEstimateTracksExactScore) {
  // Build two half-cube partitions with full PartitionInfo and compare the
  // Section 6.3 estimate of their merge against the exact influence.
  const RangeClause* x = dataset_->outer_cube.FindRange("A1");
  const RangeClause* y = dataset_->outer_cube.FindRange("A2");
  double xm = (x->lo + x->hi) / 2;

  auto make_half = [&](bool right) {
    ScoredPredicate sp;
    EXPECT_TRUE(sp.pred.AddRange({"A1", right ? xm : x->lo,
                                  right ? x->hi : xm, right}).ok());
    EXPECT_TRUE(sp.pred.AddRange({"A2", y->lo, y->hi, true}).ok());
    auto bound = sp.pred.Bind(dataset_->table).ValueOrDie();
    double inf_sum = 0;
    size_t n = 0;
    for (size_t g = 0; g < problem_->outliers.size(); ++g) {
      int idx = problem_->outliers[g];
      Selection matched = *bound.Filter(qr_->results[idx].input_group);
      sp.info.outlier_counts.push_back(
          static_cast<uint32_t>(matched.size()));
      for (RowId r : matched.rows()) {
        inf_sum += scorer_->TupleInfluence(idx, r);
        ++n;
        if (!sp.info.has_representative) {
          sp.info.representative = r;
          sp.info.has_representative = true;
        }
      }
    }
    sp.info.mean_tuple_influence = n ? inf_sum / n : 0;
    return sp;
  };
  ScoredPredicate left = make_half(false);
  ScoredPredicate right = make_half(true);
  std::vector<ScoredPredicate> all = {left, right};

  MergerOptions opts;
  Merger merger(*scorer_, domains_, opts);
  ASSERT_TRUE(merger.CanEstimate(left, right));
  Predicate box = Predicate::BoundingBox(left.pred, right.pred);
  double estimate =
      merger.EstimateMergedInfluence(box, merger.IndexPartitions(all));
  double exact = scorer_->InfluenceOutlierOnly(box).ValueOrDie();
  // The estimate replaces every tuple with the cached representative, so it
  // is approximate — but it must be the right sign and order of magnitude.
  EXPECT_GT(estimate, 0.0);
  EXPECT_GT(exact, 0.0);
  EXPECT_LT(std::fabs(estimate - exact) / std::max(1.0, std::fabs(exact)),
            1.0);
}

TEST_F(MergerOnSynth, TopQuartileExpandsFewerSeeds) {
  auto inputs = CubeQuarters();
  // Add several deliberately poor far-away boxes so quartiling matters.
  for (int i = 0; i < 8; ++i) {
    ScoredPredicate sp;
    sp.pred = Range1D("A1", i, i + 1.0);
    inputs.push_back(std::move(sp));
  }
  MergerOptions all_opts;
  all_opts.top_quartile_only = false;
  all_opts.use_cached_tuple_estimate = false;
  MergerOptions quartile_opts = all_opts;
  quartile_opts.top_quartile_only = true;

  Merger merge_all(*scorer_, domains_, all_opts);
  Merger merge_quartile(*scorer_, domains_, quartile_opts);
  auto r1 = merge_all.Run(inputs);
  auto r2 = merge_quartile.Run(inputs);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  // Fewer seeds -> no more exact scorer calls than the full expansion.
  EXPECT_LE(merge_quartile.stats().exact_scores,
            merge_all.stats().exact_scores);
  // And the top result should still be found (it lives in the top quartile).
  EXPECT_NEAR(r1->front().influence, r2->front().influence, 1e-9);
}

TEST_F(MergerOnSynth, DistinctPredicatesThatPrintAlikeBothSurvive) {
  // Both bounds print as "A1 in [1, 2)"; deduplication must key on the
  // predicate itself, not on its rounded string.
  std::vector<ScoredPredicate> parts(2);
  parts[0].pred = Range1D("A1", 1.0000001, 2.0);
  parts[1].pred = Range1D("A1", 1.0000002, 2.0);
  ASSERT_EQ(parts[0].pred.ToString(), parts[1].pred.ToString());
  MergerOptions opts;
  opts.top_quartile_only = false;
  Merger merger(*scorer_, domains_, opts);
  auto merged = merger.Run(parts);
  ASSERT_TRUE(merged.ok());
  for (const ScoredPredicate& part : parts) {
    size_t copies = 0;
    for (const ScoredPredicate& sp : *merged) copies += sp.pred == part.pred;
    EXPECT_EQ(copies, 1u) << part.pred.ToString();
  }
}

/// Filters locally, exactly as the scorer would, and records every
/// predicate it is asked for. Thread-safe: scoring threads call Matches().
class RecordingMatchSource : public PredicateMatchSource {
 public:
  RecordingMatchSource(const Table& table, const QueryResult& qr,
                       const ProblemSpec& problem)
      : table_(table), qr_(qr), problem_(problem) {}

  Result<PredicateMatchCache> Matches(const Predicate& pred) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      requested_.push_back(pred);
    }
    SCORPION_ASSIGN_OR_RETURN(BoundPredicate bound, pred.Bind(table_));
    PredicateMatchCache cache(qr_.results.size());
    for (const std::vector<int>* groups :
         {&problem_.outliers, &problem_.holdouts}) {
      for (int idx : *groups) {
        SCORPION_ASSIGN_OR_RETURN(cache[idx],
                                  bound.Filter(qr_.results[idx].input_group));
        cache[idx].rows();  // vector form, like the scorer's own filter
      }
    }
    return cache;
  }

  std::vector<Predicate> requested() const {
    std::lock_guard<std::mutex> lock(mu_);
    return requested_;
  }

 private:
  const Table& table_;
  const QueryResult& qr_;
  const ProblemSpec& problem_;
  mutable std::mutex mu_;
  std::vector<Predicate> requested_;
};

class MergerMemo : public MergerOnSynth {
 protected:
  /// Runs one merge of `inputs` under every batching/thread configuration
  /// with a recording source installed, and checks that no predicate is
  /// scored twice, that every exact score is one fetch, that repeats were
  /// served from the memo, and that the output is bit-identical across
  /// configurations. Stores in `replayed` the number of expansion steps
  /// replayed, which every configuration must agree on. The inputs' match
  /// sets are dropped first, so every exact score goes to the source.
  void ExpectEachPredicateScoredOnce(std::vector<ScoredPredicate> inputs,
                                     const MergerOptions& opts,
                                     uint64_t* replayed = nullptr) {
    for (ScoredPredicate& sp : inputs) sp.matches.reset();
    ThreadPool pool(4);
    std::optional<std::vector<ScoredPredicate>> reference;
    std::optional<uint64_t> first_replayed;
    uint64_t examined[2] = {0, 0};
    for (bool batching : {false, true}) {
      for (size_t threads : {1, 4}) {
        SCOPED_TRACE(std::string(batching ? "batched" : "sequential") +
                     ", threads=" + std::to_string(threads));
        scorer_->set_enable_candidate_batching(batching);
        scorer_->set_thread_pool(threads > 1 ? &pool : nullptr);
        RecordingMatchSource source(dataset_->table, *qr_, *problem_);
        scorer_->set_match_source(&source);
        Merger merger(*scorer_, domains_, opts);
        auto merged = merger.Run(inputs);
        scorer_->set_match_source(nullptr);
        scorer_->set_thread_pool(nullptr);
        scorer_->set_enable_candidate_batching(true);
        ASSERT_TRUE(merged.ok()) << merged.status().ToString();

        const std::vector<Predicate> requested = source.requested();
        const std::unordered_set<Predicate> distinct(requested.begin(),
                                                     requested.end());
        EXPECT_EQ(distinct.size(), requested.size())
            << "a predicate was exact-scored twice";
        const MergerStats& stats = merger.stats();
        EXPECT_EQ(requested.size(), stats.exact_scores.load());
        EXPECT_GT(stats.memo_hits.load(), 0u);
        EXPECT_GT(stats.merges_accepted.load(), 0u);
        // The batched path scores whole chunks, so it examines every box
        // the sequential path does plus speculative chunk tails; every
        // examined box is either an exact score or a memo hit.
        const uint64_t boxes = stats.exact_scores + stats.memo_hits;
        if (threads == 1) {
          examined[batching] = boxes;
        } else {
          EXPECT_EQ(boxes, examined[batching]);
        }
        if (!first_replayed.has_value()) {
          first_replayed = stats.states_replayed.load();
        }
        EXPECT_EQ(stats.states_replayed.load(), *first_replayed);

        if (!reference.has_value()) {
          reference = *merged;
          continue;
        }
        ASSERT_EQ(merged->size(), reference->size());
        for (size_t i = 0; i < merged->size(); ++i) {
          EXPECT_EQ((*merged)[i].pred, (*reference)[i].pred);
          EXPECT_EQ((*merged)[i].influence, (*reference)[i].influence);
        }
      }
    }
    EXPECT_GE(examined[1], examined[0]);
    if (replayed != nullptr) *replayed = first_replayed.value_or(0);
  }
};

TEST_F(MergerMemo, DTMergeScoresEachPredicateOnce) {
  DTPartitioner dt(*scorer_, DTOptions{});
  auto partitions = dt.Run();
  ASSERT_TRUE(partitions.ok()) << partitions.status().ToString();
  ASSERT_GT(partitions->size(), 8u);
  // As the engine does: the Merger rescores every partition at its c.
  for (ScoredPredicate& sp : *partitions) {
    sp.influence = -std::numeric_limits<double>::infinity();
  }
  uint64_t replayed = 0;
  ExpectEachPredicateScoredOnce(*partitions, MergerOptions{}, &replayed);
  // Seeds converge: some reach a state an earlier seed already expanded.
  EXPECT_GT(replayed, 0u);
}

TEST_F(MergerMemo, PartitionsCarryingMatchesAreNeverFetched) {
  DTPartitioner dt(*scorer_, DTOptions{});
  auto partitions = dt.Run();
  ASSERT_TRUE(partitions.ok()) << partitions.status().ToString();
  std::unordered_set<Predicate> distinct;
  for (ScoredPredicate& sp : *partitions) {
    ASSERT_NE(sp.matches, nullptr) << sp.pred.ToString();
    sp.influence = -std::numeric_limits<double>::infinity();
    distinct.insert(sp.pred);
  }
  RecordingMatchSource source(dataset_->table, *qr_, *problem_);
  scorer_->set_match_source(&source);
  Merger merger(*scorer_, domains_, MergerOptions{});
  auto merged = merger.Run(*partitions);
  scorer_->set_match_source(nullptr);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();

  const MergerStats& stats = merger.stats();
  EXPECT_EQ(stats.match_cache_scores.load(), distinct.size());
  const std::vector<Predicate> requested = source.requested();
  EXPECT_EQ(stats.exact_scores.load(),
            stats.match_cache_scores.load() + requested.size());
  for (const Predicate& pred : requested) {
    EXPECT_EQ(distinct.count(pred), 0u) << "fetched " << pred.ToString();
  }
}

TEST_F(MergerMemo, MCMergeScoresEachPredicateOnce) {
  // MC hands the Merger already-scored grid units and merges within one
  // subspace on the exact path (see MCPartitioner's constructor).
  const AttrDomain& x = domains_.at("A1");
  const AttrDomain& y = domains_.at("A2");
  constexpr int kCells = 6;
  std::vector<ScoredPredicate> units;
  for (int i = 0; i < kCells; ++i) {
    for (int j = 0; j < kCells; ++j) {
      auto edge = [](const AttrDomain& d, int k) {
        return d.lo + (d.hi - d.lo) * k / kCells;
      };
      ScoredPredicate sp;
      ASSERT_TRUE(sp.pred.AddRange({"A1", edge(x, i), edge(x, i + 1),
                                    i + 1 == kCells}).ok());
      ASSERT_TRUE(sp.pred.AddRange({"A2", edge(y, j), edge(y, j + 1),
                                    j + 1 == kCells}).ok());
      sp.influence = scorer_->Influence(sp.pred).ValueOrDie();
      units.push_back(std::move(sp));
    }
  }
  MergerOptions opts;
  opts.use_cached_tuple_estimate = false;
  opts.top_quartile_only = false;
  opts.same_attributes_only = true;
  ExpectEachPredicateScoredOnce(units, opts);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// --- Step replay vs the no-replay oracle -------------------------------------

/// Predicate equality that also holds for NaN bounds (compared bitwise).
bool SamePredicate(const Predicate& a, const Predicate& b) {
  if (a.ranges().size() != b.ranges().size() || a.sets() != b.sets()) {
    return false;
  }
  for (size_t i = 0; i < a.ranges().size(); ++i) {
    const RangeClause& ra = a.ranges()[i];
    const RangeClause& rb = b.ranges()[i];
    if (ra.attr != rb.attr || !SameBits(ra.lo, rb.lo) ||
        !SameBits(ra.hi, rb.hi) || ra.hi_inclusive != rb.hi_inclusive) {
      return false;
    }
  }
  return true;
}

class MergerReplay : public MergerOnSynth {
 protected:
  /// The DT partitions of the fixture's problem, unscored as the engine
  /// hands them to the Merger.
  std::vector<ScoredPredicate> DTPartitions() {
    DTPartitioner dt(*scorer_, DTOptions{});
    auto partitions = dt.Run();
    EXPECT_TRUE(partitions.ok()) << partitions.status().ToString();
    EXPECT_GT(partitions->size(), 8u);
    for (ScoredPredicate& sp : *partitions) {
      sp.influence = -std::numeric_limits<double>::infinity();
    }
    return *partitions;
  }

  /// Merges `inputs` under budgets 1, 2, 3 and 64, batching on and off and
  /// 1 and 4 threads, and expects Merger::Run to match the no-replay oracle
  /// entry by entry, bit for bit, with the same exact scores and accepted
  /// merges. Returns the number of steps Run replayed.
  uint64_t ExpectReplayMatchesOracle(const std::vector<ScoredPredicate>& inputs,
                                     MergerOptions opts) {
    ThreadPool pool(4);
    uint64_t replayed = 0;
    for (int budget : {1, 2, 3, 64}) {
      opts.max_expansions_per_seed = budget;
      for (bool batching : {false, true}) {
        for (size_t threads : {1, 4}) {
          SCOPED_TRACE("budget=" + std::to_string(budget) +
                       (batching ? ", batched" : ", sequential") +
                       ", threads=" + std::to_string(threads));
          scorer_->set_enable_candidate_batching(batching);
          scorer_->set_thread_pool(threads > 1 ? &pool : nullptr);
          Merger merger(*scorer_, domains_, opts);
          auto got = merger.Run(inputs);
          Merger oracle_merger(*scorer_, domains_, opts);
          auto want = oracle::ExpandWithoutReplay(oracle_merger, *scorer_,
                                                  opts, inputs);
          scorer_->set_thread_pool(nullptr);
          scorer_->set_enable_candidate_batching(true);
          EXPECT_TRUE(got.ok()) << got.status().ToString();
          EXPECT_TRUE(want.ok()) << want.status().ToString();
          if (!got.ok() || !want.ok()) return replayed;

          EXPECT_EQ(merger.stats().exact_scores.load(), want->exact_scores);
          EXPECT_EQ(merger.stats().merges_accepted.load(),
                    want->merges_accepted);
          replayed += merger.stats().states_replayed;
          EXPECT_EQ(got->size(), want->results.size());
          if (got->size() != want->results.size()) return replayed;
          for (size_t i = 0; i < got->size(); ++i) {
            const ScoredPredicate& g = (*got)[i];
            const ScoredPredicate& w = want->results[i];
            SCOPED_TRACE("entry " + std::to_string(i) + ": " +
                         w.pred.ToString());
            EXPECT_TRUE(SamePredicate(g.pred, w.pred)) << g.pred.ToString();
            EXPECT_TRUE(SameBits(g.influence, w.influence));
            EXPECT_TRUE(SameBits(g.internal_score, w.internal_score));
            EXPECT_EQ(g.info.outlier_counts, w.info.outlier_counts);
            EXPECT_EQ(g.info.representative, w.info.representative);
            EXPECT_EQ(g.info.has_representative, w.info.has_representative);
          }
        }
      }
    }
    return replayed;
  }
};

TEST_F(MergerReplay, DTPartitionsMatchOracle) {
  EXPECT_GT(ExpectReplayMatchesOracle(DTPartitions(), MergerOptions{}), 0u);
}

TEST_F(MergerReplay, SeedsWithAndWithoutRepresentativeMatchOracle) {
  // Every other partition loses its representative, so it ranks its
  // neighbours by their own scores instead of by the estimate while the
  // rest estimate: seeds of both kinds reach the same boxes and must not
  // share a step there.
  std::vector<ScoredPredicate> inputs = DTPartitions();
  for (size_t i = 0; i < inputs.size(); i += 2) {
    inputs[i].info.has_representative = false;
  }
  MergerOptions opts;
  opts.top_quartile_only = false;
  EXPECT_GT(ExpectReplayMatchesOracle(inputs, opts), 0u);
}

TEST_F(MergerReplay, SameAttributesOnlyMatchesOracle) {
  MergerOptions opts;
  opts.top_quartile_only = false;
  opts.same_attributes_only = true;
  EXPECT_GT(ExpectReplayMatchesOracle(DTPartitions(), opts), 0u);
}

TEST_F(MergerReplay, MCUnitsMatchOracle) {
  // Already-scored grid units merged within one subspace on the exact path,
  // as MC hands them over.
  const AttrDomain& x = domains_.at("A1");
  const AttrDomain& y = domains_.at("A2");
  constexpr int kCells = 6;
  std::vector<ScoredPredicate> units;
  for (int i = 0; i < kCells; ++i) {
    for (int j = 0; j < kCells; ++j) {
      auto edge = [](const AttrDomain& d, int k) {
        return d.lo + (d.hi - d.lo) * k / kCells;
      };
      ScoredPredicate sp;
      ASSERT_TRUE(sp.pred.AddRange({"A1", edge(x, i), edge(x, i + 1),
                                    i + 1 == kCells}).ok());
      ASSERT_TRUE(sp.pred.AddRange({"A2", edge(y, j), edge(y, j + 1),
                                    j + 1 == kCells}).ok());
      sp.influence = scorer_->Influence(sp.pred).ValueOrDie();
      units.push_back(std::move(sp));
    }
  }
  MergerOptions opts;
  opts.use_cached_tuple_estimate = false;
  opts.top_quartile_only = false;
  opts.same_attributes_only = true;
  EXPECT_GT(ExpectReplayMatchesOracle(units, opts), 0u);
}

TEST_F(MergerReplay, NaNBoundedCandidateMatchesOracle) {
  // AddRange accepts a NaN bound. Such a predicate is unequal to itself, so
  // its boxes never hit the memo and its states must never be replayed.
  std::vector<ScoredPredicate> inputs = DTPartitions();
  ScoredPredicate nan_part;
  ASSERT_TRUE(nan_part.pred.AddRange({"A1", std::nan(""), 50.0}).ok());
  ASSERT_TRUE(nan_part.pred.AddRange({"A2", 0.0, 50.0}).ok());
  inputs.push_back(nan_part);
  MergerOptions opts;
  opts.top_quartile_only = false;
  EXPECT_GT(ExpectReplayMatchesOracle(inputs, opts), 0u);
  // The NaN seed itself grew: its accepted boxes keep the NaN bound.
  Merger merger(*scorer_, domains_, opts);
  auto merged = merger.Run(inputs);
  ASSERT_TRUE(merged.ok());
  size_t nan_bounded = 0;
  for (const ScoredPredicate& sp : *merged) {
    const RangeClause* a1 = sp.pred.FindRange("A1");
    nan_bounded += a1 != nullptr && std::isnan(a1->lo);
  }
  EXPECT_GE(nan_bounded, 2u);
}

// --- Indexed estimate pass vs the name-based oracle --------------------------

/// Random range+set predicate over a mix of attributes: the SYNTH columns
/// (ranges reaching past the domain, point ranges), a zero-width domain,
/// range and set attributes without any domain, a small categorical, a
/// hashed-cardinality one and one whose domain has no cardinality.
Predicate RandomPredicate(Rng& rng, bool allow_ghost) {
  Predicate p;
  auto range = [&](const std::string& attr, double lo, double span) {
    const double a = rng.Uniform(lo, lo + span);
    if (rng.Bernoulli(0.15)) {
      EXPECT_TRUE(p.AddRange({attr, a, a, true}).ok());  // point range
      return;
    }
    const double b = a + rng.Uniform(0.5, span * 0.6);
    EXPECT_TRUE(p.AddRange({attr, a, b, rng.Bernoulli(0.5)}).ok());
  };
  auto set = [&](const std::string& attr, int cardinality, int max_codes) {
    SetClause clause{attr, {}};
    const int64_t n = rng.UniformInt(1, max_codes);
    for (int64_t i = 0; i < n; ++i) {
      clause.codes.push_back(
          static_cast<int32_t>(rng.UniformInt(0, cardinality - 1)));
    }
    EXPECT_TRUE(p.AddSet(std::move(clause)).ok());
  };
  if (rng.Bernoulli(0.8)) range("A1", -10.0, 110.0);
  if (rng.Bernoulli(0.8)) range("A2", -10.0, 110.0);
  if (rng.Bernoulli(0.3)) range("flat", 0.0, 10.0);
  if (rng.Bernoulli(0.3)) range("loose", 0.0, 10.0);
  if (rng.Bernoulli(0.4)) set("cat", 6, 4);
  if (rng.Bernoulli(0.4)) set("wide", 1000, 300);
  if (rng.Bernoulli(0.2)) set("free", 10, 5);
  if (rng.Bernoulli(0.2)) set("nocard", 10, 5);
  if (allow_ghost && rng.Bernoulli(0.5)) range("ghost", 0.0, 10.0);
  return p;
}

ScoredPredicate RandomPartition(Rng& rng, size_t num_rows, size_t num_groups,
                                bool allow_ghost) {
  ScoredPredicate sp;
  sp.pred = RandomPredicate(rng, allow_ghost);
  sp.info.has_representative = rng.Bernoulli(0.9);
  sp.info.representative =
      static_cast<RowId>(rng.UniformInt(0, static_cast<int64_t>(num_rows) - 1));
  const size_t counts = rng.Bernoulli(0.9) ? num_groups : num_groups + 1;
  for (size_t g = 0; g < counts; ++g) {
    sp.info.outlier_counts.push_back(
        rng.Bernoulli(0.2) ? 0u : static_cast<uint32_t>(rng.UniformInt(1, 40)));
  }
  return sp;
}

TEST_F(MergerOnSynth, IndexedEstimateIsBitIdenticalToNameBasedOracle) {
  DomainMap domains = domains_;
  domains["flat"] = {DataType::kDouble, 5.0, 5.0, 0};
  domains["cat"] = {DataType::kCategorical, 0.0, 0.0, 6};
  domains["wide"] = {DataType::kCategorical, 0.0, 0.0, 1000};
  domains["nocard"] = {DataType::kCategorical, 0.0, 0.0, 0};
  // "loose", "free" and "ghost" have no domain; "ghost" only ever appears
  // on merge inputs, never on an indexed partition.
  const size_t num_rows = dataset_->table.num_rows();
  for (const char* aggregate : {"SUM", "AVG"}) {
    SCOPED_TRACE(aggregate);
    GroupByQuery query = dataset_->query;
    query.aggregate = aggregate;
    auto qr = ExecuteGroupBy(dataset_->table, query);
    ASSERT_TRUE(qr.ok());
    auto problem =
        MakeProblem(*qr, dataset_->outlier_keys, dataset_->holdout_keys, 1.0,
                    0.5, 0.2, dataset_->attributes);
    ASSERT_TRUE(problem.ok());
    auto scorer = Scorer::Make(dataset_->table, *qr, *problem);
    ASSERT_TRUE(scorer.ok());
    ASSERT_TRUE(scorer->incremental());
    const size_t num_groups = problem->outliers.size();

    Rng rng(20260917);
    std::vector<ScoredPredicate> all;
    for (int i = 0; i < 120; ++i) {
      all.push_back(RandomPartition(rng, num_rows, num_groups, false));
    }
    Merger merger(*scorer, domains, MergerOptions{});
    const Merger::EstimateIndex index = merger.IndexPartitions(all);

    size_t compared = 0;
    size_t informative = 0;
    for (int t = 0; t < 3000; ++t) {
      auto pick = [&]() {
        if (rng.Bernoulli(0.5)) {
          return all[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(all.size()) - 1))];
        }
        return RandomPartition(rng, num_rows, num_groups, true);
      };
      const ScoredPredicate a = pick();
      const ScoredPredicate b = pick();
      if (!merger.CanEstimate(a, b)) continue;
      const double got = merger.EstimateMergedInfluence(
          Predicate::BoundingBox(a.pred, b.pred), index);
      const double want =
          oracle::EstimateMergedInfluence(*scorer, domains, a, b, all);
      ASSERT_TRUE(SameBits(got, want))
          << a.pred.ToString() << " + " << b.pred.ToString() << ": " << got
          << " vs " << want;
      ++compared;
      if (std::isfinite(want) && want != 0.0) ++informative;
    }
    EXPECT_GT(compared, 1000u);
    EXPECT_GT(informative, 300u);
  }
}

}  // namespace
}  // namespace scorpion
