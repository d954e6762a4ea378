// Test oracle: Merger::Run without the step table — every seed expands
// every state it reaches, recomputing the grow list, the estimates and the
// accept decision even where an earlier seed already took the same step.
// Same influence memo, same chunked accept loop, same counters. Built only
// from Merger's and Scorer's public pieces; Merger::Run must reproduce its
// output bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "core/merger.h"
#include "core/scored_predicate.h"
#include "core/scorer.h"

namespace scorpion {
namespace oracle {

struct ExpandRun {
  std::vector<ScoredPredicate> results;
  uint64_t exact_scores = 0;
  uint64_t merges_accepted = 0;
};

/// Merger::Run of `candidates` under `options`, replaying nothing. `merger`
/// must have been built with the same scorer and options; it supplies the
/// estimate pass.
inline Result<ExpandRun> ExpandWithoutReplay(
    const Merger& merger, const Scorer& scorer, const MergerOptions& options,
    std::vector<ScoredPredicate> candidates) {
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  constexpr double kImproveEps = 1e-12;
  ExpandRun run;
  if (candidates.empty()) return run;

  candidates = UniquePredicates(std::move(candidates));
  for (ScoredPredicate& sp : candidates) {
    if (std::isfinite(sp.influence)) continue;
    SCORPION_ASSIGN_OR_RETURN(sp.influence, scorer.InfluenceCached(sp));
    ++run.exact_scores;
  }
  std::sort(candidates.begin(), candidates.end(), ByInfluenceDesc);

  std::unordered_map<Predicate, double> memo;
  for (const ScoredPredicate& sp : candidates) {
    memo.emplace(sp.pred, sp.influence);
  }
  const Merger::EstimateIndex index = merger.IndexPartitions(candidates);

  size_t num_seeds = candidates.size();
  if (options.top_quartile_only && candidates.size() >= 4) {
    num_seeds = std::max<size_t>(1, candidates.size() / 4);
  }
  const size_t max_chunk = scorer.candidate_batching_enabled() ? 8 : 1;

  run.results = candidates;
  for (size_t s = 0; s < num_seeds; ++s) {
    ScoredPredicate cur = candidates[s];
    for (int expansion = 0; expansion < options.max_expansions_per_seed;
         ++expansion) {
      struct Candidate {
        const ScoredPredicate* other;
        double estimate;
      };
      std::vector<Candidate> grow;
      for (const ScoredPredicate& other : candidates) {
        if (options.same_attributes_only &&
            other.pred.Attributes() != cur.pred.Attributes()) {
          continue;
        }
        if (Predicate::SyntacticallyContains(cur.pred, other.pred)) continue;
        if (!Merger::Adjacent(cur.pred, other.pred)) continue;
        grow.push_back({&other, 0.0});
        if (grow.size() >= options.max_candidates_per_step) break;
      }
      if (grow.empty()) break;
      for (Candidate& g : grow) {
        g.estimate = merger.CanEstimate(cur, *g.other)
                         ? merger.EstimateMergedInfluence(
                               Predicate::BoundingBox(cur.pred, g.other->pred),
                               index)
                         : g.other->influence;
      }
      std::sort(grow.begin(), grow.end(),
                [](const Candidate& a, const Candidate& b) {
                  return a.estimate > b.estimate;
                });

      bool accepted = false;
      for (size_t start = 0; start < grow.size() && !accepted;) {
        const size_t lim = grow[start].estimate > cur.influence + kImproveEps
                               ? start + 1
                               : std::min(start + max_chunk, grow.size());
        std::vector<size_t> idx;
        std::vector<Predicate> boxes;
        std::vector<const double*> box_scores;
        std::vector<Predicate> misses;
        std::vector<double*> miss_scores;
        for (size_t i = start; i < lim; ++i) {
          Predicate box = Predicate::BoundingBox(cur.pred, grow[i].other->pred);
          if (box == cur.pred) continue;
          auto [it, inserted] = memo.try_emplace(box, kNegInf);
          if (inserted) {
            misses.push_back(box);
            miss_scores.push_back(&it->second);
          }
          idx.push_back(i);
          boxes.push_back(std::move(box));
          box_scores.push_back(&it->second);
        }
        if (!misses.empty()) {
          std::vector<double> scores;
          if (misses.size() == 1) {
            SCORPION_ASSIGN_OR_RETURN(double score,
                                      scorer.Influence(misses[0]));
            scores.push_back(score);
          } else {
            SCORPION_ASSIGN_OR_RETURN(scores, scorer.InfluenceAll(misses));
          }
          run.exact_scores += misses.size();
          for (size_t j = 0; j < misses.size(); ++j) {
            *miss_scores[j] = scores[j];
          }
        }
        for (size_t j = 0; j < idx.size(); ++j) {
          const double score = *box_scores[j];
          if (!(score > cur.influence + kImproveEps)) continue;
          // Merger's AcceptMerge: counts add, the higher internal score
          // wins, the seed's representative stays.
          const ScoredPredicate& other = *grow[idx[j]].other;
          ScoredPredicate merged;
          merged.pred = std::move(boxes[j]);
          merged.influence = score;
          merged.info = cur.info;
          if (cur.info.outlier_counts.size() ==
              other.info.outlier_counts.size()) {
            for (size_t g = 0; g < merged.info.outlier_counts.size(); ++g) {
              merged.info.outlier_counts[g] += other.info.outlier_counts[g];
            }
          }
          merged.internal_score =
              std::max(cur.internal_score, other.internal_score);
          cur = std::move(merged);
          accepted = true;
          ++run.merges_accepted;
          break;
        }
        start = lim;
      }
      if (!accepted) break;
    }
    run.results.push_back(std::move(cur));
  }

  run.results = UniquePredicates(std::move(run.results));
  std::sort(run.results.begin(), run.results.end(), ByInfluenceDesc);
  return run;
}

}  // namespace oracle
}  // namespace scorpion
