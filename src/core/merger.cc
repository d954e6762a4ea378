#include "core/merger.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/macros.h"

namespace scorpion {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
// Minimum exact-score improvement to accept a merge; guards against
// floating-point churn producing endless no-op expansions.
constexpr double kImproveEps = 1e-12;

// The accepted merge of `cur` with `other` as `box`, exactly scored
// `influence`. Approximate metadata carries forward so later estimates stay
// possible: counts add, the higher-influence representative wins.
ScoredPredicate AcceptMerge(const ScoredPredicate& cur,
                            const ScoredPredicate& other, Predicate box,
                            double influence) {
  ScoredPredicate merged;
  merged.pred = std::move(box);
  merged.influence = influence;
  merged.info = cur.info;
  if (cur.info.outlier_counts.size() == other.info.outlier_counts.size()) {
    for (size_t g = 0; g < merged.info.outlier_counts.size(); ++g) {
      merged.info.outlier_counts[g] += other.info.outlier_counts[g];
    }
  }
  merged.internal_score = std::max(cur.internal_score, other.internal_score);
  return merged;
}
}  // namespace

Merger::Merger(const Scorer& scorer, DomainMap domains, MergerOptions options)
    : scorer_(scorer), domains_(std::move(domains)), options_(options) {}

bool Merger::Adjacent(const Predicate& a, const Predicate& b) {
  for (const RangeClause& ra : a.ranges()) {
    const RangeClause* rb = b.FindRange(ra.attr);
    if (rb == nullptr) continue;  // unconstrained side spans everything
    if (ra.lo > rb->hi || rb->lo > ra.hi) return false;  // gap between boxes
  }
  // Set clauses never block adjacency: the union of two value sets is always
  // a valid merge.
  return true;
}

Status Merger::EnsureScored(ScoredPredicate* sp) const {
  if (std::isfinite(sp->influence)) return Status::OK();
  ++stats_.exact_scores;
  if (sp->matches != nullptr) ++stats_.match_cache_scores;
  // Serves the per-group match Selections from sp->matches when the session
  // layer attached them (rescoring at a new c skips re-filtering).
  SCORPION_ASSIGN_OR_RETURN(sp->influence, scorer_.InfluenceCached(*sp));
  return Status::OK();
}

bool Merger::Estimable(const ScoredPredicate& sp) const {
  return options_.use_cached_tuple_estimate && scorer_.incremental() &&
         sp.info.has_representative &&
         sp.info.outlier_counts.size() == scorer_.problem().outliers.size();
}

bool Merger::CanEstimate(const ScoredPredicate& a,
                         const ScoredPredicate& b) const {
  return Estimable(a) && Estimable(b);
}

Merger::EstimateIndex Merger::IndexPartitions(
    const std::vector<ScoredPredicate>& all) const {
  EstimateIndex index;
  if (!options_.use_cached_tuple_estimate || !scorer_.incremental()) {
    return index;
  }
  std::vector<std::string>& names = index.slot_names_;
  for (const auto& [attr, domain] : domains_) names.push_back(attr);
  for (const ScoredPredicate& q : all) {
    for (const RangeClause& r : q.pred.ranges()) names.push_back(r.attr);
    for (const SetClause& s : q.pred.sets()) names.push_back(s.attr);
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  for (const std::string& name : names) {
    auto it = domains_.find(name);
    index.slot_domains_.push_back(
        it == domains_.end() ? std::nullopt
                             : std::optional<AttrDomain>(it->second));
  }
  auto slot_of = [&names](const std::string& attr) {
    return static_cast<size_t>(
        std::lower_bound(names.begin(), names.end(), attr) - names.begin());
  };

  const size_t num_groups = scorer_.problem().outliers.size();
  for (const ScoredPredicate& q : all) {
    if (!q.info.has_representative ||
        q.info.outlier_counts.size() != num_groups) {
      continue;
    }
    EstimateIndex::Partition p;
    p.ranges_begin = index.ranges_.size();
    for (const RangeClause& r : q.pred.ranges()) {
      index.ranges_.push_back({slot_of(r.attr), r.lo, r.hi});
    }
    p.ranges_end = index.ranges_.size();
    p.sets_begin = index.sets_.size();
    for (const SetClause& s : q.pred.sets()) {
      index.sets_.push_back({slot_of(s.attr), &s});
    }
    p.sets_end = index.sets_.size();
    p.outlier_counts = &q.info.outlier_counts;
    const double rep_value =
        scorer_.agg_column().GetDouble(q.info.representative);
    p.rep_state = scorer_.aggregate().State({rep_value}).ValueOrDie();
    index.partitions_.push_back(std::move(p));
  }
  return index;
}

Merger::EstimateIndex::Box Merger::EstimateIndex::Resolve(
    const Predicate& box) const {
  auto find_slot = [this](const std::string& attr) -> std::optional<size_t> {
    auto it = std::lower_bound(slot_names_.begin(), slot_names_.end(), attr);
    if (it == slot_names_.end() || *it != attr) return std::nullopt;
    return static_cast<size_t>(it - slot_names_.begin());
  };
  Box out;
  for (const RangeClause& rb : box.ranges()) {
    const std::optional<size_t> slot = find_slot(rb.attr);
    if (!slot.has_value()) continue;
    BoxRange r{*slot, &rb, false, 1.0};
    const std::optional<AttrDomain>& domain = slot_domains_[*slot];
    if (domain.has_value()) {
      double width = domain->hi - domain->lo;
      if (width > 0.0) {
        double lo = std::max(rb.lo, domain->lo);
        double hi = std::min(rb.hi, domain->hi);
        r.misses = hi <= lo;
        r.share = (hi - lo) / width;
      }
    }
    out.ranges.push_back(r);
  }
  for (const SetClause& sb : box.sets()) {
    const std::optional<size_t> slot = find_slot(sb.attr);
    if (!slot.has_value()) continue;
    BoxSet s{*slot, &sb, 1.0};
    const std::optional<AttrDomain>& domain = slot_domains_[*slot];
    if (domain.has_value() && domain->cardinality > 0) {
      s.share = static_cast<double>(sb.codes.size()) /
                static_cast<double>(domain->cardinality);
    }
    out.sets.push_back(s);
  }
  return out;
}

double Merger::EstimateIndex::OverlapFraction(const Partition& q,
                                              const Box& box) const {
  // Clause-wise volume of q ∩ box divided by volume of q; attributes
  // unconstrained in q contribute the box clause's own domain share (a
  // share of 1 multiplies exactly). The four passes multiply in a fixed
  // order — q's ranges, the box's other ranges, q's sets, the box's other
  // sets — each in slot order. Both sides ascend by slot, so every pass is
  // a merge walk.
  double frac = 1.0;
  auto rb = box.ranges.begin();
  for (size_t i = q.ranges_begin; i < q.ranges_end; ++i) {
    const RangeSlot& rq = ranges_[i];
    while (rb != box.ranges.end() && rb->slot < rq.slot) ++rb;
    // No box clause: the box spans q fully on this attribute.
    if (rb == box.ranges.end() || rb->slot != rq.slot) continue;
    double width = rq.hi - rq.lo;
    if (width <= 0.0) {
      // Degenerate point clause: in or out.
      if (!rb->clause->Contains(rq.lo)) return 0.0;
      continue;
    }
    double lo = std::max(rq.lo, rb->clause->lo);
    double hi = std::min(rq.hi, rb->clause->hi);
    if (hi <= lo) return 0.0;
    frac *= (hi - lo) / width;
  }
  size_t i = q.ranges_begin;
  for (const BoxRange& r : box.ranges) {
    while (i < q.ranges_end && ranges_[i].slot < r.slot) ++i;
    if (i < q.ranges_end && ranges_[i].slot == r.slot) continue;
    if (r.misses) return 0.0;
    frac *= r.share;
  }
  auto sb = box.sets.begin();
  for (size_t j = q.sets_begin; j < q.sets_end; ++j) {
    const SetSlot& sq = sets_[j];
    while (sb != box.sets.end() && sb->slot < sq.slot) ++sb;
    if (sb == box.sets.end() || sb->slot != sq.slot) continue;
    size_t overlap = 0;
    for (int32_t code : sq.clause->codes) {
      if (sb->clause->Contains(code)) ++overlap;
    }
    if (overlap == 0) return 0.0;
    frac *= static_cast<double>(overlap) /
            static_cast<double>(sq.clause->codes.size());
  }
  size_t j = q.sets_begin;
  for (const BoxSet& s : box.sets) {
    while (j < q.sets_end && sets_[j].slot < s.slot) ++j;
    if (j < q.sets_end && sets_[j].slot == s.slot) continue;
    frac *= s.share;
  }
  return std::clamp(frac, 0.0, 1.0);
}

double Merger::EstimateMergedInfluence(const Predicate& box_pred,
                                       const EstimateIndex& index) const {
  ++stats_.estimated_scores;
  const EstimateIndex::Box box = index.Resolve(box_pred);
  const ProblemSpec& problem = scorer_.problem();
  const Aggregate& agg = scorer_.aggregate();
  const size_t num_groups = problem.outliers.size();

  // Apportion each partition's tuples to the box by volume overlap
  // (uniform-density assumption, Section 6.3). Partitions produced by DT
  // tile the space disjointly, so summing overlap fractions counts each
  // tuple at most once; this replaces the paper's explicit 0.5 * V12
  // correction, which exists to undo double counting when the two merged
  // regions themselves overlap.
  std::vector<double> removed_counts(num_groups, 0.0);
  std::vector<AggState> removed_states(num_groups);
  for (const EstimateIndex::Partition& q : index.partitions_) {
    double frac = index.OverlapFraction(q, box);
    if (frac <= 0.0) continue;
    const AggState& rep_state = q.rep_state;
    for (size_t g = 0; g < num_groups; ++g) {
      double contrib = frac * static_cast<double>((*q.outlier_counts)[g]);
      if (contrib <= 0.0) continue;
      removed_counts[g] += contrib;
      if (removed_states[g].empty()) {
        removed_states[g].assign(rep_state.size(), 0.0);
      }
      for (size_t k = 0; k < rep_state.size(); ++k) {
        // k copies of the cached tuple: our removable states are all
        // element-wise additive, so state(t x n) = n * state(t).
        removed_states[g][k] += contrib * rep_state[k];
      }
    }
  }

  double sum = 0.0;
  for (size_t g = 0; g < num_groups; ++g) {
    if (removed_counts[g] < 1.0) continue;  // nothing removed from this group
    int result_idx = problem.outliers[g];
    auto remaining =
        agg.Remove(scorer_.outlier_states()[g], removed_states[g]);
    if (!remaining.ok()) return kNegInf;
    auto updated = agg.Recover(*remaining);
    if (!updated.ok() || !std::isfinite(*updated)) return kNegInf;
    double delta = scorer_.OriginalValue(result_idx) - *updated;
    double denom = std::pow(removed_counts[g], problem.c);
    sum += problem.error_vectors[g] * delta / denom;
  }
  return problem.lambda * sum / static_cast<double>(num_groups);
}

Result<std::vector<ScoredPredicate>> Merger::Run(
    std::vector<ScoredPredicate> candidates) const {
  if (candidates.empty()) return candidates;

  candidates = UniquePredicates(std::move(candidates));
  // Exact-score every candidate: these Scorer::Influence calls dominate the
  // Merger's cost, and each is independent. Statuses land in per-index slots
  // and the first error (in candidate order) wins deterministically.
  ThreadPool* pool = scorer_.thread_pool();
  if (scorer_.candidate_batching_enabled()) {
    // Candidates carrying a cached match Selection must score through
    // InfluenceCached; the rest — the common case, fresh DT leaves whose
    // neighbours differ in a single clause — route through InfluenceAll so
    // the batched filter plane shares block work across them. Scores are
    // bit-identical either way.
    std::vector<size_t> plain;
    std::vector<size_t> cached;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (std::isfinite(candidates[i].influence)) continue;
      (candidates[i].matches != nullptr ? cached : plain).push_back(i);
    }
    std::vector<Predicate> preds;
    preds.reserve(plain.size());
    for (size_t i : plain) preds.push_back(candidates[i].pred);
    SCORPION_ASSIGN_OR_RETURN(std::vector<double> scores,
                              scorer_.InfluenceAll(preds));
    stats_.exact_scores += plain.size();
    for (size_t j = 0; j < plain.size(); ++j) {
      candidates[plain[j]].influence = scores[j];
    }
    std::vector<Status> statuses(cached.size());
    ParallelForOver(pool, 0, cached.size(), [&](size_t j) {
      statuses[j] = EnsureScored(&candidates[cached[j]]);
    });
    for (const Status& st : statuses) {
      SCORPION_RETURN_NOT_OK(st);
    }
  } else {
    std::vector<Status> statuses(candidates.size());
    ParallelForOver(pool, 0, candidates.size(), [&](size_t i) {
      statuses[i] = EnsureScored(&candidates[i]);
    });
    for (const Status& st : statuses) {
      SCORPION_RETURN_NOT_OK(st);
    }
  }
  std::sort(candidates.begin(), candidates.end(), ByInfluenceDesc);

  // Exact influence of every predicate scored so far. Within one Run the
  // problem (and so c and lambda) is fixed, so a predicate's score never
  // changes and a repeat is served from here — the same double a rescore
  // would produce, so the expansion trajectory is unchanged. Different
  // seeds keep reaching the same large boxes, which makes repeats common.
  // Only the serial accept loop below reads or writes it. Its entries also
  // name expansion states: `states[s]` is candidate s's entry, and an
  // accepted box's entry comes from the accept loop's try_emplace (never a
  // lookup: a predicate with a NaN bound is unequal to itself).
  using MemoEntry = std::unordered_map<Predicate, double>::value_type;
  std::unordered_map<Predicate, double> memo;
  std::vector<const MemoEntry*> states;
  states.reserve(candidates.size());
  for (const ScoredPredicate& sp : candidates) {
    states.push_back(&*memo.emplace(sp.pred, sp.influence).first);
  }
  // Read-only from here on, so the parallel estimate pass shares it.
  const EstimateIndex index = IndexPartitions(candidates);

  // One expansion step of `cur`: rank the adjacent partitions by estimate
  // and take the first whose box's exact influence improves on cur's.
  // Records the outcome in `step`, which stays a stop when nothing improves.
  struct Step {
    const ScoredPredicate* other = nullptr;  // nullptr: the expansion stops
    const MemoEntry* box = nullptr;          // the accepted box and its score
  };
  const size_t max_chunk = scorer_.candidate_batching_enabled() ? 8 : 1;
  auto expand = [&](const ScoredPredicate& cur, Step* step) -> Status {
    // Collect grow candidates: adjacent partitions not already inside cur.
    struct Candidate {
      const ScoredPredicate* other;
      double estimate;
    };
    std::vector<Candidate> grow;
    for (const ScoredPredicate& other : candidates) {
      if (options_.same_attributes_only &&
          other.pred.Attributes() != cur.pred.Attributes()) {
        continue;
      }
      if (Predicate::SyntacticallyContains(cur.pred, other.pred)) continue;
      if (!Adjacent(cur.pred, other.pred)) continue;
      grow.push_back({&other, 0.0});
      if (grow.size() >= options_.max_candidates_per_step) break;
    }
    // Estimating a merge is the expansion step's hot scoring loop; each
    // candidate is independent and the index is read-only, so this runs in
    // parallel.
    ParallelForOver(pool, 0, grow.size(), [&](size_t i) {
      if (CanEstimate(cur, *grow[i].other)) {
        grow[i].estimate = EstimateMergedInfluence(
            Predicate::BoundingBox(cur.pred, grow[i].other->pred), index);
      } else {
        // Fall back to the neighbour's own score.
        grow[i].estimate = grow[i].other->influence;
      }
    });
    std::sort(grow.begin(), grow.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.estimate > b.estimate;
              });

    // Accept the first candidate whose *exact* merged influence improves.
    // With candidate batching, exact merged influences are computed a chunk
    // at a time through the batched filter plane (bounding boxes of one seed
    // against its neighbours usually differ in a single clause), but the
    // accept decision still takes the FIRST improving candidate in estimate
    // order — the accepted merge, and hence the whole expansion trajectory,
    // is identical to scoring one candidate at a time, which is what chunks
    // of one do without batching. Chunk sizing follows the (already
    // computed, descending) estimates: while the estimate itself predicts
    // an improvement the candidate is scored alone — an accept there would
    // throw a speculative batch away — and once estimates drop below the
    // accept threshold the remaining tail is batched at full width. Only
    // memo misses reach the scorer.
    for (size_t start = 0; start < grow.size() && step->other == nullptr;) {
      const size_t lim = grow[start].estimate > cur.influence + kImproveEps
                             ? start + 1
                             : std::min(start + max_chunk, grow.size());
      std::vector<size_t> idx;
      std::vector<const MemoEntry*> entries;
      std::vector<Predicate> misses;
      std::vector<double*> miss_scores;
      for (size_t i = start; i < lim; ++i) {
        Predicate box = Predicate::BoundingBox(cur.pred, grow[i].other->pred);
        if (box == cur.pred) continue;
        // Element pointers stay valid across rehashes.
        auto [it, inserted] = memo.try_emplace(std::move(box), kNegInf);
        if (inserted) {
          misses.push_back(it->first);
          miss_scores.push_back(&it->second);
        } else {
          ++stats_.memo_hits;
        }
        idx.push_back(i);
        entries.push_back(&*it);
      }
      if (!misses.empty()) {
        std::vector<double> scores;
        if (misses.size() == 1) {
          // Likely-accept head: score inline, skipping the batch machinery
          // a single candidate cannot use.
          SCORPION_ASSIGN_OR_RETURN(double score, scorer_.Influence(misses[0]));
          scores.push_back(score);
        } else {
          SCORPION_ASSIGN_OR_RETURN(scores, scorer_.InfluenceAll(misses));
        }
        stats_.exact_scores += misses.size();
        for (size_t j = 0; j < misses.size(); ++j) {
          *miss_scores[j] = scores[j];
        }
      }
      for (size_t j = 0; j < idx.size(); ++j) {
        if (entries[j]->second > cur.influence + kImproveEps) {
          *step = {grow[idx[j]].other, entries[j]};
          break;
        }
      }
      start = lim;
    }
    return Status::OK();
  };

  // A step is a pure function of its state: it reads cur only through
  // cur.pred (the grow list, the boxes and their estimates), cur.influence
  // (always the memo's score for cur.pred) and Estimable(cur), which
  // AcceptMerge preserves along a trajectory. Seeds keep converging on the
  // same states, so each distinct (memo entry, estimable) state is expanded
  // once and a repeat replays the recorded step. Replays still advance one
  // step per iteration, so the per-seed budget and the path-dependent counts
  // and internal_score come out as a fresh expansion's would. Indexed by
  // Estimable(cur); only this serial loop touches it.
  std::unordered_map<const MemoEntry*, Step> steps[2];

  size_t num_seeds = candidates.size();
  if (options_.top_quartile_only && candidates.size() >= 4) {
    num_seeds = std::max<size_t>(1, candidates.size() / 4);
  }

  std::vector<ScoredPredicate> results = candidates;
  for (size_t s = 0; s < num_seeds; ++s) {
    ScoredPredicate cur = candidates[s];
    const MemoEntry* state = states[s];
    std::unordered_map<const MemoEntry*, Step>& seed_steps =
        steps[Estimable(cur)];
    for (int expansion = 0; expansion < options_.max_expansions_per_seed;
         ++expansion) {
      auto [known, fresh] = seed_steps.try_emplace(state);
      const Step& step = known->second;
      if (fresh) {
        SCORPION_RETURN_NOT_OK(expand(cur, &known->second));
      } else {
        ++stats_.states_replayed;
      }
      if (step.other == nullptr) break;
      cur = AcceptMerge(cur, *step.other, step.box->first, step.box->second);
      state = step.box;
      ++stats_.merges_accepted;
    }
    results.push_back(std::move(cur));
  }

  std::vector<ScoredPredicate> unique = UniquePredicates(std::move(results));
  std::sort(unique.begin(), unique.end(), ByInfluenceDesc);
  return unique;
}

}  // namespace scorpion
