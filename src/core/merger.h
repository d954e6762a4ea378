// Merger: greedy bounding-box expansion of candidate predicates
// (Section 4.3), with the Section 6.3 optimizations:
//  1. only seeds in the top influence quartile are expanded;
//  2. for incrementally removable aggregates, candidate merges are ranked by
//     a cached-tuple volume-overlap approximation instead of exact scoring;
//     accepted merges are re-scored exactly before being kept.
// Within one Run every distinct predicate is exact-scored at most once: an
// influence memo keyed by exact predicate equality serves repeats. Each
// distinct expansion state is expanded once too: a seed that reaches a
// state an earlier seed expanded replays the recorded step.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/atomic_counter.h"
#include "core/options.h"
#include "core/scored_predicate.h"
#include "core/scorer.h"

namespace scorpion {

/// Counters for benchmark reporting. Atomic so they stay exact while
/// candidates are scored/estimated in parallel; copying snapshots.
struct MergerStats {
  RelaxedCounter exact_scores;      // Scorer::Influence calls
  RelaxedCounter estimated_scores;  // cached-tuple approximations
  RelaxedCounter merges_accepted;
  RelaxedCounter match_cache_scores;  // exact scores served from cached match
                                      // Selections (no bind/filter pass)
  RelaxedCounter memo_hits;  // merged boxes whose exact score an earlier
                             // score in the same Run already supplied
  RelaxedCounter states_replayed;  // expansion steps replayed from an
                                   // earlier seed's visit to the same state
};

/// \brief Greedy predicate merger.
class Merger {
 public:
  /// \brief The partitions the cached-tuple estimate apportions, resolved
  /// once so the per-partition loop does no string or map lookups.
  ///
  /// Attribute slots number every attribute the partitions constrain or the
  /// domain map knows, in sorted-name order — the order Predicate stores its
  /// clauses in — so each partition's clause list ascends by slot. Holds
  /// pointers into the `all` vector it was built from, which must outlive
  /// it unchanged.
  class EstimateIndex {
   private:
    friend class Merger;

    struct RangeSlot {
      size_t slot;
      double lo;
      double hi;
    };
    struct SetSlot {
      size_t slot;
      const SetClause* clause;
    };
    /// A partition usable by the estimate (has a representative and one
    /// count per outlier group), in `all` order.
    struct Partition {
      size_t ranges_begin, ranges_end;  // into ranges_
      size_t sets_begin, sets_end;      // into sets_
      const std::vector<uint32_t>* outlier_counts;
      AggState rep_state;  // state(representative value)
    };
    /// A box clause with the factor it contributes on an attribute a
    /// partition leaves unconstrained: its share of the attribute's domain
    /// (1 without a usable domain), or zero overlap outright (`misses`: the
    /// clause lies outside the domain).
    struct BoxRange {
      size_t slot;
      const RangeClause* clause;
      bool misses;
      double share;
    };
    struct BoxSet {
      size_t slot;
      const SetClause* clause;
      double share;
    };
    /// A bounding box's clauses on known slots, with their domain shares.
    struct Box {
      std::vector<BoxRange> ranges;
      std::vector<BoxSet> sets;
    };

    /// Resolves `box` (which must outlive the result). Clauses on
    /// attributes outside the slot table meet no partition clause and no
    /// domain, so they drop out.
    Box Resolve(const Predicate& box) const;

    /// Volume of (q ∩ box) / Volume(q), computed clause-wise without
    /// materializing the intersection predicate.
    double OverlapFraction(const Partition& q, const Box& box) const;

    std::vector<std::string> slot_names_;  // sorted
    std::vector<std::optional<AttrDomain>> slot_domains_;
    std::vector<RangeSlot> ranges_;
    std::vector<SetSlot> sets_;
    std::vector<Partition> partitions_;
  };

  /// `scorer` must outlive the Merger. `domains` provides attribute extents
  /// for volume computations (cached-tuple estimate).
  Merger(const Scorer& scorer, DomainMap domains, MergerOptions options);

  /// Expands `candidates` and returns the union of inputs and accepted
  /// merges, deduplicated, exactly scored, sorted by descending influence.
  /// Each distinct predicate is exact-scored at most once per call:
  /// candidates arriving with a finite influence are taken at that score.
  Result<std::vector<ScoredPredicate>> Run(
      std::vector<ScoredPredicate> candidates) const;

  /// Two predicates are adjacent if their clauses touch or overlap on every
  /// attribute constrained by both (unconstrained attributes always touch).
  /// Adjacent predicates are merge candidates.
  static bool Adjacent(const Predicate& a, const Predicate& b);

  /// Indexes the partitions `all` for EstimateMergedInfluence. Empty when
  /// the estimate is disabled or the aggregate is not incrementally
  /// removable.
  EstimateIndex IndexPartitions(const std::vector<ScoredPredicate>& all) const;

  /// Section 6.3 approximation: influence of `box`, the bounding box of two
  /// partitions CanEstimate() accepts, estimated by apportioning each
  /// indexed partition's cached tuple by the volume fraction of the
  /// partition inside the box. The index supplies the surrounding
  /// partitions (the p3's of Figure 7). Read-only, so safe to call in
  /// parallel.
  double EstimateMergedInfluence(const Predicate& box,
                                 const EstimateIndex& index) const;

  /// True if the cached-tuple estimate is usable for these inputs.
  bool CanEstimate(const ScoredPredicate& a, const ScoredPredicate& b) const;

  MergerStats& stats() const { return stats_; }

 private:
  /// Ensures `sp.influence` holds the exact score.
  Status EnsureScored(ScoredPredicate* sp) const;

  /// CanEstimate's test of one side: the estimate is enabled and `sp` has
  /// a representative and one count per outlier group.
  bool Estimable(const ScoredPredicate& sp) const;

  const Scorer& scorer_;
  DomainMap domains_;
  MergerOptions options_;
  mutable MergerStats stats_;
};

}  // namespace scorpion
