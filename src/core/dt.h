// DT partitioner (Section 6.1): top-down regression-tree partitioning for
// independent aggregates.
//
// Each input group is partitioned by a separate logical instance, but all
// instances are synchronized: at every node the per-attribute split metrics
// are combined across groups (by max) and a single split is chosen, so all
// groups produce the same partitioning (Section 6.1.3). Outlier groups and
// hold-out groups are partitioned separately and the partitionings combined
// by intersecting outlier partitions with influential hold-out partitions
// (Section 6.1.4). Within-partition influence variance is driven below a
// threshold that relaxes for non-influential regions via the Figure 4 curve.
//
// The partitioning is agnostic to the c knob (single-tuple influence has
// |p(g)| = 1), which is what makes cross-c caching possible (Section 8.3.3).
//
// Every outlier partition leaves with its match sets over all outlier and
// hold-out groups (ScoredPredicate::matches), so the Merger scores it with
// no filter. They are carried down the outlier tree: a child filters only
// the clause its split narrowed, within its parent's matches.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "core/options.h"
#include "core/scored_predicate.h"
#include "core/scorer.h"

namespace scorpion {

/// Counters for benchmark reporting.
struct DTStats {
  uint64_t nodes = 0;
  uint64_t leaves = 0;
  uint64_t tuple_influences = 0;  // scorer tuple-influence computations
  uint64_t sampled_tuples = 0;    // tuples drawn into samples
};

/// Distinct split candidates at the `num_candidates` evenly spaced interior
/// quantiles of `values` (position size * q / (num_candidates + 1), for
/// q = 1..num_candidates), ascending, excluding the minimum. NaNs are
/// dropped first; fewer than two values yield none. Selects the order
/// statistics without sorting, so the result equals reading them off the
/// sorted values.
std::vector<double> SplitQuantiles(std::vector<double> values,
                                   int num_candidates);

/// \brief Regression-tree space partitioner.
class DTPartitioner {
 public:
  DTPartitioner(const Scorer& scorer, DTOptions options);

  /// Produces candidate partitions (unscored; Merger scores them exactly).
  /// Outlier partitions carry PartitionInfo for the cached-tuple estimate.
  Result<std::vector<ScoredPredicate>> Run();

  const DTStats& stats() const { return stats_; }

 private:
  /// One input group's slice of a tree node. Memberships are Selections
  /// (vector form): node splits partition them with one columnar mask pass
  /// per group instead of row-at-a-time pushes.
  struct GroupSlice {
    int result_idx = 0;        // index into query_result().results
    Selection rows;            // full node membership for this group
    Selection sample;          // sampled subset used for statistics
    std::vector<double> inf;   // influence per sampled row (aligned)
  };

  struct Node {
    Predicate box;
    std::vector<GroupSlice> groups;
    int depth = 0;
    /// Match sets of `box` over every outlier and hold-out group (the
    /// scorer's compact layout); outlier tree only, null in the hold-out
    /// tree. Unlike GroupSlice::rows, they keep NaN rows on both sides of
    /// a range split, as the box does.
    std::shared_ptr<const PredicateMatchCache> matches;
  };

  struct SplitChoice {
    bool valid = false;
    bool is_range = false;
    std::string attr;
    double split_value = 0.0;  // range split point
    int32_t code = -1;         // discrete split value
    double metric = 0.0;       // combined (max-over-groups) weighted child std
  };

  /// Partitions the given result groups; `is_outlier` selects the influence
  /// definition (error-vector aligned vs. |Delta|) and whether leaves carry
  /// outlier PartitionInfo.
  Result<std::vector<ScoredPredicate>> PartitionGroups(
      const std::vector<int>& result_indices, bool is_outlier);

  /// Draws a sample for a fresh slice (serially, so RNG order is fixed) and
  /// computes its influences (in parallel under the scorer's thread pool),
  /// memoizing per-tuple influence across the whole run.
  void PopulateSample(GroupSlice* slice, double rate, bool is_outlier);

  SplitChoice ChooseSplit(const Node& node, double parent_metric) const;

  /// Fills the children's match sets from the parent's by filtering only
  /// the clause `split` narrowed.
  Status NarrowMatches(const Node& node, const SplitChoice& split, Node* left,
                       Node* right) const;

  /// Emits a leaf's ScoredPredicate (with PartitionInfo and the node's
  /// matches when is_outlier).
  ScoredPredicate MakeLeaf(const Node& node, bool is_outlier) const;

  const Scorer& scorer_;
  DTOptions options_;
  DomainMap domains_;
  std::unordered_map<std::string, const Column*> attr_columns_;
  std::unordered_map<uint64_t, double> influence_cache_;
  Rng rng_;
  DTStats stats_;

  // Global influence bounds over the sampled tuples (per partitioning pass),
  // used by the threshold curve.
  double inf_lower_ = 0.0;
  double inf_upper_ = 0.0;
};

}  // namespace scorpion
