// ScoredPredicate: the exchange format between partitioners and the Merger.
#pragma once

#include <limits>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "predicate/predicate.h"
#include "table/selection.h"
#include "table/types.h"

namespace scorpion {

/// Per-result-group match Selections for one predicate, indexed like
/// QueryResult::results (only the outlier/hold-out slots are populated).
/// Filtering is c-agnostic, so the session layer caches these alongside DT
/// partitions and rescoring at a different c skips re-filtering entirely.
/// Entries are fully materialized (vector form + count) before sharing, so
/// concurrent readers never trigger a lazy conversion.
using PredicateMatchCache = std::vector<Selection>;

/// Per-partition metadata the DT partitioner attaches so the Merger can run
/// the Section 6.3 cached-tuple influence approximation without touching the
/// dataset.
struct PartitionInfo {
  /// Tuple counts of this partition within each outlier input group,
  /// aligned with ProblemSpec::outliers.
  std::vector<uint32_t> outlier_counts;
  /// Global row id of the cached tuple (influence closest to the partition's
  /// mean influence).
  RowId representative = 0;
  bool has_representative = false;
  /// Mean single-tuple influence over the partition's (sampled) tuples.
  double mean_tuple_influence = 0.0;
};

/// \brief A candidate predicate with its scores.
struct ScoredPredicate {
  Predicate pred;
  /// Exact inf(O, H, p, V) if computed; -infinity until scored.
  double influence = -std::numeric_limits<double>::infinity();
  /// Partitioner-internal ranking score (e.g. DT's mean tuple influence).
  double internal_score = 0.0;
  /// Optional cached-tuple metadata (DT only).
  PartitionInfo info;
  /// Optional cached match sets (attached by the session layer to the DT
  /// partitions it stores; see Scorer::BuildMatchCache). Shared and
  /// immutable, so copying a ScoredPredicate stays cheap.
  std::shared_ptr<const PredicateMatchCache> matches;
};

/// Descending-influence ordering.
inline bool ByInfluenceDesc(const ScoredPredicate& a,
                            const ScoredPredicate& b) {
  return a.influence > b.influence;
}

/// `in` without the entries whose predicate equals an earlier entry's
/// (exact Predicate equality), order kept.
inline std::vector<ScoredPredicate> UniquePredicates(
    std::vector<ScoredPredicate> in) {
  std::unordered_set<Predicate> seen;
  std::vector<ScoredPredicate> unique;
  for (ScoredPredicate& sp : in) {
    if (seen.insert(sp.pred).second) unique.push_back(std::move(sp));
  }
  return unique;
}

}  // namespace scorpion
