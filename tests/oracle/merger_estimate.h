// Test oracle: the Section 6.3 cached-tuple estimate as first written —
// clause matching by attribute name (Predicate::FindRange/FindSet), domains
// by DomainMap lookup, representative states computed on demand. The
// Merger's attribute-indexed estimate pass must reproduce it bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/scored_predicate.h"
#include "core/scorer.h"
#include "predicate/predicate.h"

namespace scorpion {
namespace oracle {

/// Volume of (q ∩ box) / Volume(q), clause-wise.
inline double OverlapFraction(const DomainMap& domains, const Predicate& q,
                              const Predicate& box) {
  double frac = 1.0;
  for (const RangeClause& rq : q.ranges()) {
    const RangeClause* rb = box.FindRange(rq.attr);
    if (rb == nullptr) continue;
    double width = rq.hi - rq.lo;
    if (width <= 0.0) {
      if (!rb->Contains(rq.lo)) return 0.0;
      continue;
    }
    double lo = std::max(rq.lo, rb->lo);
    double hi = std::min(rq.hi, rb->hi);
    if (hi <= lo) return 0.0;
    frac *= (hi - lo) / width;
  }
  for (const RangeClause& rb : box.ranges()) {
    if (q.FindRange(rb.attr) != nullptr) continue;
    auto it = domains.find(rb.attr);
    if (it == domains.end()) continue;
    double width = it->second.hi - it->second.lo;
    if (width <= 0.0) continue;
    double lo = std::max(rb.lo, it->second.lo);
    double hi = std::min(rb.hi, it->second.hi);
    if (hi <= lo) return 0.0;
    frac *= (hi - lo) / width;
  }
  for (const SetClause& sq : q.sets()) {
    const SetClause* sb = box.FindSet(sq.attr);
    if (sb == nullptr) continue;
    size_t overlap = 0;
    for (int32_t code : sq.codes) {
      if (sb->Contains(code)) ++overlap;
    }
    if (overlap == 0) return 0.0;
    frac *= static_cast<double>(overlap) /
            static_cast<double>(sq.codes.size());
  }
  for (const SetClause& sb : box.sets()) {
    if (q.FindSet(sb.attr) != nullptr) continue;
    auto it = domains.find(sb.attr);
    if (it == domains.end() || it->second.cardinality <= 0) continue;
    frac *= static_cast<double>(sb.codes.size()) /
            static_cast<double>(it->second.cardinality);
  }
  return std::clamp(frac, 0.0, 1.0);
}

/// Estimated influence of BoundingBox(a, b) over the partitions `all`.
inline double EstimateMergedInfluence(const Scorer& scorer,
                                      const DomainMap& domains,
                                      const ScoredPredicate& a,
                                      const ScoredPredicate& b,
                                      const std::vector<ScoredPredicate>& all) {
  const Predicate box = Predicate::BoundingBox(a.pred, b.pred);
  const ProblemSpec& problem = scorer.problem();
  const Aggregate& agg = scorer.aggregate();
  const size_t num_groups = problem.outliers.size();
  std::vector<double> removed_counts(num_groups, 0.0);
  std::vector<AggState> removed_states(num_groups);
  for (const ScoredPredicate& q : all) {
    if (!q.info.has_representative ||
        q.info.outlier_counts.size() != num_groups) {
      continue;
    }
    double frac = OverlapFraction(domains, q.pred, box);
    if (frac <= 0.0) continue;
    const AggState rep_state =
        agg.State({scorer.agg_column().GetDouble(q.info.representative)})
            .ValueOrDie();
    for (size_t g = 0; g < num_groups; ++g) {
      double contrib = frac * static_cast<double>(q.info.outlier_counts[g]);
      if (contrib <= 0.0) continue;
      removed_counts[g] += contrib;
      if (removed_states[g].empty()) {
        removed_states[g].assign(rep_state.size(), 0.0);
      }
      for (size_t k = 0; k < rep_state.size(); ++k) {
        removed_states[g][k] += contrib * rep_state[k];
      }
    }
  }
  double sum = 0.0;
  for (size_t g = 0; g < num_groups; ++g) {
    if (removed_counts[g] < 1.0) continue;
    int result_idx = problem.outliers[g];
    auto remaining = agg.Remove(scorer.outlier_states()[g], removed_states[g]);
    if (!remaining.ok()) return -std::numeric_limits<double>::infinity();
    auto updated = agg.Recover(*remaining);
    if (!updated.ok() || !std::isfinite(*updated)) {
      return -std::numeric_limits<double>::infinity();
    }
    double delta = scorer.OriginalValue(result_idx) - *updated;
    double denom = std::pow(removed_counts[g], problem.c);
    sum += problem.error_vectors[g] * delta / denom;
  }
  return problem.lambda * sum / static_cast<double>(num_groups);
}

}  // namespace oracle
}  // namespace scorpion
