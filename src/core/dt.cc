#include "core/dt.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>

#include "common/macros.h"
#include "core/split_sweep.h"

namespace scorpion {

namespace {

uint64_t CacheKey(int result_idx, RowId row) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(result_idx)) << 32) |
         static_cast<uint64_t>(row);
}

}  // namespace

std::vector<double> SplitQuantiles(std::vector<double> values,
                                   int num_candidates) {
  values.erase(std::remove_if(values.begin(), values.end(),
                              [](double v) { return std::isnan(v); }),
               values.end());
  std::vector<double> candidates;
  if (values.size() < 2) return candidates;
  const auto [min_it, max_it] =
      std::minmax_element(values.begin(), values.end());
  const double lo = *min_it;
  const double hi = *max_it;
  // Positions never decrease with q, and after selecting position p the
  // p + 1 smallest values sit in [0, p], so each selection only reorders
  // the part past the previous one.
  size_t selected = 0;
  for (int q = 1; q <= num_candidates; ++q) {
    size_t pos = values.size() * static_cast<size_t>(q) /
                 (static_cast<size_t>(num_candidates) + 1);
    pos = std::min(pos, values.size() - 1);
    if (pos >= selected) {
      std::nth_element(values.begin() + static_cast<ptrdiff_t>(selected),
                       values.begin() + static_cast<ptrdiff_t>(pos),
                       values.end());
      selected = pos + 1;
    }
    const double v = values[pos];
    if (v > lo && v <= hi && (candidates.empty() || candidates.back() != v)) {
      candidates.push_back(v);
    }
  }
  return candidates;
}

DTPartitioner::DTPartitioner(const Scorer& scorer, DTOptions options)
    : scorer_(scorer), options_(options), rng_(options.seed) {}

void DTPartitioner::PopulateSample(GroupSlice* slice, double rate,
                                   bool is_outlier) {
  // The draw itself stays serial: RNG calls must happen in the same order at
  // every thread count for the tree (and therefore the output) to be
  // bit-identical.
  size_t n = slice->rows.size();
  size_t k = n;
  if (options_.use_sampling) {
    k = static_cast<size_t>(std::ceil(rate * static_cast<double>(n)));
    k = std::clamp(k, std::min(options_.min_sample_size, n), n);
  }
  if (k >= n) {
    slice->sample = slice->rows;
  } else {
    std::vector<uint32_t> picks =
        rng_.SampleWithoutReplacement(static_cast<uint32_t>(n),
                                      static_cast<uint32_t>(k));
    std::sort(picks.begin(), picks.end());
    const RowIdList& base = slice->rows.rows();
    RowIdList drawn;
    drawn.reserve(k);
    for (uint32_t p : picks) drawn.push_back(base[p]);
    slice->sample =
        Selection::FromSorted(std::move(drawn), slice->rows.universe_size());
  }
  stats_.sampled_tuples += slice->sample.size();

  // Influence per sampled row: cache hits resolve serially, misses compute
  // in parallel (Scorer::TupleInfluence only touches immutable caches and
  // atomic counters), then the memo is filled back serially.
  const RowIdList& sampled = slice->sample.rows();
  const size_t num_sampled = sampled.size();
  slice->inf.assign(num_sampled, 0.0);
  std::vector<size_t> misses;
  for (size_t i = 0; i < num_sampled; ++i) {
    auto it = influence_cache_.find(CacheKey(slice->result_idx, sampled[i]));
    if (it != influence_cache_.end()) {
      slice->inf[i] = it->second;
    } else {
      misses.push_back(i);
    }
  }
  stats_.tuple_influences += misses.size();
  ParallelForOver(scorer_.thread_pool(), 0, misses.size(), [&](size_t j) {
    const size_t i = misses[j];
    double inf = scorer_.TupleInfluence(slice->result_idx, sampled[i]);
    if (!is_outlier) inf = std::fabs(inf);  // hold-outs penalize any change
    if (!std::isfinite(inf)) inf = 0.0;
    slice->inf[i] = inf;
  });
  for (size_t i : misses) {
    influence_cache_.emplace(CacheKey(slice->result_idx, sampled[i]),
                             slice->inf[i]);
  }
}

DTPartitioner::SplitChoice DTPartitioner::ChooseSplit(
    const Node& node, double parent_metric) const {
  // Attributes are scored independently (in parallel when a pool is
  // attached); the cross-attribute argmin below stays serial in attribute
  // order, and strict < on the metric reproduces the serial tie-break (first
  // candidate in (attribute, split) order wins ties).
  const std::vector<std::string>& attrs = scorer_.problem().attributes;
  // One shared view of the node's sampled rows and influences, consumed by
  // every attribute's split evaluation (samples are vector-form Selections,
  // so rows() is a plain accessor here).
  std::vector<SplitGroup> slices;
  slices.reserve(node.groups.size());
  for (const GroupSlice& g : node.groups) {
    slices.push_back({&g.sample.rows(), &g.inf});
  }
  // Batched: one sweep pass over the samples scores the whole candidate
  // set per attribute (core/split_sweep.h), bit-identical to the reference
  // per-candidate loop it replaces.
  const bool batched = scorer_.candidate_batching_enabled();
  std::vector<SplitChoice> per_attr(attrs.size());
  ParallelForOver(scorer_.thread_pool(), 0, attrs.size(), [&](size_t ai) {
    const std::string& attr = attrs[ai];
    SplitChoice best;
    best.metric = parent_metric;
    const Column* col = attr_columns_.at(attr);
    if (col->type() == DataType::kDouble) {
      // Candidate split points: quantiles of the node's sampled values.
      std::vector<double> values;
      for (const GroupSlice& g : node.groups) {
        for (RowId r : g.sample.rows()) values.push_back(col->GetDouble(r));
      }
      const std::vector<double> candidates =
          SplitQuantiles(std::move(values), options_.num_split_candidates);
      // Combined metric: max over groups of weighted child std
      // (Section 6.1.3). The sweep scores every candidate in one pass over
      // the samples; the selection loop below stays serial in candidate
      // order (strict <), preserving the sequential argmin tie-break.
      if (!candidates.empty()) {
        const SplitEval eval = batched
                                   ? RangeSplitSweep(*col, slices, candidates)
                                   : RangeSplitReference(*col, slices,
                                                         candidates);
        if (batched) scorer_.NoteCandidateBatch();
        for (size_t ci = 0; ci < candidates.size(); ++ci) {
          if (eval.total_left[ci] == 0 || eval.total_right[ci] == 0) continue;
          if (eval.metric[ci] < best.metric) {
            best.valid = true;
            best.is_range = true;
            best.attr = attr;
            best.split_value = candidates[ci];
            best.metric = eval.metric[ci];
          }
        }
      }
    } else {
      // Discrete: binary splits {v} vs rest, over the most frequent codes.
      std::unordered_map<int32_t, size_t> freq;
      for (const GroupSlice& g : node.groups) {
        for (RowId r : g.sample.rows()) ++freq[col->GetCode(r)];
      }
      if (freq.size() < 2) return;
      std::vector<std::pair<int32_t, size_t>> by_freq(freq.begin(), freq.end());
      std::sort(by_freq.begin(), by_freq.end(),
                [](const auto& a, const auto& b) {
                  return a.second > b.second ||
                         (a.second == b.second && a.first < b.first);
                });
      size_t limit = std::min<size_t>(
          by_freq.size(), static_cast<size_t>(options_.max_discrete_split_values));
      std::vector<int32_t> codes;
      codes.reserve(limit);
      for (size_t vi = 0; vi < limit; ++vi) codes.push_back(by_freq[vi].first);
      if (!codes.empty()) {
        const SplitEval eval =
            batched ? DiscreteSplitSweep(*col, slices, codes)
                    : DiscreteSplitReference(*col, slices, codes);
        if (batched) scorer_.NoteCandidateBatch();
        for (size_t ci = 0; ci < codes.size(); ++ci) {
          if (eval.total_left[ci] == 0 || eval.total_right[ci] == 0) continue;
          if (eval.metric[ci] < best.metric) {
            best.valid = true;
            best.is_range = false;
            best.attr = attr;
            best.code = codes[ci];
            best.metric = eval.metric[ci];
          }
        }
      }
    }
    per_attr[ai] = std::move(best);
  });

  SplitChoice best;
  best.metric = parent_metric;
  for (SplitChoice& cand : per_attr) {
    if (cand.valid && cand.metric < best.metric) best = std::move(cand);
  }
  return best;
}

Status DTPartitioner::NarrowMatches(const Node& node, const SplitChoice& split,
                                    Node* left, Node* right) const {
  const PredicateMatchCache* parent = node.matches.get();
  if (split.is_range) {
    // A NaN matches every range, so NaN rows belong to both children: each
    // child filters the parent's rows on its own new range (the parent's
    // rows without the other child's would lose them).
    for (Node* child : {left, right}) {
      const Predicate clause =
          Predicate::True().WithRange(*child->box.FindRange(split.attr));
      SCORPION_ASSIGN_OR_RETURN(child->matches,
                                scorer_.BuildMatchCacheWithin(clause, parent));
    }
    return Status::OK();
  }
  // Every parent row holds a code of the parent's set (of the column, when
  // the box has no clause on the attribute), so the right child, which is
  // that set without the split code, matches exactly the parent's rows the
  // left child does not.
  const Predicate clause =
      Predicate::True().WithSet(*left->box.FindSet(split.attr));
  SCORPION_ASSIGN_OR_RETURN(left->matches,
                            scorer_.BuildMatchCacheWithin(clause, parent));
  PredicateMatchCache rest(parent->size());
  for (size_t slot = 0; slot < rest.size(); ++slot) {
    rest[slot] = (*parent)[slot].AndNot((*left->matches)[slot]);
    rest[slot].rows();
  }
  right->matches = std::make_shared<const PredicateMatchCache>(std::move(rest));
  return Status::OK();
}

ScoredPredicate DTPartitioner::MakeLeaf(const Node& node,
                                        bool is_outlier) const {
  ScoredPredicate leaf;
  leaf.pred = node.box;
  if (is_outlier) leaf.matches = node.matches;
  double sum = 0.0;
  size_t n = 0;
  for (const GroupSlice& g : node.groups) {
    for (double v : g.inf) sum += v;
    n += g.inf.size();
  }
  double mean = n > 0 ? sum / static_cast<double>(n) : 0.0;
  leaf.internal_score = mean;
  leaf.info.mean_tuple_influence = mean;
  if (is_outlier) {
    leaf.info.outlier_counts.reserve(node.groups.size());
    for (const GroupSlice& g : node.groups) {
      leaf.info.outlier_counts.push_back(
          static_cast<uint32_t>(g.rows.size()));
    }
    // Representative: sampled tuple whose influence is closest to the mean
    // (Section 6.3's cached tuple).
    double best_dist = std::numeric_limits<double>::infinity();
    for (const GroupSlice& g : node.groups) {
      const RowIdList& sampled = g.sample.rows();
      for (size_t i = 0; i < sampled.size(); ++i) {
        double d = std::fabs(g.inf[i] - mean);
        if (d < best_dist) {
          best_dist = d;
          leaf.info.representative = sampled[i];
          leaf.info.has_representative = true;
        }
      }
    }
  }
  return leaf;
}

Result<std::vector<ScoredPredicate>> DTPartitioner::PartitionGroups(
    const std::vector<int>& result_indices, bool is_outlier) {
  std::vector<ScoredPredicate> leaves;
  if (result_indices.empty()) return leaves;

  // Initial sampling rate (Section 6.1.2): the smallest rate for which a
  // sample contains an influential tuple with probability >= 0.95, assuming
  // influential tuples are an epsilon fraction of the data.
  size_t total_rows = 0;
  for (int idx : result_indices) {
    total_rows += scorer_.query_result().results[idx].input_group.size();
  }
  double initial_rate = 1.0;
  if (options_.use_sampling && total_rows > 0 && options_.epsilon > 0.0 &&
      options_.epsilon < 1.0) {
    initial_rate = std::log(0.05) /
                   (static_cast<double>(total_rows) *
                    std::log(1.0 - options_.epsilon));
    initial_rate = std::clamp(initial_rate, 0.0, 1.0);
  }

  Node root;
  root.box = Predicate::True();
  root.depth = 0;
  if (is_outlier) {
    SCORPION_ASSIGN_OR_RETURN(root.matches,
                              scorer_.BuildMatchCacheWithin(root.box, nullptr));
  }
  for (int idx : result_indices) {
    GroupSlice slice;
    slice.result_idx = idx;
    slice.rows = scorer_.query_result().results[idx].input_group;
    PopulateSample(&slice, initial_rate, is_outlier);
    root.groups.push_back(std::move(slice));
  }

  // Global influence bounds for the threshold curve.
  inf_lower_ = std::numeric_limits<double>::infinity();
  inf_upper_ = -std::numeric_limits<double>::infinity();
  for (const GroupSlice& g : root.groups) {
    for (double v : g.inf) {
      inf_lower_ = std::min(inf_lower_, v);
      inf_upper_ = std::max(inf_upper_, v);
    }
  }
  if (!std::isfinite(inf_lower_) || inf_upper_ <= inf_lower_) {
    leaves.push_back(MakeLeaf(root, is_outlier));
    return leaves;
  }

  std::deque<Node> queue;
  queue.push_back(std::move(root));
  while (!queue.empty()) {
    Node node = std::move(queue.front());
    queue.pop_front();
    ++stats_.nodes;

    // Node statistics.
    size_t node_rows = 0;
    double node_max_inf = -std::numeric_limits<double>::infinity();
    double parent_metric = 0.0;
    for (const GroupSlice& g : node.groups) {
      node_rows += g.rows.size();
      double mean, sd;
      MeanStd(g.inf, &mean, &sd);
      parent_metric = std::max(parent_metric, sd);
      for (double v : g.inf) node_max_inf = std::max(node_max_inf, v);
    }

    // Threshold curve (Figure 4): omega stays at tau_max until infmax passes
    // the inflection point, then decreases linearly to tau_min at inf_upper.
    double span = inf_upper_ - inf_lower_;
    double x_p = inf_lower_ + options_.inflection_p * span;
    double omega;
    if (node_max_inf <= x_p) {
      omega = options_.tau_max;
    } else if (node_max_inf >= inf_upper_) {
      omega = options_.tau_min;
    } else {
      double slope = (options_.tau_min - options_.tau_max) / (inf_upper_ - x_p);
      omega = options_.tau_max + slope * (node_max_inf - x_p);
    }
    double threshold = omega * span;

    bool stop = parent_metric <= threshold ||
                node_rows <= options_.min_partition_size ||
                node.depth >= options_.max_depth;
    SplitChoice split;
    if (!stop) {
      split = ChooseSplit(node, parent_metric);
      stop = !split.valid;
    }
    if (stop) {
      ++stats_.leaves;
      leaves.push_back(MakeLeaf(node, is_outlier));
      continue;
    }

    // Build the two children and distribute rows / samples.
    const Column* col = attr_columns_.at(split.attr);
    Node left, right;
    left.depth = right.depth = node.depth + 1;
    if (split.is_range) {
      const RangeClause* cur = node.box.FindRange(split.attr);
      double lo = cur != nullptr ? cur->lo : domains_.at(split.attr).lo;
      double hi = cur != nullptr ? cur->hi : domains_.at(split.attr).hi;
      bool hi_inc = cur != nullptr ? cur->hi_inclusive : true;
      left.box = node.box.WithRange({split.attr, lo, split.split_value, false});
      right.box =
          node.box.WithRange({split.attr, split.split_value, hi, hi_inc});
    } else {
      const SetClause* cur = node.box.FindSet(split.attr);
      std::vector<int32_t> rest;
      if (cur != nullptr) {
        for (int32_t c : cur->codes) {
          if (c != split.code) rest.push_back(c);
        }
      } else {
        for (int32_t c = 0; c < col->Cardinality(); ++c) {
          if (c != split.code) rest.push_back(c);
        }
      }
      if (rest.empty()) {  // cannot split a single-valued clause
        ++stats_.leaves;
        leaves.push_back(MakeLeaf(node, is_outlier));
        continue;
      }
      left.box = node.box.WithSet({split.attr, {split.code}});
      right.box = node.box.WithSet({split.attr, std::move(rest)});
    }
    if (node.matches != nullptr) {
      SCORPION_RETURN_NOT_OK(NarrowMatches(node, split, &left, &right));
    }

    // Columnar child distribution: one branch-free gather pass per group
    // computes a goes-left byte mask over the selection vector, then each
    // side compacts in order. NaN split values compare false and go right,
    // matching the scalar `GetDouble(r) < split` the tree used to run.
    //
    // The masks never outlive one group's iteration, so they live in
    // thread-local scratch (reused across every split of every node this
    // thread processes; thread-local because concurrent service requests
    // can run DT partitioners on different workers). Child row/sample
    // vectors are preallocated to exact sizes from the mask popcount.
    thread_local std::vector<uint8_t> row_mask_scratch;
    thread_local std::vector<uint8_t> sample_mask_scratch;
    auto fill_left_mask = [&](const Selection& sel,
                              std::vector<uint8_t>* mask) {
      const RowIdList& rs = sel.rows();
      mask->resize(rs.size());
      if (split.is_range) {
        const double* v = col->doubles().data();
        const double cut = split.split_value;
        for (size_t i = 0; i < rs.size(); ++i) {
          (*mask)[i] = static_cast<uint8_t>(v[rs[i]] < cut);
        }
      } else {
        const int32_t* cd = col->codes().data();
        const int32_t code = split.code;
        for (size_t i = 0; i < rs.size(); ++i) {
          (*mask)[i] = static_cast<uint8_t>(cd[rs[i]] == code);
        }
      }
    };
    auto split_selection = [](const Selection& sel,
                              const std::vector<uint8_t>& mask, Selection* l,
                              Selection* r) {
      const RowIdList& rs = sel.rows();
      size_t nl = 0;
      for (uint8_t b : mask) nl += b;
      RowIdList lrows, rrows;
      lrows.reserve(nl);
      rrows.reserve(rs.size() - nl);
      for (size_t i = 0; i < rs.size(); ++i) {
        (mask[i] ? lrows : rrows).push_back(rs[i]);
      }
      *l = Selection::FromSorted(std::move(lrows), sel.universe_size());
      *r = Selection::FromSorted(std::move(rrows), sel.universe_size());
    };

    bool resample = options_.use_sampling;
    // One pass per group: sample mass for the stratified child sampling
    // rates (Section 6.1.2, shifted non-negative), row distribution, and —
    // when not resampling — re-partition of the existing sample and
    // influences without recomputation.
    double mass_left = 0.0, mass_right = 0.0;
    size_t sample_total = 0;
    size_t left_rows_total = 0, right_rows_total = 0;
    for (GroupSlice& g : node.groups) {
      sample_total += g.sample.size();
      fill_left_mask(g.sample, &sample_mask_scratch);
      for (size_t i = 0; i < sample_mask_scratch.size(); ++i) {
        double shifted = g.inf[i] - inf_lower_;
        if (sample_mask_scratch[i]) {
          mass_left += shifted;
        } else {
          mass_right += shifted;
        }
      }
      GroupSlice gl, gr;
      gl.result_idx = gr.result_idx = g.result_idx;
      fill_left_mask(g.rows, &row_mask_scratch);
      split_selection(g.rows, row_mask_scratch, &gl.rows, &gr.rows);
      left_rows_total += gl.rows.size();
      right_rows_total += gr.rows.size();
      if (!resample) {
        split_selection(g.sample, sample_mask_scratch, &gl.sample, &gr.sample);
        gl.inf.reserve(gl.sample.size());
        gr.inf.reserve(gr.sample.size());
        for (size_t i = 0; i < sample_mask_scratch.size(); ++i) {
          (sample_mask_scratch[i] ? gl.inf : gr.inf).push_back(g.inf[i]);
        }
      }
      left.groups.push_back(std::move(gl));
      right.groups.push_back(std::move(gr));
    }
    if (resample) {
      double mass = mass_left + mass_right;
      double rate_left = 1.0, rate_right = 1.0;
      if (mass > 0.0 && sample_total > 0) {
        if (left_rows_total > 0) {
          rate_left = (mass_left / mass) * static_cast<double>(sample_total) /
                      static_cast<double>(left_rows_total);
        }
        if (right_rows_total > 0) {
          rate_right = (mass_right / mass) *
                       static_cast<double>(sample_total) /
                       static_cast<double>(right_rows_total);
        }
      }
      for (GroupSlice& g : left.groups) {
        PopulateSample(&g, std::clamp(rate_left, 0.0, 1.0), is_outlier);
      }
      for (GroupSlice& g : right.groups) {
        PopulateSample(&g, std::clamp(rate_right, 0.0, 1.0), is_outlier);
      }
    }
    queue.push_back(std::move(left));
    queue.push_back(std::move(right));
  }
  return leaves;
}

Result<std::vector<ScoredPredicate>> DTPartitioner::Run() {
  const ProblemSpec& problem = scorer_.problem();
  if (!scorer_.aggregate().is_independent()) {
    return Status::InvalidArgument(
        "DT requires an independent aggregate; " + scorer_.aggregate().name() +
        " is not (use NAIVE)");
  }
  SCORPION_ASSIGN_OR_RETURN(
      domains_, ComputeDomains(scorer_.table(), problem.attributes));
  attr_columns_.clear();
  for (const std::string& attr : problem.attributes) {
    SCORPION_ASSIGN_OR_RETURN(const Column* col,
                              scorer_.table().ColumnByName(attr));
    attr_columns_[attr] = col;
  }

  SCORPION_ASSIGN_OR_RETURN(
      std::vector<ScoredPredicate> outlier_leaves,
      PartitionGroups(problem.outliers, /*is_outlier=*/true));

  std::vector<ScoredPredicate> holdout_leaves;
  if (!problem.holdouts.empty() && problem.lambda < 1.0) {
    SCORPION_ASSIGN_OR_RETURN(
        holdout_leaves, PartitionGroups(problem.holdouts, /*is_outlier=*/false));
  }

  // Combine (Section 6.1.4): split outlier partitions along influential
  // hold-out partitions so the merger can distinguish regions that perturb
  // hold-outs from those that only affect outliers.
  std::vector<ScoredPredicate> candidates = outlier_leaves;
  if (!holdout_leaves.empty()) {
    double max_holdout_inf = 0.0;
    for (const ScoredPredicate& h : holdout_leaves) {
      max_holdout_inf =
          std::max(max_holdout_inf, std::fabs(h.info.mean_tuple_influence));
    }
    double influential_cut = 0.5 * max_holdout_inf;
    for (const ScoredPredicate& o : outlier_leaves) {
      double vo = o.pred.Volume(domains_);
      for (const ScoredPredicate& h : holdout_leaves) {
        if (std::fabs(h.info.mean_tuple_influence) < influential_cut) continue;
        auto inter = Predicate::Intersect(o.pred, h.pred);
        if (!inter.has_value() || *inter == o.pred) continue;
        ScoredPredicate refined;
        refined.pred = std::move(*inter);
        // The intersection lies inside the outlier leaf.
        SCORPION_ASSIGN_OR_RETURN(
            refined.matches,
            scorer_.BuildMatchCacheWithin(refined.pred, o.matches.get()));
        refined.internal_score = o.internal_score;
        refined.info = o.info;
        // Scale cached counts by the volume fraction retained.
        if (vo > 0.0) {
          double frac =
              std::clamp(refined.pred.Volume(domains_) / vo, 0.0, 1.0);
          for (uint32_t& n : refined.info.outlier_counts) {
            n = static_cast<uint32_t>(std::lround(frac * n));
          }
        }
        candidates.push_back(std::move(refined));
      }
    }
  }
  // The Merger, and every later rescoring of a session's partitions, reads
  // these match sets partition by partition. They were allocated among the
  // trees' transient state, now freed; copying them once in partition order
  // packs each partition's slots together for those reads.
  for (ScoredPredicate& sp : candidates) {
    PredicateMatchCache packed;
    packed.reserve(sp.matches->size());
    for (const Selection& slot : *sp.matches) {
      packed.push_back(Selection::FromSorted(slot.rows(), slot.universe_size()));
    }
    sp.matches = std::make_shared<const PredicateMatchCache>(std::move(packed));
  }
  return candidates;
}

}  // namespace scorpion
