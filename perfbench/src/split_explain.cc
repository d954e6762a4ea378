#include "split_explain.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "predicate/predicate.h"

namespace perfbench {

using scorpion::Algorithm;
using scorpion::ExplainResponse;
using scorpion::Result;
using scorpion::ScoredPredicate;

namespace {

// The what-if half of the response build (Dataset's BuildResponse): every
// result group's value with the winning predicate's tuples deleted.
scorpion::Status BuildWhatIf(const scorpion::Table& table,
                             const scorpion::QueryResult& result,
                             const scorpion::ProblemSpec& problem,
                             const scorpion::ScorpionOptions& options,
                             ExplainResponse* response) {
  SCORPION_ASSIGN_OR_RETURN(scorpion::Scorer scorer,
                            scorpion::Scorer::Make(table, result, problem));
  scorer.set_enable_block_pruning(options.enable_block_pruning);
  scorer.set_thread_pool(nullptr);
  const scorpion::Predicate& best = response->predicates.front().pred;
  SCORPION_ASSIGN_OR_RETURN(scorpion::BoundPredicate bound, best.Bind(table));
  scorer.ConfigureBound(&bound);
  response->what_if.reserve(result.results.size());
  for (int i = 0; i < static_cast<int>(result.results.size()); ++i) {
    const scorpion::AggregateResult& r = result.results[i];
    SCORPION_ASSIGN_OR_RETURN(scorpion::Selection matched,
                              bound.Filter(r.input_group));
    scorpion::WhatIfEntry entry;
    entry.key = r.key_string;
    entry.original = r.value;
    entry.updated = scorer.UpdatedValue(i, matched);
    entry.tuples_removed = matched.size();
    entry.is_outlier = std::find(problem.outliers.begin(),
                                 problem.outliers.end(),
                                 i) != problem.outliers.end();
    entry.is_holdout = std::find(problem.holdouts.begin(),
                                 problem.holdouts.end(),
                                 i) != problem.holdouts.end();
    response->what_if.push_back(std::move(entry));
  }
  return scorpion::Status::OK();
}

}  // namespace

Result<ExplainResponse> SplitExplain(
    const scorpion::Dataset& dataset,
    const scorpion::ScorpionOptions& engine_options,
    const scorpion::ExplainRequest& request, Tracer* tracer,
    uint64_t request_id, SplitCounters* counters) {
  scorpion::ScorpionOptions options = engine_options;
  options.algorithm = request.algorithm();
  if (request.top_k() > 0) options.top_k = request.top_k();
  if (options.num_threads != 1) {
    return scorpion::Status::InvalidArgument(
        "SplitExplain mirrors a serial engine (num_threads = 1)");
  }
  const scorpion::Table& table = dataset.table();

  Span resolve_span(tracer, "api.resolve", request_id);
  SCORPION_ASSIGN_OR_RETURN(scorpion::ProblemSpec problem,
                            dataset.Resolve(request));
  resolve_span.Close();

  Span make_span(tracer, "core.scorer.make", request_id);
  SCORPION_ASSIGN_OR_RETURN(
      scorpion::Scorer scorer,
      scorpion::Scorer::Make(table, dataset.result(), problem));
  scorer.set_thread_pool(nullptr);
  scorer.set_enable_block_pruning(options.enable_block_pruning);
  scorer.set_enable_candidate_batching(options.enable_candidate_batching);
  scorer.set_match_source(options.match_source);
  make_span.Close();

  std::vector<ScoredPredicate> ranked;
  if (options.algorithm == Algorithm::kDT) {
    Span dt_span(tracer, "core.dt.run", request_id);
    scorpion::DTPartitioner dt(scorer, options.dt);
    SCORPION_ASSIGN_OR_RETURN(std::vector<ScoredPredicate> partitions,
                              dt.Run());
    dt_span.Close();
    counters->dt = dt.stats();

    {
      // Influence scores depend on c; the merger rescores every partition.
      Span reset_span(tracer, "core.reset", request_id);
      for (ScoredPredicate& sp : partitions) {
        sp.influence = -std::numeric_limits<double>::infinity();
      }
    }

    Span domains_span(tracer, "predicate.domains", request_id);
    SCORPION_ASSIGN_OR_RETURN(
        scorpion::DomainMap domains,
        scorpion::ComputeDomains(table, problem.attributes));
    domains_span.Close();

    Span merger_span(tracer, "core.merger.run", request_id);
    scorpion::Merger merger(scorer, std::move(domains), options.merger);
    SCORPION_ASSIGN_OR_RETURN(ranked, merger.Run(std::move(partitions)));
    merger_span.Close();
    counters->merger = merger.stats();
    for (ScoredPredicate& sp : ranked) sp.matches.reset();
  } else if (options.algorithm == Algorithm::kMC) {
    Span mc_span(tracer, "core.mc.run", request_id);
    scorpion::MCPartitioner mc(scorer, options.mc, options.merger);
    SCORPION_ASSIGN_OR_RETURN(ranked, mc.Run());
    mc_span.Close();
    counters->mc = mc.stats();
  } else {
    return scorpion::Status::InvalidArgument(
        "SplitExplain covers DT and MC only");
  }

  Span build_span(tracer, "api.response_build", request_id);
  if (ranked.size() > options.top_k) ranked.resize(options.top_k);
  if (ranked.empty()) {
    return scorpion::Status::Internal("search produced no predicates");
  }
  counters->scorer = scorer.stats();
  ExplainResponse response;
  response.algorithm = options.algorithm;
  response.predicates.reserve(ranked.size());
  for (const ScoredPredicate& sp : ranked) {
    scorpion::RankedPredicate rp;
    rp.pred = sp.pred;
    rp.influence = sp.influence;
    rp.display = sp.pred.ToString(&table);
    response.predicates.push_back(std::move(rp));
  }
  response.stats.predicate_scores = counters->scorer.predicate_scores;
  response.stats.group_deltas = counters->scorer.group_deltas;
  response.stats.tuple_scores = counters->scorer.tuple_scores;
  response.stats.rows_filtered = counters->scorer.rows_filtered;
  response.stats.match_cache_hits = counters->scorer.match_cache_hits;
  build_span.Close();

  if (request.what_if()) {
    Span what_if_span(tracer, "api.what_if", request_id);
    SCORPION_RETURN_NOT_OK(
        BuildWhatIf(table, dataset.result(), problem, options, &response));
  }
  return response;
}

void RecordSplitCounters(const std::vector<SplitCounters>& runs,
                         double requests, Report* report) {
  if (runs.empty()) return;
  std::map<std::string, double> sum;
  double incremental_deltas = 0.0;
  for (const SplitCounters& c : runs) {
    sum["core.merger.exact_scores"] += c.merger.exact_scores;
    sum["core.merger.estimated_scores"] += c.merger.estimated_scores;
    sum["core.merger.merges_accepted"] += c.merger.merges_accepted;
    sum["core.merger.match_cache_scores"] += c.merger.match_cache_scores;
    sum["core.dt.nodes"] += static_cast<double>(c.dt.nodes);
    sum["core.dt.leaves"] += static_cast<double>(c.dt.leaves);
    sum["core.mc.predicates_scored"] +=
        static_cast<double>(c.mc.predicates_scored);
    sum["core.mc.predicates_pruned"] +=
        static_cast<double>(c.mc.predicates_pruned);
    sum["core.scorer.predicate_scores"] += c.scorer.predicate_scores;
    sum["core.scorer.group_deltas"] += c.scorer.group_deltas;
    incremental_deltas += c.scorer.incremental_deltas;
    sum["core.scorer.tuple_scores"] += c.scorer.tuple_scores;
    sum["core.scorer.rows_filtered"] += c.scorer.rows_filtered;
    sum["core.scorer.match_cache_hits"] += c.scorer.match_cache_hits;
    sum["core.scorer.remote_match_fetches"] += c.scorer.remote_match_fetches;
    sum["predicate.filter_kernels"] += c.scorer.filter_kernels;
    sum["predicate.candidate_batches"] += c.scorer.candidate_batches;
    sum["predicate.blocks_shared_across_candidates"] +=
        c.scorer.blocks_shared_across_candidates;
    sum["table.blocks_none"] += c.scorer.blocks_pruned_none;
    sum["table.blocks_all"] += c.scorer.blocks_pruned_all;
    sum["table.blocks_partial"] += c.scorer.blocks_partial;
    sum["table.rows_skipped_by_pruning"] += c.scorer.rows_skipped_by_pruning;
    sum["table.selection_conversions"] +=
        static_cast<double>(c.scorer.bitmap_to_vector) +
        static_cast<double>(c.scorer.vector_to_bitmap);
  }
  for (const auto& [name, total] : sum) report->Count(name, total / requests);
  report->Ratio("core.merger.accept_share",
                sum["core.merger.merges_accepted"],
                sum["core.merger.exact_scores"] +
                    sum["core.merger.estimated_scores"]);
  report->Ratio("core.scorer.incremental_share", incremental_deltas,
                sum["core.scorer.group_deltas"]);
  report->Ratio("table.prune_share",
                sum["table.blocks_none"] + sum["table.blocks_all"],
                sum["table.blocks_none"] + sum["table.blocks_all"] +
                    sum["table.blocks_partial"]);
}

bool SameAnswer(const ExplainResponse& a, const ExplainResponse& b) {
  if (a.algorithm != b.algorithm ||
      a.predicates.size() != b.predicates.size()) {
    return false;
  }
  for (size_t i = 0; i < a.predicates.size(); ++i) {
    const scorpion::RankedPredicate& x = a.predicates[i];
    const scorpion::RankedPredicate& y = b.predicates[i];
    // Influence compared bit for bit (NaN-safe, -0.0 distinct).
    if (!(x.pred == y.pred) || x.display != y.display ||
        std::memcmp(&x.influence, &y.influence, sizeof(double)) != 0) {
      return false;
    }
  }
  return a.what_if == b.what_if;
}

}  // namespace perfbench
