// Ablation: the two Section 6.3 Merger optimizations, toggled independently
// on a DT run over SYNTH-3D-Easy.
//
//   quartile  — expand only top-quartile seeds (fewer expansions)
//   estimate  — rank candidate merges by the cached-tuple volume
//               approximation instead of exact scoring
//
// Reported: wall time, exact Scorer calls, merged boxes served from the
// Merger's influence memo instead, expansion steps replayed from an earlier
// seed's visit to the same state, estimated calls, and the final
// best influence + F-score (to confirm the optimizations do not degrade
// quality). Expectation: both optimizations cut exact scorer traffic; the
// estimate replaces most candidate-ranking scores; quality stays flat.
//
// A second table reports the Merger MC runs inside its own search (exact
// path, same-subspace merges), whose counters MCStats::merger carries.
#include <cstdio>

#include "bench_common.h"
#include "core/dt.h"
#include "core/mc.h"
#include "core/merger.h"

using namespace scorpion;
using namespace scorpion::bench;

int main() {
  std::printf("=== Ablation: Merger optimizations (DT on SYNTH-3D-Easy) ===\n");
  SynthOptions opts = SynthPreset(3, /*easy=*/true);
  auto inst = MakeSynthInstance(opts);
  BENCH_CHECK_OK(inst);
  auto problem = MakeProblem(inst->qr, inst->dataset.outlier_keys,
                             inst->dataset.holdout_keys, 1.0, 0.5, 0.2,
                             inst->dataset.attributes);
  BENCH_CHECK_OK(problem);
  auto scorer = Scorer::Make(inst->dataset.table, inst->qr, *problem);
  BENCH_CHECK_OK(scorer);
  auto domains =
      ComputeDomains(inst->dataset.table, problem->attributes);
  BENCH_CHECK_OK(domains);

  // One fixed partitioning shared by all merger configurations.
  DTPartitioner dt(*scorer, DTOptions{});
  auto partitions = dt.Run();
  BENCH_CHECK_OK(partitions);
  std::printf("partitions: %zu\n\n", partitions->size());

  TablePrinter table({"quartile", "estimate", "time(s)", "exact scores",
                      "memo hits", "replayed", "estimates", "best influence",
                      "F(outer)"});
  for (bool quartile : {false, true}) {
    for (bool estimate : {false, true}) {
      MergerOptions mopts;
      mopts.top_quartile_only = quartile;
      mopts.use_cached_tuple_estimate = estimate;
      Merger merger(*scorer, *domains, mopts);
      std::vector<ScoredPredicate> inputs = *partitions;
      for (ScoredPredicate& sp : inputs) {
        sp.influence = -std::numeric_limits<double>::infinity();
      }
      WallTimer timer;
      auto merged = merger.Run(std::move(inputs));
      double seconds = timer.ElapsedSeconds();
      BENCH_CHECK_OK(merged);
      auto acc = EvaluatePredicate(inst->dataset.table,
                                   merged->front().pred,
                                   inst->outlier_union,
                                   inst->dataset.outer_rows);
      BENCH_CHECK_OK(acc);
      table.AddRow({quartile ? "on" : "off", estimate ? "on" : "off",
                    Fmt(seconds), std::to_string(merger.stats().exact_scores),
                    std::to_string(merger.stats().memo_hits),
                    std::to_string(merger.stats().states_replayed),
                    std::to_string(merger.stats().estimated_scores),
                    Fmt(merged->front().influence, "%.4g"),
                    Fmt(acc->f_score)});
    }
  }
  table.Print();

  std::printf("\n=== MC's own Merger (SYNTH-3D-Easy) ===\n");
  MCPartitioner mc(*scorer, MCOptions{}, MergerOptions{});
  WallTimer mc_timer;
  auto ranked = mc.Run();
  const double mc_seconds = mc_timer.ElapsedSeconds();
  BENCH_CHECK_OK(ranked);
  const MergerStats& mc_merger = mc.stats().merger;
  TablePrinter mc_table({"time(s)", "exact scores", "memo hits", "replayed",
                         "merges accepted", "best influence"});
  mc_table.AddRow({Fmt(mc_seconds), std::to_string(mc_merger.exact_scores),
                   std::to_string(mc_merger.memo_hits),
                   std::to_string(mc_merger.states_replayed),
                   std::to_string(mc_merger.merges_accepted),
                   Fmt(ranked->front().influence, "%.4g")});
  mc_table.Print();
  return 0;
}
