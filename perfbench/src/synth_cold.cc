// synth_cold: SYNTH-2D-Easy (generator seed 42) at 5,000 tuples per group
// (50,000 rows), rows shuffled within blocks by --seed, c = 0.1,
// lambda = 0.5. One client runs a closed loop through Dataset::Explain on a
// cache-off, single-threaded engine, alternating DT (the Merger-bound cold
// path) and MC (the bottom-up search). A request of this workload is one
// round: the DT explain and the MC explain of the same question.
#include <memory>
#include <optional>
#include <utility>

#include "api/dataset.h"
#include "bench.h"
#include "common/timer.h"
#include "split_explain.h"
#include "workload/synth.h"

namespace perfbench {

using scorpion::WallTimer;

namespace {

constexpr int kSetups = 9;
constexpr int kDT = 0;
constexpr int kMC = 1;

struct SynthSetup {
  std::unique_ptr<scorpion::SynthDataset> data;
  std::unique_ptr<scorpion::Table> table;  // data->table, rows shuffled
  std::unique_ptr<scorpion::Engine> engine;
  std::optional<scorpion::Dataset> dataset;
};

scorpion::EngineOptions ColdEngineOptions() {
  scorpion::EngineOptions options;
  options.engine.num_threads = 1;
  options.cache_enabled = false;
  return options;
}

bool SameCounts(const scorpion::ResponseStats& a,
                const scorpion::ResponseStats& b) {
  return a.predicate_scores == b.predicate_scores &&
         a.group_deltas == b.group_deltas &&
         a.tuple_scores == b.tuple_scores &&
         a.rows_filtered == b.rows_filtered &&
         a.match_cache_hits == b.match_cache_hits;
}

bool SameLayerCounts(const SplitCounters& a, const SplitCounters& b) {
  return a.merger.exact_scores == b.merger.exact_scores &&
         a.merger.estimated_scores == b.merger.estimated_scores &&
         a.merger.merges_accepted == b.merger.merges_accepted &&
         a.dt.nodes == b.dt.nodes && a.dt.leaves == b.dt.leaves &&
         a.mc.predicates_scored == b.mc.predicates_scored &&
         a.mc.predicates_pruned == b.mc.predicates_pruned;
}

}  // namespace

void RunSynthCold(const Args& args, Tracer* tracer, Report* report) {
  // --- Set-up, several times; the last one is kept. ------------------------
  std::vector<double> setup_s;
  std::vector<double> groupby_ms;
  std::unique_ptr<SynthSetup> setup;
  for (int i = 0; i < kSetups; ++i) {
    setup.reset();
    WallTimer timer;
    auto next = std::make_unique<SynthSetup>();
    scorpion::SynthOptions synth = scorpion::SynthPreset(2, true);
    synth.tuples_per_group = args.quick ? 500 : 5000;
    PERFBENCH_ASSIGN_OR_FAIL(scorpion::SynthDataset generated,
                             scorpion::GenerateSynth(synth), report);
    next->data = std::make_unique<scorpion::SynthDataset>(std::move(generated));
    PERFBENCH_ASSIGN_OR_FAIL(
        next->table, ShuffledRows(next->data->table, args.seed), report);
    next->engine = std::make_unique<scorpion::Engine>(ColdEngineOptions());
    WallTimer open_timer;
    PERFBENCH_ASSIGN_OR_FAIL(
        scorpion::Dataset dataset,
        next->engine->Open(*next->table, next->data->query), report);
    groupby_ms.push_back(open_timer.ElapsedMillis());
    next->dataset.emplace(std::move(dataset));
    setup_s.push_back(timer.ElapsedSeconds());
    setup = std::move(next);
  }
  report->metrics["setup_s"] = Median(setup_s);
  report->metrics["query.groupby_ms"] = Median(groupby_ms);
  const scorpion::Dataset& dataset = *setup->dataset;
  const scorpion::ScorpionOptions& engine_options =
      setup->engine->options().engine;

  scorpion::ExplainRequest requests[2];
  for (int a : {kDT, kMC}) {
    for (const std::string& key : setup->data->outlier_keys) {
      requests[a].FlagTooHigh(key);
    }
    requests[a]
        .Holdouts(setup->data->holdout_keys)
        .WithAttributes(setup->data->attributes)
        .WithAlgorithm(a == kDT ? scorpion::Algorithm::kDT
                                : scorpion::Algorithm::kMC)
        .WithC(0.1)
        .WithLambda(0.5);
  }

  std::optional<scorpion::ExplainResponse> reference[2];
  std::optional<SplitCounters> first_counters[2];
  std::vector<SplitCounters> counters;
  std::vector<double> json_bytes;
  uint64_t request_id = 0;

  // One untraced explain through Dataset::Explain; returns its latency.
  auto explain = [&](int a) -> std::optional<double> {
    ++report->attempted;
    WallTimer timer;
    scorpion::Result<scorpion::ExplainResponse> response =
        dataset.Explain(requests[a]);
    if (!response.ok()) {
      ++report->failed;
      report->Fail("Dataset::Explain: " + response.status().ToString());
      return std::nullopt;
    }
    const std::string json = response->ToJson();
    const double ms = timer.ElapsedMillis();
    if (!reference[a].has_value()) {
      reference[a] = std::move(*response);
    } else if (!SameAnswer(*response, *reference[a]) ||
               !SameCounts(response->stats, reference[a]->stats)) {
      ++report->failed;
      report->Fail("repeated Dataset::Explain drifted from the first run");
    }
    return ms;
  };
  // One split explain, checked against Dataset::Explain; returns its
  // latency and the part of it spent inside named layer calls.
  auto split_explain =
      [&](int a) -> std::optional<std::pair<double, double>> {
    ++request_id;
    SplitCounters run;
    WallTimer timer;
    Span root(tracer, "api.explain", request_id);
    const int root_id = root.id();
    scorpion::Result<scorpion::ExplainResponse> response = SplitExplain(
        dataset, engine_options, requests[a], tracer, request_id, &run);
    if (!response.ok()) {
      report->Fail("SplitExplain: " + response.status().ToString());
      return std::nullopt;
    }
    Span json_span(tracer, "api.response_json", request_id);
    const std::string json = response->ToJson();
    json_span.Close();
    root.Close();
    const double ms = timer.ElapsedMillis();
    json_bytes.push_back(static_cast<double>(json.size()));
    if (!SameAnswer(*response, *reference[a])) {
      report->Fail("split explain differs from Dataset::Explain");
    }
    if (!SameCounts(response->stats, reference[a]->stats)) {
      report->Fail("split explain scorer counts differ from Dataset::Explain");
    }
    if (!first_counters[a].has_value()) {
      first_counters[a] = run;
    } else if (!SameLayerCounts(run, *first_counters[a])) {
      report->Fail("layer counts drifted between identical split explains");
    }
    counters.push_back(run);
    return std::make_pair(ms, tracer->ChildMs(root_id));
  };

  // --- Timed closed loop. When tracing, every untraced round is followed by
  // a traced round of split explains, so the two see the same machine. -----
  std::vector<double> round_ms;
  std::vector<double> algorithm_ms[2];
  std::vector<double> traced_round_ms;
  std::vector<double> covered_round_ms;
  WallTimer window;
  do {
    double round = 0.0;
    for (int a : {kDT, kMC}) {
      const std::optional<double> ms = explain(a);
      if (!ms.has_value()) return;
      algorithm_ms[a].push_back(*ms);
      round += *ms;
    }
    round_ms.push_back(round);
    if (args.trace) {
      double traced = 0.0;
      double covered = 0.0;
      for (int a : {kDT, kMC}) {
        const auto ms = split_explain(a);
        if (!ms.has_value()) return;
        traced += ms->first;
        covered += ms->second;
      }
      traced_round_ms.push_back(traced);
      covered_round_ms.push_back(covered);
    }
  } while (window.ElapsedSeconds() < args.seconds);
  RecordLatencies(round_ms, report);
  // Scorer counts of one round, for the drift check across runs; the traced
  // run records the same names from its split explains.
  const scorpion::ResponseStats& dt = reference[kDT]->stats;
  const scorpion::ResponseStats& mc = reference[kMC]->stats;
  report->deterministic["core.scorer.predicate_scores"] =
      static_cast<double>(dt.predicate_scores + mc.predicate_scores);
  report->deterministic["core.scorer.group_deltas"] =
      static_cast<double>(dt.group_deltas + mc.group_deltas);
  report->deterministic["core.scorer.tuple_scores"] =
      static_cast<double>(dt.tuple_scores + mc.tuple_scores);
  report->deterministic["core.scorer.rows_filtered"] =
      static_cast<double>(dt.rows_filtered + mc.rows_filtered);
  report->detail.Add("dt_explain_p50_ms",
                     scorpion::JsonValue::Number(Median(algorithm_ms[kDT])));
  report->detail.Add("mc_explain_p50_ms",
                     scorpion::JsonValue::Number(Median(algorithm_ms[kMC])));

  // Counts per round (one DT and one MC explain).
  RecordSplitCounters(counters, static_cast<double>(counters.size()) / 2,
                      report);
  if (!args.trace) return;

  report->metrics["api.response_bytes"] = Median(json_bytes);
  report->metrics["core.merger.run_ms"] =
      Median(tracer->Durations("core.merger.run"));
  report->metrics["core.dt.run_ms"] = Median(tracer->Durations("core.dt.run"));
  report->metrics["core.mc.run_ms"] = Median(tracer->Durations("core.mc.run"));
  report->metrics["core.scorer.make_ms"] =
      Median(tracer->Durations("core.scorer.make"));
  report->metrics["api.resolve_ms"] = Median(tracer->Durations("api.resolve"));
  report->metrics["api.response_json_ms"] =
      Median(tracer->Durations("api.response_json"));
  const double untraced_p50 = report->metrics["explain_p50_ms"];
  report->metrics["trace.overhead_ms"] =
      Median(traced_round_ms) - untraced_p50;
  report->Ratio("trace.coverage", Median(covered_round_ms), untraced_p50);
  scorpion::JsonValue self = scorpion::JsonValue::Object();
  for (const auto& [layer, ms] : tracer->SelfMsByLayer()) {
    self.Add(layer, scorpion::JsonValue::Number(
                        ms / static_cast<double>(traced_round_ms.size())));
  }
  report->detail.Add("self_ms_per_round_by_layer", std::move(self));
}

}  // namespace perfbench
