// synth_scatter: the distributed path. SYNTH-2D-Easy (generator seed 42) at
// 1,200 tuples per group (12,000 rows) in a seed-shuffled row order, c = 0.5.
// Two in-process loopback Workers; Coordinator::Connect and Publish run in
// set-up; then one client runs DT explains through Coordinator::Explain in a
// closed loop. Every remote answer must equal the local Dataset::Explain
// (computed outside the timed window) bit for bit.
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "api/dataset.h"
#include "bench.h"
#include "common/timer.h"
#include "distributed/coordinator.h"
#include "distributed/worker.h"
#include "split_explain.h"
#include "workload/synth.h"

namespace perfbench {

using scorpion::WallTimer;

namespace {

constexpr int kSetups = 3;  // one set-up takes about a second
constexpr int kWorkers = 2;
constexpr int kLocalExplains = 3;

struct ScatterSetup {
  std::unique_ptr<scorpion::SynthDataset> data;
  std::unique_ptr<scorpion::Table> table;
  std::unique_ptr<scorpion::Engine> engine;
  std::optional<scorpion::Dataset> dataset;
  scorpion::ProblemSpec problem;
  std::vector<std::unique_ptr<scorpion::Worker>> workers;
  std::unique_ptr<scorpion::Coordinator> coordinator;

  ScatterSetup() = default;
  ScatterSetup(const ScatterSetup&) = delete;
  ScatterSetup& operator=(const ScatterSetup&) = delete;
  ~ScatterSetup() {
    if (coordinator != nullptr) coordinator->ShutdownWorkers();
    coordinator.reset();
    for (auto& worker : workers) worker->Stop();
  }
};

scorpion::ScorpionOptions SerialDT() {
  scorpion::ScorpionOptions options;
  options.algorithm = scorpion::Algorithm::kDT;
  options.num_threads = 1;
  return options;
}

bool SameRanking(const scorpion::Explanation& remote,
                 const scorpion::ExplainResponse& local) {
  if (remote.predicates.size() != local.predicates.size()) return false;
  for (size_t i = 0; i < local.predicates.size(); ++i) {
    const double a = remote.predicates[i].influence;
    const double b = local.predicates[i].influence;
    if (!(remote.predicates[i].pred == local.predicates[i].pred) ||
        std::memcmp(&a, &b, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

void RunSynthScatter(const Args& args, Tracer* tracer, Report* report) {
  scorpion::ExplainRequest request;
  // --- Set-up, several times; the last one is kept. ------------------------
  std::vector<double> setup_s;
  std::vector<double> groupby_ms;
  std::vector<double> publish_ms;
  std::unique_ptr<ScatterSetup> setup;
  for (int i = 0; i < kSetups; ++i) {
    setup.reset();
    WallTimer timer;
    auto next = std::make_unique<ScatterSetup>();
    scorpion::SynthOptions synth = scorpion::SynthPreset(2, true);
    synth.tuples_per_group = args.quick ? 300 : 1200;
    PERFBENCH_ASSIGN_OR_FAIL(scorpion::SynthDataset generated,
                             scorpion::GenerateSynth(synth), report);
    next->data = std::make_unique<scorpion::SynthDataset>(std::move(generated));
    PERFBENCH_ASSIGN_OR_FAIL(
        next->table, ShuffledRows(next->data->table, args.seed), report);
    scorpion::EngineOptions engine_options;
    engine_options.engine = SerialDT();
    engine_options.cache_enabled = false;
    next->engine = std::make_unique<scorpion::Engine>(engine_options);
    WallTimer open_timer;
    PERFBENCH_ASSIGN_OR_FAIL(
        scorpion::Dataset dataset,
        next->engine->Open(*next->table, next->data->query), report);
    groupby_ms.push_back(open_timer.ElapsedMillis());
    next->dataset.emplace(std::move(dataset));
    request = scorpion::ExplainRequest();
    for (const std::string& key : next->data->outlier_keys) {
      request.FlagTooHigh(key);
    }
    request.Holdouts(next->data->holdout_keys)
        .WithAttributes(next->data->attributes)
        .WithC(0.5)
        .WithLambda(0.5);
    PERFBENCH_ASSIGN_OR_FAIL(next->problem, next->dataset->Resolve(request),
                             report);

    std::vector<std::string> endpoints;
    for (int w = 0; w < kWorkers; ++w) {
      PERFBENCH_ASSIGN_OR_FAIL(std::unique_ptr<scorpion::Worker> worker,
                               scorpion::Worker::Start("127.0.0.1", 0), report);
      endpoints.push_back("127.0.0.1:" + std::to_string(worker->port()));
      next->workers.push_back(std::move(worker));
    }
    PERFBENCH_ASSIGN_OR_FAIL(next->coordinator,
                             scorpion::Coordinator::Connect(endpoints), report);
    WallTimer publish_timer;
    PERFBENCH_RETURN_NOT_OK(
        next->coordinator->Publish(*next->table, next->dataset->result(),
                                   next->problem),
        report);
    publish_ms.push_back(publish_timer.ElapsedMillis());
    setup_s.push_back(timer.ElapsedSeconds());
    setup = std::move(next);
  }
  report->metrics["setup_s"] = Median(setup_s);
  report->metrics["query.groupby_ms"] = Median(groupby_ms);
  report->metrics["distributed.publish_ms"] = Median(publish_ms);

  // --- Local reference, outside the timed window. --------------------------
  std::vector<double> local_ms;
  std::vector<SplitCounters> counters;
  std::optional<scorpion::ExplainResponse> local;
  for (int i = 0; i < kLocalExplains; ++i) {
    WallTimer timer;
    PERFBENCH_ASSIGN_OR_FAIL(scorpion::ExplainResponse response,
                             setup->dataset->Explain(request), report);
    local_ms.push_back(timer.ElapsedMillis());
    if (!local.has_value()) local = std::move(response);
  }
  if (args.trace) {
    SplitCounters run;
    Span root(tracer, "api.explain", 1);
    PERFBENCH_ASSIGN_OR_FAIL(
        scorpion::ExplainResponse split,
        SplitExplain(*setup->dataset, setup->engine->options().engine, request,
                     tracer, 1, &run),
        report);
    root.Close();
    if (!SameAnswer(split, *local)) {
      report->Fail("split explain differs from Dataset::Explain");
    }
    counters.push_back(run);
  }

  // --- Timed closed loop of remote explains. -------------------------------
  const scorpion::CoordinatorStats start = setup->coordinator->stats();
  std::vector<double> latencies_ms;  // untraced part
  std::vector<double> traced_ms;
  scorpion::CoordinatorStats previous = start;
  double shard_requests = -1.0;
  double bytes = -1.0;
  double remote_fetches = 0.0;
  uint64_t request_id = 1;
  WallTimer window;
  do {
    ++report->attempted;
    ++request_id;
    // When tracing, the second half of the window is the traced part.
    const bool traced_part =
        args.trace && window.ElapsedSeconds() >= args.seconds / 2;
    WallTimer timer;
    Span span(traced_part ? tracer : nullptr, "distributed.explain",
              request_id);
    scorpion::Result<scorpion::Explanation> remote =
        setup->coordinator->Explain(SerialDT());
    span.Close();
    (traced_part ? traced_ms : latencies_ms).push_back(timer.ElapsedMillis());
    if (!remote.ok()) {
      ++report->failed;
      report->Fail("Coordinator::Explain: " + remote.status().ToString());
      continue;
    }
    if (!SameRanking(*remote, *local)) {
      ++report->failed;
      report->Fail("remote explain differs from the local one");
    }
    remote_fetches =
        static_cast<double>(remote->scorer_stats.remote_match_fetches);
    const scorpion::CoordinatorStats now = setup->coordinator->stats();
    const double this_requests =
        static_cast<double>(now.shard_requests - previous.shard_requests);
    if (shard_requests >= 0.0 && this_requests != shard_requests) {
      report->Fail("shard requests drifted between explains: " +
                   std::to_string(shard_requests) + " -> " +
                   std::to_string(this_requests));
    }
    shard_requests = this_requests;
    // Frames carry growing request ids, so only the first explain's byte
    // count is comparable across runs.
    if (bytes < 0.0) {
      bytes = static_cast<double>(now.bytes_on_wire - previous.bytes_on_wire);
    }
    previous = now;
  } while (window.ElapsedSeconds() < args.seconds);
  const scorpion::CoordinatorStats end = setup->coordinator->stats();
  RecordLatencies(latencies_ms, report);
  report->Count("distributed.shard_requests_per_explain", shard_requests);
  report->Count("net.bytes_per_explain", bytes);
  report->metrics["distributed.workers_lost"] =
      static_cast<double>(end.workers_lost - start.workers_lost);
  report->metrics["distributed.ranges_redispatched"] =
      static_cast<double>(end.ranges_redispatched - start.ranges_redispatched);
  report->metrics["distributed.local_fallback_ranges"] =
      static_cast<double>(end.local_fallback_ranges -
                          start.local_fallback_ranges);
  if (end.workers_lost != start.workers_lost) {
    report->Fail("a worker was lost during the run");
  }
  if (!args.trace) return;

  RecordSplitCounters(counters, static_cast<double>(counters.size()), report);
  report->Count("core.scorer.remote_match_fetches", remote_fetches);
  report->metrics["distributed.local_explain_ms"] = Median(local_ms);
  report->Ratio("distributed.remote_over_local",
                report->metrics["explain_p50_ms"], Median(local_ms));
  report->metrics["core.merger.run_ms"] =
      Median(tracer->Durations("core.merger.run"));
  report->metrics["core.dt.run_ms"] = Median(tracer->Durations("core.dt.run"));
  report->metrics["core.scorer.make_ms"] =
      Median(tracer->Durations("core.scorer.make"));
  report->metrics["api.resolve_ms"] = Median(tracer->Durations("api.resolve"));
  report->metrics["trace.overhead_ms"] =
      Median(traced_ms) - report->metrics["explain_p50_ms"];
}

}  // namespace perfbench
