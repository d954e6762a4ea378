// sensor_live: the only workload that writes. The sensor stream of the live
// table tests (three hours x three sensors; sensor 3 runs hot at low voltage
// outside 11AM) flows into a LiveTable that grows from 65,536 to 262,144
// rows in bursts of 8,192. --seed permutes the rows inside every burst.
//
// After each burst the loop calls Refresh, then one explain at c = 0.5 (the
// one that consumes the session's delta seed), then explains at c = 0.3 and
// c = 0.7; single thread, schedule set by row counts. The first explain of a
// burst is timed from the start of the burst's appends (a client sees fresh
// data only after append, publish, refresh and explain); the other two from
// their call. When the table is full it is checked against a cold
// Engine::Open + Explain over the frozen snapshot and a new cycle starts.
#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <random>

#include "api/dataset.h"
#include "bench.h"
#include "common/timer.h"
#include "query/groupby.h"
#include "service/stats.h"
#include "split_explain.h"
#include "storage/live_table.h"

namespace perfbench {

using scorpion::WallTimer;

namespace {

constexpr int kSetups = 9;
constexpr size_t kBurstRows = 8192;
// The c of the three explains after every refresh; the first consumes the
// session's delta seed.
constexpr double kSweep[] = {0.5, 0.3, 0.7};

scorpion::Schema SensorSchema() {
  return scorpion::Schema({{"time", scorpion::DataType::kCategorical},
                           {"sensorid", scorpion::DataType::kCategorical},
                           {"voltage", scorpion::DataType::kDouble},
                           {"humidity", scorpion::DataType::kDouble},
                           {"temp", scorpion::DataType::kDouble}});
}

// Row i of the stationary stream.
std::vector<scorpion::Value> StreamRow(size_t i) {
  static const char* kHours[] = {"11AM", "12PM", "1PM"};
  const std::string hour = kHours[(i / 3) % 3];
  const std::string sensor = std::to_string(i % 3 + 1);
  const bool hot = sensor == "3" && hour != "11AM";
  return {hour, sensor, hot ? 2.3 : 2.7, (i % 2 == 0) ? 0.4 : 0.5,
          hot ? (hour == "12PM" ? 100.0 : 80.0)
              : 34.0 + static_cast<double>(i % 3)};
}

scorpion::GroupByQuery SensorQuery() {
  scorpion::GroupByQuery query;
  query.aggregate = "AVG";
  query.agg_attr = "temp";
  query.group_by = {"time"};
  return query;
}

scorpion::ExplainRequest StreamRequest(double c) {
  return scorpion::ExplainRequest()
      .FlagTooHigh("12PM")
      .FlagTooHigh("1PM")
      .Holdout("11AM")
      .WithAttributes({"sensorid", "voltage", "humidity"})
      .WithC(c);
}

// The stream in burst order: the rows of burst b are b * kBurstRows +
// permutation[j], one seeded permutation shared by every burst.
struct Stream {
  std::vector<size_t> permutation;
  explicit Stream(uint64_t seed) : permutation(kBurstRows) {
    std::iota(permutation.begin(), permutation.end(), size_t{0});
    std::mt19937_64 rng(seed);
    std::shuffle(permutation.begin(), permutation.end(), rng);
  }
  std::vector<scorpion::Value> Row(size_t n) const {
    return StreamRow(n - n % kBurstRows + permutation[n % kBurstRows]);
  }
};

struct LiveSetup {
  std::unique_ptr<scorpion::LiveTable> live;
  std::unique_ptr<scorpion::ServiceStats> stats;
  std::unique_ptr<scorpion::Engine> engine;
  std::optional<scorpion::LiveDataset> dataset;
};

// A LiveTable holding the first `rows` stream rows, opened live and warmed
// with one explain per request (so every later Refresh leaves a delta seed).
scorpion::Status OpenLiveSetup(const Stream& stream, size_t rows,
                               LiveSetup* setup,
                               std::vector<double>* groupby_ms) {
  setup->live = std::make_unique<scorpion::LiveTable>(SensorSchema());
  for (size_t i = 0; i < rows; ++i) {
    SCORPION_RETURN_NOT_OK(setup->live->Append(stream.Row(i)));
  }
  setup->stats = std::make_unique<scorpion::ServiceStats>();
  scorpion::EngineOptions options;
  options.engine.num_threads = 1;
  setup->engine = std::make_unique<scorpion::Engine>(options);
  WallTimer open_timer;
  SCORPION_ASSIGN_OR_RETURN(
      scorpion::LiveDataset dataset,
      setup->engine->OpenLive(*setup->live, SensorQuery(), setup->stats.get()));
  if (groupby_ms != nullptr) groupby_ms->push_back(open_timer.ElapsedMillis());
  setup->dataset.emplace(std::move(dataset));
  SCORPION_RETURN_NOT_OK(
      setup->dataset->Explain(StreamRequest(kSweep[0])).status());
  return scorpion::Status::OK();
}

}  // namespace

void RunSensorLive(const Args& args, Tracer* tracer, Report* report) {
  const size_t initial_rows = args.quick ? 4 * kBurstRows : 65536;
  const size_t final_rows = args.quick ? 8 * kBurstRows : 262144;
  const Stream stream(args.seed);

  // --- Set-up, several times; the last one is kept. ------------------------
  std::vector<double> setup_s;
  std::vector<double> groupby_ms;
  auto setup = std::make_unique<LiveSetup>();
  for (int i = 0; i < kSetups; ++i) {
    setup = std::make_unique<LiveSetup>();
    WallTimer timer;
    PERFBENCH_RETURN_NOT_OK(
        OpenLiveSetup(stream, initial_rows, setup.get(), &groupby_ms), report);
    setup_s.push_back(timer.ElapsedSeconds());
  }
  report->metrics["setup_s"] = Median(setup_s);
  report->metrics["query.groupby_ms"] = Median(groupby_ms);

  // --- Growth cycles until the window is over. -----------------------------
  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<double> latencies_ms;   // e2e samples (untraced part)
  std::vector<double> traced_ms;      // the same, traced part
  // Refresh with its publish (untraced part) and after an explicit
  // LiveTable::Publish (traced part).
  std::vector<double> refresh_ms, traced_refresh_ms, publish_ms, extend_ms;
  std::vector<double> first_ms, warm_ms;
  std::vector<double> first_early_ms, first_late_ms;
  double rows_appended = 0.0;
  double append_seconds = 0.0;
  double refreshes = 0.0;
  double tail_rows_scanned = 0.0;
  double delta_refreshed = 0.0;
  std::vector<SplitCounters> counters;
  uint64_t request_id = 0;
  WallTimer window;
  while (true) {
    const bool traced_part =
        args.trace && window.ElapsedSeconds() >= untraced_seconds;
    Tracer* t = traced_part ? tracer : nullptr;
    std::vector<double>& samples = traced_part ? traced_ms : latencies_ms;
    std::optional<scorpion::ExplainResponse> last[3];
    size_t rows = setup->live->num_rows();
    size_t burst = 0;
    for (; rows < final_rows; ++burst) {
      ++request_id;
      WallTimer burst_timer;
      {
        Span append_span(t, "storage.append", request_id);
        WallTimer append_timer;
        for (size_t i = 0; i < kBurstRows; ++i, ++rows) {
          PERFBENCH_RETURN_NOT_OK(setup->live->Append(stream.Row(rows)),
                                  report);
        }
        append_seconds += append_timer.ElapsedSeconds();
        rows_appended += kBurstRows;
      }
      const std::shared_ptr<const scorpion::QueryResult> old_result =
          setup->dataset->result();
      if (traced_part) {
        // Publishing first makes the publish inside Refresh a no-op.
        WallTimer publish_timer;
        Span publish_span(t, "storage.publish", request_id);
        PERFBENCH_RETURN_NOT_OK(setup->live->Publish().status(), report);
        publish_ms.push_back(publish_timer.ElapsedMillis());
      }
      {
        WallTimer refresh_timer;
        Span refresh_span(t, "storage.refresh", request_id);
        PERFBENCH_RETURN_NOT_OK(setup->dataset->Refresh().status(), report);
        (traced_part ? traced_refresh_ms : refresh_ms)
            .push_back(refresh_timer.ElapsedMillis());
      }
      const scorpion::ServiceStatsSnapshot before = setup->stats->Snapshot(0);
      for (int k = 0; k < 3; ++k) {
        ++report->attempted;
        WallTimer explain_timer;
        Span explain_span(t, "api.explain", request_id);
        scorpion::Result<scorpion::ExplainResponse> response =
            setup->dataset->Explain(StreamRequest(kSweep[k]));
        if (!response.ok()) {
          ++report->failed;
          report->Fail("LiveDataset::Explain: " + response.status().ToString());
          return;
        }
        Span json_span(t, "api.response_json", request_id);
        const std::string json = response->ToJson();
        json_span.Close();
        explain_span.Close();
        const double explain_ms = explain_timer.ElapsedMillis();
        if (k == 0) {
          samples.push_back(burst_timer.ElapsedMillis());
          first_ms.push_back(explain_ms);
          const size_t bursts = (final_rows - initial_rows) / kBurstRows;
          (burst < bursts / 2 ? first_early_ms : first_late_ms)
              .push_back(explain_ms);
        } else {
          samples.push_back(explain_ms);
          warm_ms.push_back(explain_ms);
        }
        last[k] = std::move(*response);
      }
      const scorpion::ServiceStatsSnapshot after = setup->stats->Snapshot(0);
      refreshes += 1.0;
      tail_rows_scanned += static_cast<double>(after.tail_rows_scanned -
                                               before.tail_rows_scanned);
      delta_refreshed += static_cast<double>(after.sessions_delta_refreshed -
                                             before.sessions_delta_refreshed);
      if (traced_part) {
        // Replays the query-result extension Refresh just made, to time it.
        Span extend_span(t, "query.extend", request_id);
        WallTimer extend_timer;
        PERFBENCH_RETURN_NOT_OK(
            scorpion::ExtendQueryResult(*old_result,
                                        setup->dataset->snapshot()->table)
                .status(),
            report);
        extend_ms.push_back(extend_timer.ElapsedMillis());
      }
    }

    // --- Correctness gate: the live answers equal a cold Engine::Open +
    // Explain over the frozen snapshot. ------------------------------------
    const std::shared_ptr<const scorpion::TableSnapshot> snapshot =
        setup->dataset->snapshot();
    scorpion::EngineOptions cold_options;
    cold_options.engine.num_threads = 1;
    cold_options.cache_enabled = false;
    scorpion::Engine cold_engine(cold_options);
    PERFBENCH_ASSIGN_OR_FAIL(scorpion::Dataset cold,
                             cold_engine.Open(snapshot->table, SensorQuery()),
                             report);
    for (int k = 0; k < 3 && last[k].has_value(); ++k) {
      PERFBENCH_ASSIGN_OR_FAIL(scorpion::ExplainResponse want,
                               cold.Explain(StreamRequest(kSweep[k])), report);
      if (!SameAnswer(*last[k], want)) {
        ++report->failed;
        report->Fail("live explain differs from a cold explain of snapshot");
      }
      if (traced_part) {
        SplitCounters run;
        PERFBENCH_ASSIGN_OR_FAIL(
            scorpion::ExplainResponse split,
            SplitExplain(cold, cold_options.engine, StreamRequest(kSweep[k]),
                         tracer, ++request_id, &run),
            report);
        if (!SameAnswer(split, want)) {
          report->Fail("split explain differs from Dataset::Explain");
        }
        counters.push_back(run);
      }
    }
    if (window.ElapsedSeconds() >= args.seconds &&
        (!args.trace || traced_part)) {
      break;
    }
    // Next cycle from the initial size.
    setup = std::make_unique<LiveSetup>();
    PERFBENCH_RETURN_NOT_OK(
        OpenLiveSetup(stream, initial_rows, setup.get(), nullptr), report);
  }

  RecordLatencies(latencies_ms, report);
  report->Ratio("storage.append_rows_per_s", rows_appended, append_seconds);
  report->detail.Add(
      "ingest_rows_per_s",
      scorpion::JsonValue::Number(rows_appended / append_seconds));
  report->detail.Add("refresh_p50_ms",
                     scorpion::JsonValue::Number(Median(refresh_ms)));
  report->deterministic["storage.tail_rows_scanned"] =
      tail_rows_scanned / refreshes;
  if (!args.trace) return;

  RecordSplitCounters(counters, static_cast<double>(counters.size()), report);
  report->metrics["storage.tail_rows_scanned"] = tail_rows_scanned / refreshes;
  report->Ratio("storage.delta_refresh_share", delta_refreshed, refreshes);
  report->metrics["storage.publish_ms"] = Median(publish_ms);
  report->metrics["storage.refresh_p50_ms"] = Median(traced_refresh_ms);
  report->metrics["query.extend_ms"] = Median(extend_ms);
  report->metrics["storage.first_explain_p50_ms"] = Median(first_ms);
  report->metrics["storage.warm_explain_p50_ms"] = Median(warm_ms);
  report->Ratio("storage.explain_growth", Median(first_late_ms),
                Median(first_early_ms));
  report->metrics["api.response_json_ms"] =
      Median(tracer->Durations("api.response_json"));
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
