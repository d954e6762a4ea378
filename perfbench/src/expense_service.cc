// expense_service: the serving path. EXPENSE at ExpenseOptions defaults
// (120 days x 400 rows, 2,000 recipients), lambda = 0.8, behind the async
// service (2 workers, single-threaded scoring, session cache on).
//
// Open loop: one generator thread sends ExplainRequest JSON at a fixed
// rate. Each request flags the spike days and takes its hold-out set from a
// working set of 8 annotation sets (the size of a Dataset's session LRU).
// A set (5 hold-out days) serves 5 requests, sweeping c through its own
// order of {1.0, 0.7, 0.5, 0.3} and back to the first value, before a new
// set replaces it: 20% cold runs, 60% partition-cache hits and 20% exact-c
// result hits. A request is parsed (FromJson), submitted
// (Dataset::ExplainAsync), redeemed (Get) by a collector thread and
// serialized (ToJson); its latency runs from when it was due to be sent to
// when its response JSON exists. Four threads in all, on one CPU: the
// generator, two service workers and the collector.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <thread>

#include "api/dataset.h"
#include "bench.h"
#include "common/random.h"
#include "common/timer.h"
#include "split_explain.h"
#include "workload/expense.h"

namespace perfbench {

using scorpion::WallTimer;

namespace {

constexpr int kSetups = 9;
constexpr double kRequestsPerSecond = 10.0;
constexpr size_t kWorkingSets = 8;
// Requests an annotation set receives before a new set replaces it: one
// cold run, three partition-cache hits (the rest of its c sweep) and one
// exact-c result hit.
constexpr size_t kRequestsPerSet = 5;
constexpr int kHoldoutsPerSet = 5;
// Seed of the annotation-set pool (see MakeSchedule).
constexpr uint64_t kPoolSeed = 42;
// The run is invalid when the generator sends a request this late.
constexpr double kMaxGeneratorLagMs = 100.0;

struct ScheduledRequest {
  double due_s = 0.0;
  std::string json;
};

struct ExpenseSetup {
  std::unique_ptr<scorpion::ExpenseDataset> data;
  std::unique_ptr<scorpion::Engine> engine;
  std::optional<scorpion::Dataset> dataset;
  std::vector<ScheduledRequest> schedule;
};

struct Outcome {
  bool ok = false;
  std::string error;
  double latency_ms = 0.0;
  double lag_ms = 0.0;
  scorpion::ExplainResponse response;
  size_t json_bytes = 0;
};

// An annotation set: its hold-outs and the order it sweeps c in (the four
// values without replacement, then again from the first).
struct AnnotationSet {
  std::vector<std::string> holdouts;
  std::vector<double> cs = {1.0, 0.7, 0.5, 0.3};
  size_t next_c = 0;
};

// The request stream: evenly spaced arrivals and request JSON. Slots are
// visited round-robin; a slot's set is replaced every kRequestsPerSet
// visits, at staggered points, so cold runs are spread evenly over the
// stream. The set replaced is always the least recently used session of the
// Dataset's LRU, so no live set is evicted.
//
// The annotation sets (hold-outs and c order) come from a pool drawn with a
// constant seed, and the stream takes every set of the pool. --seed
// permutes the sets that serve a full kRequestsPerSet requests among
// themselves; the sets cut short (the first ones by the stagger, the last
// ones by the end of the run) keep their places. So every seed runs the same
// explains, in another order.
std::vector<ScheduledRequest> MakeSchedule(
    const scorpion::ExpenseDataset& data, const scorpion::QueryResult& result,
    uint64_t seed, double seconds) {
  std::vector<std::string> days;
  for (const scorpion::AggregateResult& r : result.results) {
    if (std::find(data.outlier_keys.begin(), data.outlier_keys.end(),
                  r.key_string) == data.outlier_keys.end()) {
      days.push_back(r.key_string);
    }
  }
  const size_t total = static_cast<size_t>(seconds * kRequestsPerSecond);
  std::vector<size_t> position(total);  // request -> the set it uses
  std::vector<size_t> served;           // set -> requests it serves
  std::vector<size_t> slot_position(kWorkingSets);
  for (size_t i = 0; i < total; ++i) {
    const size_t slot = i % kWorkingSets;
    if (i < kWorkingSets ||
        (i / kWorkingSets + slot) % kRequestsPerSet == 0) {
      slot_position[slot] = served.size();
      served.push_back(0);
    }
    position[i] = slot_position[slot];
    ++served[position[i]];
  }

  std::vector<AnnotationSet> pool(served.size());
  scorpion::Rng pool_rng(kPoolSeed);
  for (AnnotationSet& set : pool) {
    set.holdouts = days;
    for (int i = 0; i < kHoldoutsPerSet; ++i) {
      const size_t j = static_cast<size_t>(pool_rng.UniformInt(
          i, static_cast<int64_t>(set.holdouts.size()) - 1));
      std::swap(set.holdouts[static_cast<size_t>(i)], set.holdouts[j]);
    }
    set.holdouts.resize(kHoldoutsPerSet);
    for (size_t i = set.cs.size() - 1; i > 0; --i) {
      const size_t j = static_cast<size_t>(
          pool_rng.UniformInt(0, static_cast<int64_t>(i)));
      std::swap(set.cs[i], set.cs[j]);
    }
  }
  std::vector<size_t> full;
  for (size_t p = 0; p < served.size(); ++p) {
    if (served[p] == kRequestsPerSet) full.push_back(p);
  }
  std::vector<size_t> order = full;
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<AnnotationSet> sets = pool;
  for (size_t k = 0; k < full.size(); ++k) sets[full[k]] = pool[order[k]];

  std::vector<ScheduledRequest> schedule;
  for (size_t i = 0; i < total; ++i) {
    AnnotationSet& set = sets[position[i]];
    scorpion::ExplainRequest request;
    for (const std::string& key : data.outlier_keys) request.FlagTooHigh(key);
    request.Holdouts(set.holdouts)
        .WithAttributes(data.attributes)
        .WithLambda(0.8)
        .WithC(set.cs[set.next_c++ % set.cs.size()])
        .WithDeadlineAfter(30.0);
    schedule.push_back(
        {static_cast<double>(i) / kRequestsPerSecond, request.ToJson()});
  }
  return schedule;
}

// Blocking FIFO between the generator and the collector.
struct Handoff {
  struct Item {
    size_t index = 0;
    uint64_t request_id = 0;
    std::chrono::steady_clock::time_point due;
    scorpion::Result<scorpion::PendingExplanation> pending;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Item> items;
  bool closed = false;

  void Push(Item item) {
    {
      std::lock_guard<std::mutex> lock(mu);
      items.push_back(std::move(item));
    }
    cv.notify_one();
  }
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu);
      closed = true;
    }
    cv.notify_all();
  }
  std::optional<Item> Pop() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return closed || !items.empty(); });
    if (items.empty()) return std::nullopt;
    Item item = std::move(items.front());
    items.pop_front();
    return item;
  }
};

// Plays `schedule[begin, end)` against the dataset as an open loop, filling
// the matching slots of `outcomes`; spans go to `tracer` when it is not null.
void PlayOpenLoop(const scorpion::Dataset& dataset,
                  const std::vector<ScheduledRequest>& schedule, size_t begin,
                  size_t end, Tracer* tracer, std::vector<Outcome>* outcomes) {
  using Clock = std::chrono::steady_clock;
  Handoff handoff;
  auto collect = [&]() {
    while (std::optional<Handoff::Item> item = handoff.Pop()) {
      Outcome& out = (*outcomes)[item->index];
      if (!item->pending.ok()) {
        out.error = item->pending.status().ToString();
        continue;
      }
      Span get_span(tracer, "service.get", item->request_id);
      scorpion::Result<scorpion::ExplainResponse> response =
          item->pending->Get();
      get_span.Close();
      if (!response.ok()) {
        out.error = response.status().ToString();
        continue;
      }
      Span json_span(tracer, "api.response_json", item->request_id);
      const std::string json = response->ToJson();
      json_span.Close();
      out.latency_ms = std::chrono::duration<double, std::milli>(
                           Clock::now() - item->due)
                           .count();
      out.json_bytes = json.size();
      out.response = std::move(*response);
      out.ok = true;
    }
  };
  std::thread collector(collect);

  const Clock::time_point start = Clock::now();
  const double offset = begin < end ? schedule[begin].due_s : 0.0;
  for (size_t i = begin; i < end; ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(schedule[i].due_s - offset));
    std::this_thread::sleep_until(due);
    const uint64_t request_id = i + 1;
    (*outcomes)[i].lag_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - due).count();
    Span parse_span(tracer, "api.request_parse", request_id);
    scorpion::Result<scorpion::ExplainRequest> request =
        scorpion::ExplainRequest::FromJson(schedule[i].json);
    parse_span.Close();
    Handoff::Item item{i, request_id, due,
                       scorpion::Status::Internal("not submitted")};
    if (!request.ok()) {
      item.pending = request.status();
    } else {
      if (tracer != nullptr) {
        // ExplainAsync resolves internally; this extra Resolve times it.
        Span resolve_span(tracer, "api.resolve", request_id);
        (void)dataset.Resolve(*request);
      }
      Span submit_span(tracer, "service.submit", request_id);
      item.pending = dataset.ExplainAsync(*request);
    }
    handoff.Push(std::move(item));
  }
  handoff.Close();
  collector.join();
}

}  // namespace

void RunExpenseService(const Args& args, Tracer* tracer, Report* report) {
  // --- Set-up, several times; the last one is kept. ------------------------
  std::vector<double> setup_s;
  std::vector<double> groupby_ms;
  std::unique_ptr<ExpenseSetup> setup;
  for (int i = 0; i < kSetups; ++i) {
    setup.reset();
    WallTimer timer;
    auto next = std::make_unique<ExpenseSetup>();
    scorpion::ExpenseOptions options;
    if (args.quick) {
      options.num_days = 40;
      options.rows_per_day = 100;
      options.num_recipients = 300;
    }
    PERFBENCH_ASSIGN_OR_FAIL(scorpion::ExpenseDataset generated,
                             scorpion::GenerateExpense(options), report);
    next->data =
        std::make_unique<scorpion::ExpenseDataset>(std::move(generated));
    scorpion::EngineOptions engine_options;
    engine_options.engine.num_threads = 1;
    engine_options.num_workers = 2;
    next->engine = std::make_unique<scorpion::Engine>(engine_options);
    WallTimer open_timer;
    PERFBENCH_ASSIGN_OR_FAIL(
        scorpion::Dataset dataset,
        next->engine->Open(next->data->table, next->data->query), report);
    groupby_ms.push_back(open_timer.ElapsedMillis());
    next->dataset.emplace(std::move(dataset));
    next->schedule = MakeSchedule(*next->data, next->dataset->result(),
                                  args.seed, args.seconds);
    // Warm-up: starts the service's workers with a request whose hold-out
    // set the schedule cannot draw (no hold-outs at all).
    scorpion::ExplainRequest warm;
    for (const std::string& key : next->data->outlier_keys) {
      warm.FlagTooHigh(key);
    }
    warm.WithAttributes(next->data->attributes).WithLambda(0.8);
    PERFBENCH_ASSIGN_OR_FAIL(scorpion::PendingExplanation pending,
                             next->dataset->ExplainAsync(warm), report);
    PERFBENCH_RETURN_NOT_OK(pending.Get().status(), report);
    setup_s.push_back(timer.ElapsedSeconds());
    setup = std::move(next);
  }
  report->metrics["setup_s"] = Median(setup_s);
  report->metrics["query.groupby_ms"] = Median(groupby_ms);
  const scorpion::Dataset& dataset = *setup->dataset;
  const std::vector<ScheduledRequest>& schedule = setup->schedule;
  if (schedule.empty()) {
    report->Fail("empty request schedule");
    return;
  }

  // --- The open loop: all of it untraced, or untraced then traced halves. --
  std::vector<Outcome> outcomes(schedule.size());
  const size_t split = args.trace ? schedule.size() / 2 : schedule.size();
  const scorpion::ServiceStatsSnapshot before =
      setup->engine->service_stats();
  PlayOpenLoop(dataset, schedule, 0, split, /*tracer=*/nullptr, &outcomes);
  const scorpion::ServiceStatsSnapshot middle = setup->engine->service_stats();
  if (args.trace) {
    PlayOpenLoop(dataset, schedule, split, schedule.size(), tracer,
                 &outcomes);
  }
  const scorpion::ServiceStatsSnapshot after = setup->engine->service_stats();

  std::vector<double> latencies_ms;
  std::vector<double> traced_ms;
  double max_lag_ms = 0.0;
  report->attempted = schedule.size();
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& out = outcomes[i];
    max_lag_ms = std::max(max_lag_ms, out.lag_ms);
    if (!out.ok) {
      ++report->failed;
      report->Fail("request " + std::to_string(i) + ": " + out.error);
      continue;
    }
    (i < split ? latencies_ms : traced_ms).push_back(out.latency_ms);
  }
  RecordLatencies(latencies_ms, report);
  report->detail.Add("requests_per_s",
                     scorpion::JsonValue::Number(kRequestsPerSecond));
  report->detail.Add("generator_max_lag_ms",
                     scorpion::JsonValue::Number(max_lag_ms));
  if (max_lag_ms > kMaxGeneratorLagMs) {
    report->Fail("invalid run: the generator fell " +
                 std::to_string(max_lag_ms) + " ms behind its schedule");
  }

  // --- Correctness gate, outside the timed window: every response equals a
  // cache-off synchronous explain of the same request. In the traced run the
  // reference explains are split explains (spans on the cold path), and the
  // first one is also checked against Dataset::Explain. ---------------------
  scorpion::EngineOptions reference_options;
  reference_options.engine.num_threads = 1;
  reference_options.cache_enabled = false;
  scorpion::Engine reference_engine(reference_options);
  PERFBENCH_ASSIGN_OR_FAIL(
      scorpion::Dataset reference,
      reference_engine.Open(setup->data->table, setup->data->query), report);
  std::map<std::string, size_t> distinct;  // request JSON -> slot
  std::vector<const std::string*> keys;
  for (const ScheduledRequest& r : schedule) {
    if (distinct.emplace(r.json, keys.size()).second) keys.push_back(&r.json);
  }
  std::vector<scorpion::Result<scorpion::ExplainResponse>> expected(
      keys.size(), scorpion::Status::Internal("not run"));
  std::vector<SplitCounters> counters(keys.size());
  UnpinThisThread();  // the reference explains run four at a time
  {
    std::mutex next_mu;
    size_t next = 0;
    auto work = [&]() {
      while (true) {
        size_t slot;
        {
          std::lock_guard<std::mutex> lock(next_mu);
          if (next == keys.size()) return;
          slot = next++;
        }
        scorpion::Result<scorpion::ExplainRequest> request =
            scorpion::ExplainRequest::FromJson(*keys[slot]);
        if (!request.ok()) {
          expected[slot] = request.status();
          continue;
        }
        if (args.trace) {
          const uint64_t id = schedule.size() + 1 + slot;
          Span root(tracer, "api.explain", id);
          expected[slot] = SplitExplain(reference, reference_options.engine,
                                        *request, tracer, id,
                                        &counters[slot]);
        } else {
          expected[slot] = reference.Explain(*request);
        }
      }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) threads.emplace_back(work);
    for (std::thread& t : threads) t.join();
  }
  if (args.trace && expected[0].ok()) {
    scorpion::Result<scorpion::ExplainRequest> request =
        scorpion::ExplainRequest::FromJson(*keys[0]);
    scorpion::Result<scorpion::ExplainResponse> plain =
        reference.Explain(*request);
    if (!plain.ok() || !SameAnswer(*plain, *expected[0])) {
      report->Fail("split explain differs from Dataset::Explain");
    }
  }
  double predicate_scores = 0.0;
  double rows_filtered = 0.0;
  for (size_t slot = 0; slot < expected.size(); ++slot) {
    if (!expected[slot].ok()) {
      report->Fail("reference explain: " + expected[slot].status().ToString());
      return;
    }
    predicate_scores +=
        static_cast<double>(expected[slot]->stats.predicate_scores);
    rows_filtered += static_cast<double>(expected[slot]->stats.rows_filtered);
  }
  size_t mismatches = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].ok) continue;
    const scorpion::ExplainResponse& want =
        *expected[distinct.at(schedule[i].json)];
    if (!SameAnswer(outcomes[i].response, want)) ++mismatches;
  }
  if (mismatches > 0) {
    report->failed += mismatches;
    report->Fail(std::to_string(mismatches) +
                 " responses differ from a cache-off Dataset::Explain");
  }
  const double n_distinct = static_cast<double>(keys.size());
  report->deterministic["core.scorer.predicate_scores"] =
      predicate_scores / n_distinct;
  report->deterministic["core.scorer.rows_filtered"] =
      rows_filtered / n_distinct;
  report->detail.Add("distinct_requests",
                     scorpion::JsonValue::Number(n_distinct));

  if (!args.trace) return;

  // --- Per-layer numbers from the traced half and the split references. ---
  RecordSplitCounters(counters, static_cast<double>(counters.size()), report);
  std::vector<double> engine_ms, queue_ms, cold_ms, partition_ms, result_ms,
      bytes;
  for (size_t i = split; i < outcomes.size(); ++i) {
    const Outcome& out = outcomes[i];
    if (!out.ok) continue;
    const double run_ms = out.response.stats.runtime_seconds * 1e3;
    engine_ms.push_back(run_ms);
    queue_ms.push_back(out.latency_ms - run_ms);
    bytes.push_back(static_cast<double>(out.json_bytes));
    if (out.response.stats.cache_result_hit) {
      result_ms.push_back(run_ms);
    } else if (out.response.stats.cache_partitions_hit) {
      partition_ms.push_back(run_ms);
    } else {
      cold_ms.push_back(run_ms);
    }
  }
  report->metrics["service.engine_ms"] = Median(engine_ms);
  report->metrics["service.queue_wait_ms"] = Median(queue_ms);
  report->metrics["service.cold_p50_ms"] = Median(cold_ms);
  report->metrics["service.partition_hit_p50_ms"] = Median(partition_ms);
  report->metrics["service.result_hit_p50_ms"] = Median(result_ms);
  report->metrics["api.response_bytes"] = Median(bytes);
  report->metrics["service.generator_lag_ms"] = max_lag_ms;
  const double completed =
      static_cast<double>(after.completed - middle.completed);
  report->Ratio("service.cache_hit_share",
                static_cast<double>(after.cache_partition_hits -
                                    middle.cache_partition_hits +
                                    after.cache_result_hits -
                                    middle.cache_result_hits),
                completed);
  report->Ratio("service.result_hit_share",
                static_cast<double>(after.cache_result_hits -
                                    middle.cache_result_hits),
                completed);
  report->metrics["service.shed"] =
      static_cast<double>(after.shed - before.shed);
  report->metrics["service.deadline_expired"] =
      static_cast<double>(after.deadline_expired - before.deadline_expired);
  report->metrics["api.request_parse_ms"] =
      Median(tracer->Durations("api.request_parse"));
  report->metrics["api.resolve_ms"] = Median(tracer->Durations("api.resolve"));
  report->metrics["api.response_json_ms"] =
      Median(tracer->Durations("api.response_json"));
  report->metrics["core.merger.run_ms"] =
      Median(tracer->Durations("core.merger.run"));
  report->metrics["core.dt.run_ms"] = Median(tracer->Durations("core.dt.run"));
  report->metrics["core.scorer.make_ms"] =
      Median(tracer->Durations("core.scorer.make"));
  report->metrics["trace.overhead_ms"] =
      Median(traced_ms) - report->metrics["explain_p50_ms"];
}

}  // namespace perfbench
