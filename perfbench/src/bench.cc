#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "table/block_stats.h"

namespace perfbench {

void Report::Fail(const std::string& message) {
  correct = false;
  errors.push_back(message);
}

void Report::Ratio(const std::string& name, double numerator,
                   double denominator) {
  metrics[name] = denominator > 0.0 ? numerator / denominator : 0.0;
  scorpion::JsonValue parts = scorpion::JsonValue::Object();
  parts.Add("numerator", scorpion::JsonValue::Number(numerator));
  parts.Add("denominator", scorpion::JsonValue::Number(denominator));
  ratios.Add(name, std::move(parts));
}

void Report::Count(const std::string& name, double value) {
  metrics[name] = value;
  deterministic[name] = value;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"explain_p50_ms", "ms"},
      {"explain_tail_ms", "ms"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"core.merger.run_ms", "ms"},
      {"core.merger.exact_scores", "count"},
      {"core.merger.estimated_scores", "count"},
      {"core.merger.merges_accepted", "count"},
      {"core.merger.match_cache_scores", "count"},
      {"core.merger.accept_share", "share"},
      {"core.dt.run_ms", "ms"},
      {"core.dt.nodes", "count"},
      {"core.dt.leaves", "count"},
      {"core.mc.run_ms", "ms"},
      {"core.mc.predicates_scored", "count"},
      {"core.mc.predicates_pruned", "count"},
      {"core.scorer.make_ms", "ms"},
      {"core.scorer.predicate_scores", "count"},
      {"core.scorer.group_deltas", "count"},
      {"core.scorer.tuple_scores", "count"},
      {"core.scorer.incremental_share", "share"},
      {"core.scorer.rows_filtered", "count"},
      {"core.scorer.match_cache_hits", "count"},
      {"core.scorer.remote_match_fetches", "count"},
      {"predicate.filter_kernels", "count"},
      {"predicate.candidate_batches", "count"},
      {"predicate.blocks_shared_across_candidates", "count"},
      {"table.blocks_none", "count"},
      {"table.blocks_all", "count"},
      {"table.blocks_partial", "count"},
      {"table.prune_share", "share"},
      {"table.rows_skipped_by_pruning", "count"},
      {"table.selection_conversions", "count"},
      {"query.groupby_ms", "ms"},
      {"query.extend_ms", "ms"},
      {"api.request_parse_ms", "ms"},
      {"api.resolve_ms", "ms"},
      {"api.response_json_ms", "ms"},
      {"api.response_bytes", "bytes"},
      {"service.queue_wait_ms", "ms"},
      {"service.engine_ms", "ms"},
      {"service.cold_p50_ms", "ms"},
      {"service.partition_hit_p50_ms", "ms"},
      {"service.result_hit_p50_ms", "ms"},
      {"service.cache_hit_share", "share"},
      {"service.result_hit_share", "share"},
      {"service.shed", "count"},
      {"service.deadline_expired", "count"},
      {"service.generator_lag_ms", "ms"},
      {"storage.append_rows_per_s", "1/s"},
      {"storage.publish_ms", "ms"},
      {"storage.refresh_p50_ms", "ms"},
      {"storage.tail_rows_scanned", "count"},
      {"storage.delta_refresh_share", "share"},
      {"storage.first_explain_p50_ms", "ms"},
      {"storage.warm_explain_p50_ms", "ms"},
      {"storage.explain_growth", "ratio"},
      {"distributed.publish_ms", "ms"},
      {"distributed.local_explain_ms", "ms"},
      {"distributed.remote_over_local", "ratio"},
      {"distributed.shard_requests_per_explain", "count"},
      {"net.bytes_per_explain", "bytes"},
      {"distributed.workers_lost", "count"},
      {"distributed.ranges_redispatched", "count"},
      {"distributed.local_fallback_ranges", "count"},
      {"trace.overhead_ms", "ms"},
      {"trace.coverage", "ratio"},
  };
  return kMetrics;
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t rank = static_cast<size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(rank, samples.size() - 1)];
}

double Median(const std::vector<double>& samples) {
  return Quantile(samples, 0.5);
}

Tail TailOf(std::vector<double> samples) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  // Index n-11 has exactly ten samples above it; below 21 samples that is
  // not above the median, and the median stands in.
  if (n >= 21) {
    tail.value = samples[n - 11];
    tail.percentile =
        100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  } else {
    tail.value = Median(samples);
    tail.percentile = 50.0;
  }
  return tail;
}

void RecordLatencies(const std::vector<double>& latencies_ms,
                     Report* report) {
  report->metrics["explain_p50_ms"] = Median(latencies_ms);
  const Tail tail = TailOf(latencies_ms);
  report->metrics["explain_tail_ms"] = tail.value;
  report->detail.Add("explain_samples", scorpion::JsonValue::Number(
                                            static_cast<double>(tail.samples)));
  report->detail.Add("explain_tail_percentile",
                     scorpion::JsonValue::Number(tail.percentile));
}

scorpion::Result<std::unique_ptr<scorpion::Table>> ShuffledRows(
    const scorpion::Table& table, uint64_t seed) {
  scorpion::RowIdList rows(table.num_rows());
  std::iota(rows.begin(), rows.end(), scorpion::RowId{0});
  std::mt19937_64 rng(seed);
  for (size_t begin = 0; begin < rows.size(); begin += scorpion::kBlockSize) {
    const size_t end = std::min(rows.size(), begin + scorpion::kBlockSize);
    std::shuffle(rows.begin() + static_cast<ptrdiff_t>(begin),
                 rows.begin() + static_cast<ptrdiff_t>(end), rng);
  }
  SCORPION_ASSIGN_OR_RETURN(scorpion::Table shuffled, table.TakeRows(rows));
  return std::make_unique<scorpion::Table>(std::move(shuffled));
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {
// The CPUs the process could run on before PinToOneCpu.
cpu_set_t g_allowed_cpus;
bool g_pinned = false;
}  // namespace

int PinToOneCpu() {
  CPU_ZERO(&g_allowed_cpus);
  if (sched_getaffinity(0, sizeof(g_allowed_cpus), &g_allowed_cpus) != 0) {
    return -1;
  }
  g_pinned = true;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &g_allowed_cpus)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

void UnpinThisThread() {
  if (g_pinned) sched_setaffinity(0, sizeof(g_allowed_cpus), &g_allowed_cpus);
}

}  // namespace perfbench
