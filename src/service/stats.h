// Per-service counters and latency tracking for the ExplanationService,
// consumed by tests and bench_service_throughput.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/atomic_counter.h"
#include "common/failpoint.h"
#include "common/mutex.h"

namespace scorpion {

/// \brief Point-in-time view of the service's traffic.
struct ServiceStatsSnapshot {
  uint64_t submitted = 0;          // accepted into the queue
  uint64_t completed = 0;          // future fulfilled with an Explanation
  uint64_t failed = 0;             // engine returned an error Status
  uint64_t shed = 0;               // rejected/evicted on admission (queue full)
  uint64_t cancelled = 0;          // removed via Cancel() or shutdown
  uint64_t deadline_expired = 0;   // deadline passed before the run started
  uint64_t cache_partition_hits = 0;  // runs served DT partitions from cache
  uint64_t cache_result_hits = 0;     // runs served the full merged result
  // Zone-map pruning totals summed over completed runs' ScorerStats (which
  // are exact per run — each run's scorer owns its counter sink): blocks
  // answered from statistics alone (NONE skipped + ALL word-filled) and
  // the rows whose column data was never read.
  uint64_t blocks_pruned = 0;
  uint64_t rows_skipped_by_pruning = 0;
  // Distributed data plane (src/distributed/): workers declared dead
  // (missed heartbeats or exhausted request retries), lost workers
  // readmitted by the heartbeat thread's re-probe loop after a successful
  // ping + catalog re-publication, block ranges re-dispatched to surviving
  // workers after a failure, and total frame bytes (headers included)
  // exchanged with workers.
  uint64_t workers_lost = 0;
  uint64_t workers_recovered = 0;
  uint64_t ranges_redispatched = 0;
  uint64_t bytes_on_wire = 0;
  // Process-wide fault-injection fires (common/failpoint.h), sampled from
  // the registry at Snapshot() time. Always 0 in a default build — CI
  // gates on it.
  uint64_t failpoints_tripped = 0;
  // Live-table ingest plane (src/storage/): generations published through
  // LiveDataset::Refresh. No match set is extended over appended rows, so
  // sessions_delta_refreshed and tail_rows_scanned always read 0; they stay
  // for readers of the snapshot (perfbench's sensor_live).
  uint64_t snapshot_generations_published = 0;
  uint64_t sessions_delta_refreshed = 0;
  uint64_t tail_rows_scanned = 0;
  size_t queue_depth = 0;          // requests waiting right now
  double p50_latency_seconds = 0.0;  // submit-to-completion, completed only
  double p95_latency_seconds = 0.0;

  /// Fraction of completed runs that reused session state (either layer).
  double CacheHitRate() const {
    return completed == 0
               ? 0.0
               : static_cast<double>(cache_partition_hits + cache_result_hits) /
                     static_cast<double>(completed);
  }
};

/// \brief Mutable counters updated by the service's producer and worker
/// threads; Snapshot() assembles the exported view.
class ServiceStats {
 public:
  RelaxedCounter submitted;
  RelaxedCounter completed;
  RelaxedCounter failed;
  RelaxedCounter shed;
  RelaxedCounter cancelled;
  RelaxedCounter deadline_expired;
  RelaxedCounter cache_partition_hits;
  RelaxedCounter cache_result_hits;
  RelaxedCounter blocks_pruned;
  RelaxedCounter rows_skipped_by_pruning;
  RelaxedCounter workers_lost;
  RelaxedCounter workers_recovered;
  RelaxedCounter ranges_redispatched;
  RelaxedCounter bytes_on_wire;
  RelaxedCounter snapshot_generations_published;
  RelaxedCounter sessions_delta_refreshed;
  RelaxedCounter tail_rows_scanned;

  /// Records one completed request's submit-to-completion latency. Samples
  /// live in a fixed-size ring, so quantiles cover the most recent
  /// kMaxLatencySamples completions and memory stays bounded on
  /// long-running services.
  void RecordLatency(double seconds) {
    MutexLock lock(mu_);
    if (latencies_.size() < kMaxLatencySamples) {
      latencies_.push_back(seconds);
    } else {
      latencies_[write_pos_] = seconds;
      write_pos_ = (write_pos_ + 1) % kMaxLatencySamples;
    }
  }

  ServiceStatsSnapshot Snapshot(size_t queue_depth) const {
    ServiceStatsSnapshot snap;
    snap.submitted = submitted.load();
    snap.completed = completed.load();
    snap.failed = failed.load();
    snap.shed = shed.load();
    snap.cancelled = cancelled.load();
    snap.deadline_expired = deadline_expired.load();
    snap.cache_partition_hits = cache_partition_hits.load();
    snap.cache_result_hits = cache_result_hits.load();
    snap.blocks_pruned = blocks_pruned.load();
    snap.rows_skipped_by_pruning = rows_skipped_by_pruning.load();
    snap.workers_lost = workers_lost.load();
    snap.workers_recovered = workers_recovered.load();
    snap.ranges_redispatched = ranges_redispatched.load();
    snap.failpoints_tripped = failpoints::TotalTripped();
    snap.bytes_on_wire = bytes_on_wire.load();
    snap.snapshot_generations_published =
        snapshot_generations_published.load();
    snap.sessions_delta_refreshed = sessions_delta_refreshed.load();
    snap.tail_rows_scanned = tail_rows_scanned.load();
    snap.queue_depth = queue_depth;
    std::vector<double> sorted;
    {
      MutexLock lock(mu_);
      sorted = latencies_;
    }
    std::sort(sorted.begin(), sorted.end());
    snap.p50_latency_seconds = QuantileOfSorted(sorted, 0.50);
    snap.p95_latency_seconds = QuantileOfSorted(sorted, 0.95);
    return snap;
  }

 private:
  static constexpr size_t kMaxLatencySamples = 4096;

  /// Nearest-rank quantile of an ascending-sorted sample.
  static double QuantileOfSorted(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size()));
    return sorted[std::min(rank, sorted.size() - 1)];
  }

  mutable Mutex mu_;
  std::vector<double> latencies_ SCORPION_GUARDED_BY(mu_);
  size_t write_pos_ SCORPION_GUARDED_BY(mu_) = 0;
};

}  // namespace scorpion
