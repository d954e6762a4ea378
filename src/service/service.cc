#include "service/service.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "common/failpoint.h"

namespace scorpion {

namespace {

/// Session key: everything that fixes the DT partitioning and the merge
/// inputs except c — the identity of the (borrowed) table and query result,
/// then the shared annotation serialization (see AppendAnnotationKey). Jobs
/// agreeing on this key can share cached partitions at any c.
std::string ProblemKey(const Job& job) {
  std::string key;
  char head[64];
  std::snprintf(head, sizeof(head), "%p|%p|",
                static_cast<const void*>(job.table),
                static_cast<const void*>(job.query_result));
  key += head;
  AppendAnnotationKey(job.problem, job.algorithm, &key);
  return key;
}

}  // namespace

ExplanationService::ExplanationService(ServiceOptions options)
    : options_(std::move(options)),
      scheduler_(SchedulerOptions{options_.max_queue_depth}) {
  if (options_.num_workers < 0) options_.num_workers = 0;
  if (options_.session_cache_capacity == 0) options_.session_cache_capacity = 1;
  int scoring_threads = options_.engine.num_threads;
  if (scoring_threads == 0) scoring_threads = ThreadPool::DefaultNumThreads();
  if (scoring_threads > 1) {
    scoring_pool_ = std::make_unique<ThreadPool>(scoring_threads);
  }
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ExplanationService::~ExplanationService() { Shutdown(); }

Response ExplanationService::Submit(Job job) {
  Response response;
  response.id = next_id_.fetch_add(1, std::memory_order_relaxed);

  ScheduledJob item;
  item.id = response.id;
  item.enqueue_time = Job::Clock::now();
  item.job = std::move(job);
  response.future = item.promise.get_future();

  // Fail fast before the job occupies queue space.
  if (item.job.table == nullptr || item.job.query_result == nullptr) {
    ++stats_.failed;
    item.promise.set_value(
        Status::InvalidArgument("job needs a table and a query result"));
    return response;
  }
  Status valid = item.job.problem.Validate(*item.job.query_result);
  if (!valid.ok()) {
    ++stats_.failed;
    item.promise.set_value(std::move(valid));
    return response;
  }

  // Fault injection at the admission boundary: an injected error rejects
  // the job cleanly (promise fulfilled, counted as failed) exactly like a
  // validation failure; a sleep simulates a slow producer.
  SCORPION_FAILPOINT_HIT("service.enqueue", fp_hit);
  if (fp_hit.fired()) {
    ++stats_.failed;
    item.promise.set_value(
        fp_hit.kind == FailpointHit::Kind::kStatus
            ? fp_hit.status
            : Status::Unavailable("failpoint 'service.enqueue' injected"));
    return response;
  }

  switch (scheduler_.Enqueue(std::move(item))) {
    case AdmissionResult::kAdmitted:
      ++stats_.submitted;
      break;
    case AdmissionResult::kAdmittedEvictedWorst:
      ++stats_.submitted;
      ++stats_.shed;
      break;
    case AdmissionResult::kShed:
      ++stats_.shed;
      break;
    case AdmissionResult::kShutdown:
      ++stats_.cancelled;
      break;
  }
  return response;
}

std::vector<Response> ExplanationService::SubmitBatch(std::vector<Job> jobs) {
  // Stable-group by session key so each key's first job computes the shared
  // state (DT partitions) and the rest of its group arrives while it is
  // fresh; responses keep the input order.
  std::vector<std::vector<size_t>> groups;
  std::unordered_map<std::string, size_t> group_of_key;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const std::string key = ProblemKey(jobs[i]);
    auto [it, inserted] = group_of_key.emplace(key, groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(i);
  }

  std::vector<Response> responses(jobs.size());
  for (const std::vector<size_t>& group : groups) {
    for (size_t i : group) {
      responses[i] = Submit(std::move(jobs[i]));
    }
  }
  return responses;
}

void ExplanationService::InvalidateSessions() {
  WriterMutexLock lock(sessions_mu_);
  sessions_.clear();
}

bool ExplanationService::Cancel(uint64_t id) {
  if (scheduler_.Cancel(id)) {
    ++stats_.cancelled;
    return true;
  }
  return false;
}

void ExplanationService::Shutdown() {
  MutexLock lock(shutdown_mu_);
  if (shutdown_) return;
  stats_.cancelled += scheduler_.Shutdown();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  shutdown_ = true;
}

ServiceStatsSnapshot ExplanationService::stats() const {
  return stats_.Snapshot(scheduler_.depth());
}

std::shared_ptr<ExplainSession> ExplanationService::SessionFor(
    const std::string& key) {
  const uint64_t stamp = use_clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  {
    ReaderMutexLock lock(sessions_mu_);
    // Const view: the shared lock permits reads only, and the analysis
    // treats non-const map calls as writes. The entries themselves are
    // behind shared_ptr and their recency stamp is atomic, so refreshing it
    // under the shared lock is safe.
    const auto& sessions = sessions_;
    auto it = sessions.find(key);
    if (it != sessions.end()) {
      it->second->last_used.store(stamp, std::memory_order_relaxed);
      return it->second->session;
    }
  }
  WriterMutexLock lock(sessions_mu_);
  auto it = sessions_.find(key);
  if (it != sessions_.end()) {
    it->second->last_used.store(stamp, std::memory_order_relaxed);
    return it->second->session;
  }
  if (sessions_.size() >= options_.session_cache_capacity) {
    // Evict the least-recently-used key. Jobs already holding the session
    // keep it alive through their shared_ptr.
    auto victim = sessions_.begin();
    for (auto cand = sessions_.begin(); cand != sessions_.end(); ++cand) {
      if (cand->second->last_used.load(std::memory_order_relaxed) <
          victim->second->last_used.load(std::memory_order_relaxed)) {
        victim = cand;
      }
    }
    sessions_.erase(victim);
  }
  auto entry = std::make_shared<SessionEntry>();
  entry->last_used.store(stamp, std::memory_order_relaxed);
  std::shared_ptr<ExplainSession> session = entry->session;
  sessions_.emplace(key, std::move(entry));
  return session;
}

void ExplanationService::WorkerLoop() {
  ScheduledJob item;
  while (scheduler_.Pop(&item)) {
    Execute(std::move(item));
  }
}

void ExplanationService::Execute(ScheduledJob item) {
  const Job& job = item.job;
  // Sits just before the deadline gate so a `sleep` action creates real
  // deadline pressure (the check below then expires the job) and an
  // injected error fails the run cleanly through its promise.
  SCORPION_FAILPOINT_HIT("service.deadline_check", fp_hit);
  if (fp_hit.kind == FailpointHit::Kind::kStatus) {
    ++stats_.failed;
    item.promise.set_value(fp_hit.status);
    return;
  }
  if (job.deadline != Job::kNoDeadline &&
      Job::Clock::now() >= job.deadline) {
    ++stats_.deadline_expired;
    item.promise.set_value(
        Status::DeadlineExceeded("deadline passed before the job ran"));
    return;
  }

  ScorpionOptions engine_options = options_.engine;
  engine_options.algorithm = job.algorithm;
  if (job.top_k > 0) engine_options.top_k = job.top_k;
  if (job.match_source != nullptr) {
    engine_options.match_source = job.match_source;
  }
  Scorpion engine(engine_options);
  engine.set_thread_pool(scoring_pool_.get());

  Result<Explanation> result = [&]() -> Result<Explanation> {
    // A caller-pinned session always wins (api::Dataset shares one session
    // between its sync and async paths); otherwise DT jobs go through the
    // keyed cache. ExplainShared ignores the session for non-DT algorithms.
    if (job.session != nullptr) {
      return engine.ExplainShared(*job.table, *job.query_result, job.problem,
                                  job.session.get(),
                                  options_.cross_c_warm_start);
    }
    if (options_.cache_enabled && job.algorithm == Algorithm::kDT) {
      std::shared_ptr<ExplainSession> session = SessionFor(ProblemKey(job));
      return engine.ExplainShared(*job.table, *job.query_result, job.problem,
                                  session.get(), options_.cross_c_warm_start);
    }
    return engine.Explain(*job.table, *job.query_result, job.problem);
  }();

  if (result.ok()) {
    ++stats_.completed;
    if (result->cache_partitions_hit) ++stats_.cache_partition_hits;
    if (result->cache_result_hit) ++stats_.cache_result_hits;
    stats_.blocks_pruned += result->scorer_stats.blocks_pruned_none.load() +
                            result->scorer_stats.blocks_pruned_all.load();
    stats_.rows_skipped_by_pruning +=
        result->scorer_stats.rows_skipped_by_pruning.load();
    stats_.RecordLatency(std::chrono::duration<double>(
                             Job::Clock::now() - item.enqueue_time)
                             .count());
  } else {
    ++stats_.failed;
  }
  item.promise.set_value(std::move(result));
}

}  // namespace scorpion
