#include "api/dataset.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "core/scorer.h"

namespace scorpion {

namespace {

/// Everything that fixes an ExplainSession's validity except c: the shared
/// annotation serialization (core/problem.h). The table and query result
/// are fixed per Dataset, so unlike the service's ProblemKey no identity
/// prefix is needed. Requests agreeing on this key share cached DT
/// partitions at any c; requests differing in it must NOT share a session —
/// an exact-c hit would hand one problem the other's results.
std::string AnnotationKey(const ProblemSpec& problem, Algorithm algorithm) {
  std::string key;
  AppendAnnotationKey(problem, algorithm, &key);
  return key;
}

/// Assembles the public response from an engine Explanation: ranked
/// predicates with display strings, the per-result what-if view for the
/// winning predicate, and stats. Free-standing so PendingExplanation can
/// build responses without the (possibly moved-from) Dataset.
Result<ExplainResponse> BuildResponse(const Table& table,
                                      const QueryResult& result,
                                      const ProblemSpec& problem,
                                      bool with_what_if,
                                      bool enable_block_pruning,
                                      ThreadPool* pool,
                                      Explanation explanation) {
  ExplainResponse response;
  response.algorithm = explanation.algorithm;
  response.predicates.reserve(explanation.predicates.size());
  for (const ScoredPredicate& sp : explanation.predicates) {
    RankedPredicate rp;
    rp.pred = sp.pred;
    rp.influence = sp.influence;
    rp.display = sp.pred.ToString(&table);
    response.predicates.push_back(std::move(rp));
  }
  response.checkpoints.reserve(explanation.naive_checkpoints.size());
  for (const NaiveCheckpoint& cp : explanation.naive_checkpoints) {
    CheckpointEntry entry;
    entry.elapsed_seconds = cp.elapsed_seconds;
    entry.influence = cp.influence;
    entry.pred = cp.pred;
    response.checkpoints.push_back(std::move(entry));
  }
  response.naive_exhausted = explanation.naive_exhausted;
  response.stats.runtime_seconds = explanation.runtime_seconds;
  response.stats.cache_partitions_hit = explanation.cache_partitions_hit;
  response.stats.cache_result_hit = explanation.cache_result_hit;
  response.stats.predicate_scores = explanation.scorer_stats.predicate_scores;
  response.stats.group_deltas = explanation.scorer_stats.group_deltas;
  response.stats.tuple_scores = explanation.scorer_stats.tuple_scores;
  response.stats.rows_filtered = explanation.scorer_stats.rows_filtered;
  response.stats.match_cache_hits =
      explanation.scorer_stats.match_cache_hits;

  // The built-in what-if view (Figure 2's click-through): every result
  // group's value with the winning predicate's tuples deleted. Costs one
  // pass over the table, so requests can opt out (WithWhatIf(false)).
  if (with_what_if && !response.predicates.empty()) {
    SCORPION_ASSIGN_OR_RETURN(Scorer scorer,
                              Scorer::Make(table, result, problem));
    // The what-if bind follows the engine's data-plane configuration
    // (ScorpionOptions::enable_block_pruning, shared scoring pool) like
    // every scorer-internal bind, and reports pruning counters into this
    // scorer's sink rather than the process-global one.
    scorer.set_enable_block_pruning(enable_block_pruning);
    scorer.set_thread_pool(pool);
    const Predicate& best = response.predicates.front().pred;
    SCORPION_ASSIGN_OR_RETURN(BoundPredicate bound, best.Bind(table));
    scorer.ConfigureBound(&bound);
    response.what_if.reserve(result.results.size());
    for (int i = 0; i < static_cast<int>(result.results.size()); ++i) {
      const AggregateResult& r = result.results[i];
      SCORPION_ASSIGN_OR_RETURN(Selection matched,
                                bound.Filter(r.input_group));
      WhatIfEntry entry;
      entry.key = r.key_string;
      entry.original = r.value;
      entry.updated = scorer.UpdatedValue(i, matched);
      entry.tuples_removed = matched.size();
      entry.is_outlier =
          std::find(problem.outliers.begin(), problem.outliers.end(), i) !=
          problem.outliers.end();
      entry.is_holdout =
          std::find(problem.holdouts.begin(), problem.holdouts.end(), i) !=
          problem.holdouts.end();
      response.what_if.push_back(std::move(entry));
    }
  }
  return response;
}

}  // namespace

// --- Engine ------------------------------------------------------------------

Engine::Engine(EngineOptions options) : options_(std::move(options)) {
  int scoring_threads = options_.engine.num_threads;
  if (scoring_threads == 0) scoring_threads = ThreadPool::DefaultNumThreads();
  if (scoring_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(scoring_threads);
  }
}

Engine::~Engine() = default;

Result<Dataset> Engine::Open(const Table& table, GroupByQuery query) {
  SCORPION_ASSIGN_OR_RETURN(QueryResult result,
                            ExecuteGroupBy(table, query));
  return Dataset(this, &table,
                 std::make_shared<QueryResult>(std::move(result)));
}

Result<LiveDataset> Engine::OpenLive(LiveTable& live, GroupByQuery query,
                                     ServiceStats* service_stats) {
  SCORPION_ASSIGN_OR_RETURN(std::shared_ptr<const TableSnapshot> snap,
                            live.Publish());
  SCORPION_ASSIGN_OR_RETURN(QueryResult result,
                            ExecuteGroupBy(snap->table, query));
  if (service_stats != nullptr) {
    ++service_stats->snapshot_generations_published;
  }
  return LiveDataset(
      this, &live, service_stats, std::move(snap),
      std::make_shared<const QueryResult>(std::move(result)));
}

bool Engine::Cancel(uint64_t id) {
  MutexLock lock(service_mu_);
  if (service_ == nullptr) return false;
  return service_->Cancel(id);
}

ServiceStatsSnapshot Engine::service_stats() const {
  MutexLock lock(service_mu_);
  if (service_ == nullptr) return ServiceStatsSnapshot{};
  return service_->stats();
}

ExplanationService& Engine::service() {
  MutexLock lock(service_mu_);
  if (service_ == nullptr) {
    ServiceOptions service_options;
    service_options.engine = options_.engine;
    service_options.num_workers = options_.num_workers;
    service_options.max_queue_depth = options_.max_queue_depth;
    service_options.cache_enabled = options_.cache_enabled;
    service_options.cross_c_warm_start = options_.cross_c_warm_start;
    service_ = std::make_unique<ExplanationService>(service_options);
  }
  return *service_;
}

// --- Dataset -----------------------------------------------------------------

/// Keyed session store: one internally synchronized ExplainSession per
/// annotation set, LRU-bounded so a client cycling through annotation sets
/// cannot grow a dataset without bound. Shared between Dataset and
/// LiveDataset (a live dataset's sessions must survive Refresh — they
/// carry the delta seeds).
struct Dataset::SessionStore {
  struct Entry {
    std::shared_ptr<ExplainSession> session;
    uint64_t last_used = 0;
  };

  static constexpr size_t kMaxSessions = 8;

  Mutex mu;
  uint64_t clock SCORPION_GUARDED_BY(mu) = 0;
  std::map<std::string, Entry> sessions SCORPION_GUARDED_BY(mu);

  /// The session for one annotation set (created on first use, LRU
  /// eviction past kMaxSessions). Returns nullptr when caching is off or
  /// the algorithm ignores sessions.
  static std::shared_ptr<ExplainSession> Acquire(SessionStore& store,
                                                 bool cache_enabled,
                                                 const ProblemSpec& problem,
                                                 Algorithm algorithm);
};

std::shared_ptr<ExplainSession> Dataset::SessionStore::Acquire(
    SessionStore& store, bool cache_enabled, const ProblemSpec& problem,
    Algorithm algorithm) {
  if (!cache_enabled) return nullptr;
  // Only DT consults a session (Scorpion::Run's other branches ignore it);
  // storing entries for NAIVE/MC would let useless keys evict live DT ones.
  if (algorithm != Algorithm::kDT) return nullptr;
  const std::string key = AnnotationKey(problem, algorithm);
  MutexLock lock(store.mu);
  SessionStore::Entry& entry = store.sessions[key];
  if (entry.session == nullptr) {
    entry.session = std::make_shared<ExplainSession>();
    if (store.sessions.size() > SessionStore::kMaxSessions) {
      // Evict the least-recently-used *other* key (map nodes are stable, so
      // `entry` survives); in-flight jobs keep an evicted session alive
      // through their shared_ptr.
      auto victim = store.sessions.end();
      for (auto it = store.sessions.begin(); it != store.sessions.end();
           ++it) {
        if (it->first == key) continue;
        if (victim == store.sessions.end() ||
            it->second.last_used < victim->second.last_used) {
          victim = it;
        }
      }
      if (victim != store.sessions.end()) {
        store.sessions.erase(victim);
      }
    }
  }
  entry.last_used = ++store.clock;
  return entry.session;
}

Dataset::Dataset(Engine* engine, const Table* table,
                 std::shared_ptr<QueryResult> result)
    : engine_(engine),
      table_(table),
      result_(std::move(result)),
      sessions_(std::make_unique<SessionStore>()) {}

Dataset::Dataset(Dataset&&) noexcept = default;
Dataset& Dataset::operator=(Dataset&&) noexcept = default;
Dataset::~Dataset() = default;

Result<ProblemSpec> Dataset::Resolve(const ExplainRequest& request) const {
  return request.Resolve(*result_);
}

void Dataset::ClearCache() {
  MutexLock lock(sessions_->mu);
  for (auto& [key, entry] : sessions_->sessions) entry.session->Clear();
}

std::shared_ptr<ExplainSession> Dataset::SessionFor(
    const ProblemSpec& problem, Algorithm algorithm) const {
  return SessionStore::Acquire(*sessions_, engine_->options().cache_enabled,
                               problem, algorithm);
}

Result<ExplainResponse> Dataset::Explain(const ExplainRequest& request) const {
  SCORPION_ASSIGN_OR_RETURN(ProblemSpec problem, Resolve(request));

  ScorpionOptions engine_options = engine_->options().engine;
  engine_options.algorithm = request.algorithm();
  if (request.top_k() > 0) engine_options.top_k = request.top_k();
  Scorpion engine(engine_options);
  engine.set_thread_pool(engine_->scoring_pool());

  std::shared_ptr<ExplainSession> session =
      SessionFor(problem, request.algorithm());
  Result<Explanation> explanation =
      session != nullptr
          ? engine.ExplainShared(*table_, *result_, problem, session.get(),
                                 engine_->options().cross_c_warm_start)
          : engine.Explain(*table_, *result_, problem);
  if (!explanation.ok()) return explanation.status();
  return BuildResponse(*table_, *result_, problem, request.what_if(),
                       engine_options.enable_block_pruning,
                       engine_->scoring_pool(), std::move(*explanation));
}

Result<PendingExplanation> Dataset::ExplainAsync(
    const ExplainRequest& request) const {
  SCORPION_ASSIGN_OR_RETURN(ProblemSpec problem, Resolve(request));

  Job job;
  job.table = table_;
  job.query_result = result_.get();
  job.query_result_owner = result_;  // outlives dropped handles + Dataset
  job.problem = problem;
  job.algorithm = request.algorithm();
  job.top_k = request.top_k();
  job.priority = request.priority();
  if (request.deadline_seconds().has_value()) {
    SCORPION_RETURN_NOT_OK(
        job.set_deadline_after(*request.deadline_seconds()));
  }
  job.session = SessionFor(problem, request.algorithm());

  Response response = engine_->service().Submit(std::move(job));
  return PendingExplanation(
      table_, result_, std::move(problem), request.what_if(),
      engine_->options().engine.enable_block_pruning,
      engine_->scoring_pool(), std::move(response));
}

// --- LiveDataset -------------------------------------------------------------

/// The pinned (snapshot, result) pair. The lock covers only pointer
/// copies/swaps — a reader pins both under the shared lock and runs its
/// whole explain unlocked against the refcounted copies, so Refresh never
/// waits on an in-flight run (and vice versa). refresh_mu serializes
/// concurrent Refresh callers so generations advance one at a time.
struct LiveDataset::State {
  mutable SharedMutex mu;
  std::shared_ptr<const TableSnapshot> snap SCORPION_GUARDED_BY(mu);
  std::shared_ptr<const QueryResult> result SCORPION_GUARDED_BY(mu);
  Mutex refresh_mu;
};

LiveDataset::LiveDataset(Engine* engine, LiveTable* live,
                         ServiceStats* service_stats,
                         std::shared_ptr<const TableSnapshot> snap,
                         std::shared_ptr<const QueryResult> result)
    : engine_(engine),
      live_(live),
      service_stats_(service_stats),
      state_(std::make_unique<State>()),
      sessions_(std::make_unique<Dataset::SessionStore>()) {
  state_->snap = std::move(snap);
  state_->result = std::move(result);
}

LiveDataset::LiveDataset(LiveDataset&&) noexcept = default;
LiveDataset& LiveDataset::operator=(LiveDataset&&) noexcept = default;
LiveDataset::~LiveDataset() = default;

uint64_t LiveDataset::generation() const {
  ReaderMutexLock lock(state_->mu);
  return state_->snap->generation;
}

std::shared_ptr<const TableSnapshot> LiveDataset::snapshot() const {
  ReaderMutexLock lock(state_->mu);
  return state_->snap;
}

std::shared_ptr<const QueryResult> LiveDataset::result() const {
  ReaderMutexLock lock(state_->mu);
  return state_->result;
}

void LiveDataset::ClearCache() {
  MutexLock lock(sessions_->mu);
  for (auto& [key, entry] : sessions_->sessions) entry.session->Clear();
}

Result<uint64_t> LiveDataset::Refresh() {
  SCORPION_FAILPOINT("storage.live_refresh");
  MutexLock refresh_lock(state_->refresh_mu);
  SCORPION_ASSIGN_OR_RETURN(std::shared_ptr<const TableSnapshot> snap,
                            live_->Publish());
  std::shared_ptr<const TableSnapshot> old_snap;
  std::shared_ptr<const QueryResult> old_result;
  {
    ReaderMutexLock lock(state_->mu);
    old_snap = state_->snap;
    old_result = state_->result;
  }
  if (snap->generation == old_snap->generation) return snap->generation;

  // Extend the query result over only the delta rows (the frozen prefix is
  // encoding-identical between generations, so old groups keep their row
  // lists and untouched aggregates verbatim).
  SCORPION_ASSIGN_OR_RETURN(QueryResult extended,
                            ExtendQueryResult(*old_result, snap->table));
  auto new_result = std::make_shared<const QueryResult>(std::move(extended));

  // Re-key every session before the swap: from this point an in-flight run
  // on the old generation can no longer store into (or read from) these
  // sessions.
  {
    MutexLock lock(sessions_->mu);
    for (auto& [key, entry] : sessions_->sessions) {
      entry.session->BeginDeltaRefresh(snap->generation,
                                       snap->table.num_rows());
    }
  }
  {
    WriterMutexLock lock(state_->mu);
    state_->snap = snap;
    state_->result = std::move(new_result);
  }
  if (service_stats_ != nullptr) {
    ++service_stats_->snapshot_generations_published;
  }
  return snap->generation;
}

Result<ExplainResponse> LiveDataset::Explain(
    const ExplainRequest& request) const {
  std::shared_ptr<const TableSnapshot> snap;
  std::shared_ptr<const QueryResult> result;
  {
    ReaderMutexLock lock(state_->mu);
    snap = state_->snap;
    result = state_->result;
  }
  SCORPION_ASSIGN_OR_RETURN(ProblemSpec problem, request.Resolve(*result));

  ScorpionOptions engine_options = engine_->options().engine;
  engine_options.algorithm = request.algorithm();
  if (request.top_k() > 0) engine_options.top_k = request.top_k();
  Scorpion engine(engine_options);
  engine.set_thread_pool(engine_->scoring_pool());

  std::shared_ptr<ExplainSession> session = Dataset::SessionStore::Acquire(
      *sessions_, engine_->options().cache_enabled, problem,
      request.algorithm());
  Result<Explanation> explanation =
      session != nullptr
          ? engine.ExplainShared(snap->table, *result, problem, session.get(),
                                 engine_->options().cross_c_warm_start)
          : engine.Explain(snap->table, *result, problem);
  if (!explanation.ok()) return explanation.status();
  return BuildResponse(snap->table, *result, problem, request.what_if(),
                       engine_options.enable_block_pruning,
                       engine_->scoring_pool(), std::move(*explanation));
}

Result<PendingExplanation> LiveDataset::ExplainAsync(
    const ExplainRequest& request) const {
  std::shared_ptr<const TableSnapshot> snap;
  std::shared_ptr<const QueryResult> result;
  {
    ReaderMutexLock lock(state_->mu);
    snap = state_->snap;
    result = state_->result;
  }
  SCORPION_ASSIGN_OR_RETURN(ProblemSpec problem, request.Resolve(*result));

  Job job;
  job.table = &snap->table;
  job.query_result = result.get();
  job.query_result_owner = result;
  job.snapshot = snap;  // keeps the generation alive until the future is set
  job.problem = problem;
  job.algorithm = request.algorithm();
  job.top_k = request.top_k();
  job.priority = request.priority();
  if (request.deadline_seconds().has_value()) {
    SCORPION_RETURN_NOT_OK(
        job.set_deadline_after(*request.deadline_seconds()));
  }
  job.session = Dataset::SessionStore::Acquire(
      *sessions_, engine_->options().cache_enabled, problem,
      request.algorithm());

  Response response = engine_->service().Submit(std::move(job));
  // Take the table pointer before std::move(snap): the arguments below are
  // unsequenced, so the moved-from snap must not be dereferenced in one.
  const Table* table = &snap->table;
  return PendingExplanation(
      table, std::move(result), std::move(problem), request.what_if(),
      engine_->options().engine.enable_block_pruning,
      engine_->scoring_pool(), std::move(response), std::move(snap));
}

// --- PendingExplanation ------------------------------------------------------

PendingExplanation::PendingExplanation(
    const Table* table, std::shared_ptr<const QueryResult> result,
    ProblemSpec problem, bool with_what_if, bool enable_block_pruning,
    ThreadPool* pool, Response response,
    std::shared_ptr<const TableSnapshot> snapshot)
    : table_(table),
      result_(std::move(result)),
      snapshot_(std::move(snapshot)),
      problem_(std::move(problem)),
      with_what_if_(with_what_if),
      enable_block_pruning_(enable_block_pruning),
      pool_(pool),
      response_(std::move(response)) {}

Result<ExplainResponse> PendingExplanation::Get() {
  if (!response_.future.valid()) {
    return Status::InvalidArgument(
        "PendingExplanation::Get() may only be called once");
  }
  Result<Explanation> explanation = response_.future.get();
  if (!explanation.ok()) return explanation.status();
  return BuildResponse(*table_, *result_, problem_, with_what_if_,
                       enable_block_pruning_, pool_,
                       std::move(*explanation));
}

}  // namespace scorpion
