// Predicates: conjunctions of range clauses over continuous attributes and
// set-containment clauses over categorical attributes, with at most one
// clause per attribute (Section 3.1 of the paper).
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "table/block_stats.h"
#include "table/selection.h"
#include "table/table.h"

namespace scorpion {

class ThreadPool;

/// `lo <= x < hi`, or `lo <= x <= hi` when hi_inclusive. Splitting algorithms
/// produce half-open ranges so sibling partitions tile without overlap; the
/// topmost range of a domain is closed to include the max value.
struct RangeClause {
  std::string attr;
  double lo = 0.0;
  double hi = 0.0;
  bool hi_inclusive = false;

  bool Contains(double v) const {
    return v >= lo && (hi_inclusive ? v <= hi : v < hi);
  }
  /// True if every value satisfying `other` also satisfies this clause.
  bool ContainsClause(const RangeClause& other) const;
  bool operator==(const RangeClause& other) const = default;
};

/// `attr IN {codes...}` over a categorical column's dictionary codes.
/// Codes are kept sorted and unique.
struct SetClause {
  std::string attr;
  std::vector<int32_t> codes;

  bool Contains(int32_t code) const;
  bool ContainsClause(const SetClause& other) const;  // other.codes ⊆ codes
  bool operator==(const SetClause& other) const = default;
};

/// Domain metadata for an attribute, used for predicate volume and for
/// seeding search algorithms.
struct AttrDomain {
  DataType type = DataType::kDouble;
  double lo = 0.0;              // continuous
  double hi = 0.0;              // continuous
  int32_t cardinality = 0;      // categorical
};

using DomainMap = std::map<std::string, AttrDomain>;

/// Computes domains for the named attributes over all rows of `table`.
Result<DomainMap> ComputeDomains(const Table& table,
                                 const std::vector<std::string>& attrs);

class BoundPredicate;

/// \brief Conjunctive predicate: zero or more clauses, one per attribute.
///
/// The empty predicate is TRUE (matches every row). Clauses are stored
/// sorted by attribute name so that equal predicates have equal canonical
/// string forms.
class Predicate {
 public:
  Predicate() = default;

  /// The always-true predicate.
  static Predicate True() { return Predicate(); }

  /// Adds/merges a range clause. InvalidArgument if the attribute already
  /// has a set clause or the range is empty (lo > hi, or lo >= hi for a
  /// half-open range).
  Status AddRange(const RangeClause& clause);

  /// Adds a set clause (codes are normalized). InvalidArgument if the
  /// attribute already has a range clause or the code list is empty.
  Status AddSet(SetClause clause);

  bool IsTrue() const { return ranges_.empty() && sets_.empty(); }
  int num_clauses() const {
    return static_cast<int>(ranges_.size() + sets_.size());
  }

  const std::vector<RangeClause>& ranges() const { return ranges_; }
  const std::vector<SetClause>& sets() const { return sets_; }

  const RangeClause* FindRange(const std::string& attr) const;
  const SetClause* FindSet(const std::string& attr) const;
  bool HasClauseOn(const std::string& attr) const {
    return FindRange(attr) != nullptr || FindSet(attr) != nullptr;
  }

  /// Names of all constrained attributes, sorted.
  std::vector<std::string> Attributes() const;

  /// Resolves column references against a table for fast evaluation.
  Result<BoundPredicate> Bind(const Table& table) const;

  /// Row-at-a-time evaluation (resolves columns per call; tests/convenience).
  Result<bool> MatchesRow(const Table& table, RowId row) const;

  /// All matching rows of `table`, ascending (boundary shim over the
  /// vectorized, zone-map-pruned FilterAll path, so CSV/eval entry points
  /// get the same data plane as the engine).
  Result<RowIdList> Evaluate(const Table& table) const;

  /// Syntactic containment: every row matching `inner` also matches `outer`,
  /// provable clause-by-clause (outer's clauses all present in inner and
  /// looser). This is sufficient but not necessary for pi ≺_D pj.
  static bool SyntacticallyContains(const Predicate& outer,
                                    const Predicate& inner);

  /// Minimum bounding box of two predicates: range hulls and set unions over
  /// attributes constrained by BOTH inputs; an attribute constrained by only
  /// one input becomes unconstrained (the bounding box over the whole other
  /// predicate's domain extent).
  static Predicate BoundingBox(const Predicate& a, const Predicate& b);

  /// Conjunction of two predicates: clauses intersected attribute-wise.
  /// Returns nullopt if any intersection is empty (unsatisfiable).
  static std::optional<Predicate> Intersect(const Predicate& a,
                                            const Predicate& b);

  /// Copy of this predicate with the clause on `clause.attr` replaced (or
  /// added). Used by space-partitioning algorithms that successively narrow
  /// one attribute of a bounding box.
  Predicate WithRange(const RangeClause& clause) const;
  Predicate WithSet(SetClause clause) const;

  /// Fraction of the attribute space covered, per the Section 6.3 volume
  /// estimates: product over constrained attributes of the clause's share of
  /// its domain. Unconstrained attributes contribute factor 1. Clauses are
  /// clamped to the domain.
  double Volume(const DomainMap& domains) const;

  /// Canonical human-readable form, e.g.
  /// "voltage in [2.307, 2.33] & sensorid in {'15'}". Codes are rendered as
  /// dictionary strings when `table` is provided, else as raw codes.
  std::string ToString(const Table* table = nullptr) const;

  bool operator==(const Predicate& other) const = default;

  /// Exact hash consistent with operator==: every compared field (clause
  /// attributes, bounds, inclusivity, set codes), in the stored
  /// attribute-sorted order, with -0.0 hashed as +0.0. A predicate with a
  /// NaN bound is unequal even to itself, so it never hits a hashed lookup.
  size_t Hash() const;

 private:
  std::vector<RangeClause> ranges_;  // sorted by attr
  std::vector<SetClause> sets_;      // sorted by attr
};

/// \brief A Predicate with column indices resolved against one Table.
///
/// Evaluation is columnar: each clause runs one branch-free pass over its
/// column (ranges compare against Column::doubles(); set clauses index the
/// membership byte-table with Column::codes()), writing into a shared byte
/// mask that the clause passes AND together. Sparse inputs use a gather
/// kernel over the selection vector; all-rows inputs use a dense kernel that
/// packs the mask into a bitmap Selection.
///
/// On top of the kernels sits zone-map block pruning (table/block_stats.h):
/// each kBlockSize-row block is classified against the clauses as NONE /
/// ALL / PARTIAL; NONE blocks are skipped, ALL blocks are emitted via the
/// bitmap word-fill / dense range-append fast paths without reading column
/// data, and only PARTIAL blocks run the kernels. The verdicts mirror the
/// kernel semantics exactly (including NaN-matches-every-range), so pruned
/// output is bit-identical to unpruned output. Large filters additionally
/// run block-parallel over an attached ThreadPool, with per-block outputs
/// landing in disjoint slots concatenated in block order — still
/// bit-identical.
///
/// Valid only as long as the Table lives and is not appended to. The bound
/// row count (and storage generation) is recorded at Bind() time and
/// checked on every batch evaluation call (per-row Matches() checks it in
/// debug builds only): the vectorized entry points return
/// Status::FailedPrecondition — carrying both generations — instead of
/// reading stale or reallocated column storage (and therefore also before
/// stale block stats could be consulted). Live-table callers hold a
/// TableSnapshot (src/storage/live_table.h) so the error never fires in
/// normal operation; it exists for callers that append to a plain Table
/// under a still-bound predicate.
class BoundPredicate {
 public:
  /// True if the table row satisfies the predicate (row-at-a-time reference
  /// path; the vectorized kernels below are the hot path).
  bool Matches(RowId row) const;

  /// Vectorized: the matching subset of `input`. Output keeps vector form
  /// for sparse inputs and bitmap form for all-rows inputs.
  /// FailedPrecondition if the table was appended to since Bind().
  Result<Selection> Filter(const Selection& input) const;

  /// Vectorized: matching rows among all rows of the bound table, as a
  /// bitmap Selection. FailedPrecondition if the table was appended to
  /// since Bind().
  Result<Selection> FilterAll() const;

  /// Number of matches in `input` without materializing them.
  /// FailedPrecondition if the table was appended to since Bind().
  Result<size_t> Count(const Selection& input) const;

  /// Scalar row-at-a-time reference implementation over a sorted list.
  /// Test-only: nothing in src/ calls it anymore — it exists as the ground
  /// truth the kernel/pruning equivalence tests and benches compare
  /// against.
  RowIdList Filter(const RowIdList& rows) const;

  /// Scalar count over a sorted list (test-only reference, like Filter).
  size_t CountMatches(const RowIdList& rows) const;

  /// Row count of the bound table at Bind() time.
  size_t num_rows() const { return num_rows_; }

  /// Enables/disables zone-map block pruning for this bound predicate.
  /// Bind() arms it from the process-wide BlockPruningDefault(); the Scorer
  /// overrides it from ScorpionOptions::enable_block_pruning. Output is
  /// bit-identical either way.
  void set_enable_pruning(bool enabled) { pruning_enabled_ = enabled; }
  bool pruning_enabled() const { return pruning_enabled_; }

  /// Attaches a pool for block-parallel filtering of large inputs; nullptr
  /// (the default) filters on the calling thread. Per-block outputs land in
  /// disjoint slots and concatenate in block order, so results are
  /// bit-identical at every thread count.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  /// Redirects pruning counters to `stats` (must outlive the predicate's
  /// last evaluation). Defaults to GlobalBlockPruningStats(); the Scorer
  /// installs its own instance so per-scorer numbers stay exact when many
  /// requests filter concurrently.
  void set_pruning_stats(BlockPruningStats* stats) { prune_stats_ = stats; }

 private:
  friend class Predicate;
  // The candidate-batched data plane (predicate/candidate_batch.h) reuses
  // the bound clause representations, the pruning plan and the mask fills,
  // so a batch's shared base evaluates through exactly this code.
  friend struct CandidateBatch;
  friend class BoundCandidateBatch;
  struct BoundRange {
    const std::vector<double>* values;
    double lo, hi;
    bool hi_inclusive;
    int col;  // column index for zone-map lookup
  };
  struct BoundSet {
    const std::vector<int32_t>* codes;
    std::vector<uint8_t> member;  // indexed by dictionary code
    int col;
    /// Allowed codes hashed with the block-stats rule, for classification.
    uint64_t query_bits[kBlockCodeWords];
    /// True when the column cardinality fits kBlockCodeBits, so the hash is
    /// the identity and ALL verdicts are sound.
    bool exact_bits;
  };

  /// Resolved zone-map context for one evaluation call: per-clause pointers
  /// into the (lazily built) per-column block stats.
  struct PruningPlan {
    const TableBlockStats* stats = nullptr;
    std::vector<const BlockStat*> range_stats;  // aligned with ranges_
    std::vector<const BlockStat*> set_stats;    // aligned with sets_
  };

  /// Aborts if the bound table has been appended to since Bind() (the
  /// scalar test-only reference paths keep the hard check).
  void CheckNotStale() const;

  /// OK while the bound table still has the Bind()-time row count;
  /// otherwise FailedPrecondition naming the bound and current generations
  /// and row counts.
  Status StaleStatus() const;

  /// Builds the zone-map plan; false when pruning is disabled or stats are
  /// unavailable (callers then take the unpruned kernel path).
  bool PreparePlan(PruningPlan* plan) const;

  /// Conjunction verdict for block `b`: NONE if any clause is NONE, ALL if
  /// every clause is ALL, PARTIAL otherwise.
  BlockMatch ClassifyBlock(const PruningPlan& plan, size_t b) const;

  /// Fills `mask[i] = matches(rows[i])` clause by clause (gather kernel);
  /// requires at least one clause (the first writes, the rest AND).
  void FillMaskGather(const RowId* rows, size_t n, uint8_t* mask) const;

  /// Fills `mask[i - begin] = matches(i)` for i in [begin, end) (dense
  /// kernel); requires at least one clause.
  void FillMaskDenseRange(size_t begin, size_t end, uint8_t* mask) const;

  std::vector<BoundRange> ranges_;
  std::vector<BoundSet> sets_;
  size_t num_rows_ = 0;
  /// Table::generation() at Bind() time, reported by StaleStatus() so a
  /// live-table caller can see which generations diverged.
  uint64_t bound_generation_ = 0;
  const Table* table_ = nullptr;
  /// Owned by the table's BlockStatsCache; valid while the table keeps the
  /// bound row count, which CheckNotStale() enforces before every use.
  const TableBlockStats* block_stats_ = nullptr;
  BlockPruningStats* prune_stats_ = nullptr;  // set at Bind()
  bool pruning_enabled_ = true;
  ThreadPool* pool_ = nullptr;
};

}  // namespace scorpion

template <>
struct std::hash<scorpion::Predicate> {
  size_t operator()(const scorpion::Predicate& pred) const {
    return pred.Hash();
  }
};
