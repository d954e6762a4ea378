#include "predicate/predicate.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>

#include "common/fingerprint.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "predicate/filter_kernels.h"
#include "table/block_stats.h"

namespace scorpion {

// --- Clauses ----------------------------------------------------------------

bool RangeClause::ContainsClause(const RangeClause& other) const {
  if (other.lo < lo) return false;
  if (hi_inclusive) {
    // [lo, hi] contains [other.lo, other.hi(] or )) whenever other.hi <= hi.
    return other.hi <= hi;
  }
  // [lo, hi): an inclusive-hi inner clause must end strictly before hi.
  if (other.hi_inclusive) return other.hi < hi;
  return other.hi <= hi;
}

bool SetClause::Contains(int32_t code) const {
  return std::binary_search(codes.begin(), codes.end(), code);
}

bool SetClause::ContainsClause(const SetClause& other) const {
  return std::includes(codes.begin(), codes.end(), other.codes.begin(),
                       other.codes.end());
}

// --- Domains ----------------------------------------------------------------

Result<DomainMap> ComputeDomains(const Table& table,
                                 const std::vector<std::string>& attrs) {
  DomainMap out;
  for (const std::string& attr : attrs) {
    SCORPION_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(attr));
    AttrDomain d;
    d.type = col->type();
    if (col->type() == DataType::kDouble) {
      SCORPION_ASSIGN_OR_RETURN(d.lo, col->Min());
      SCORPION_ASSIGN_OR_RETURN(d.hi, col->Max());
    } else {
      d.cardinality = col->Cardinality();
    }
    out.emplace(attr, d);
  }
  return out;
}

// --- Predicate building ------------------------------------------------------

namespace {

template <typename ClauseT>
typename std::vector<ClauseT>::const_iterator FindByAttr(
    const std::vector<ClauseT>& clauses, const std::string& attr) {
  return std::find_if(clauses.begin(), clauses.end(),
                      [&](const ClauseT& c) { return c.attr == attr; });
}

template <typename ClauseT>
void InsertSorted(std::vector<ClauseT>* clauses, ClauseT clause) {
  auto pos = std::lower_bound(
      clauses->begin(), clauses->end(), clause,
      [](const ClauseT& a, const ClauseT& b) { return a.attr < b.attr; });
  clauses->insert(pos, std::move(clause));
}

}  // namespace

Status Predicate::AddRange(const RangeClause& clause) {
  if (FindByAttr(sets_, clause.attr) != sets_.end()) {
    return Status::InvalidArgument("attribute '" + clause.attr +
                                   "' already has a set clause");
  }
  bool empty_range = clause.hi_inclusive ? clause.lo > clause.hi
                                         : clause.lo >= clause.hi;
  if (empty_range) {
    return Status::InvalidArgument("empty range for '" + clause.attr + "'");
  }
  auto it = FindByAttr(ranges_, clause.attr);
  if (it != ranges_.end()) {
    return Status::InvalidArgument("attribute '" + clause.attr +
                                   "' already has a range clause");
  }
  InsertSorted(&ranges_, clause);
  return Status::OK();
}

Status Predicate::AddSet(SetClause clause) {
  if (FindByAttr(ranges_, clause.attr) != ranges_.end()) {
    return Status::InvalidArgument("attribute '" + clause.attr +
                                   "' already has a range clause");
  }
  if (FindByAttr(sets_, clause.attr) != sets_.end()) {
    return Status::InvalidArgument("attribute '" + clause.attr +
                                   "' already has a set clause");
  }
  std::sort(clause.codes.begin(), clause.codes.end());
  clause.codes.erase(std::unique(clause.codes.begin(), clause.codes.end()),
                     clause.codes.end());
  if (clause.codes.empty()) {
    return Status::InvalidArgument("empty code set for '" + clause.attr + "'");
  }
  InsertSorted(&sets_, std::move(clause));
  return Status::OK();
}

const RangeClause* Predicate::FindRange(const std::string& attr) const {
  auto it = FindByAttr(ranges_, attr);
  return it == ranges_.end() ? nullptr : &*it;
}

const SetClause* Predicate::FindSet(const std::string& attr) const {
  auto it = FindByAttr(sets_, attr);
  return it == sets_.end() ? nullptr : &*it;
}

std::vector<std::string> Predicate::Attributes() const {
  std::vector<std::string> out;
  out.reserve(ranges_.size() + sets_.size());
  for (const auto& r : ranges_) out.push_back(r.attr);
  for (const auto& s : sets_) out.push_back(s.attr);
  std::sort(out.begin(), out.end());
  return out;
}

// --- Evaluation ---------------------------------------------------------------

Result<BoundPredicate> Predicate::Bind(const Table& table) const {
  BoundPredicate bound;
  bound.num_rows_ = table.num_rows();
  bound.bound_generation_ = table.generation();
  bound.table_ = &table;
  bound.pruning_enabled_ = BlockPruningDefault();
  bound.prune_stats_ = &GlobalBlockPruningStats();
  for (const RangeClause& r : ranges_) {
    SCORPION_ASSIGN_OR_RETURN(int col_idx, table.ColumnIndex(r.attr));
    const Column* col = &table.column(col_idx);
    if (col->type() != DataType::kDouble) {
      return Status::TypeError("range clause on categorical attribute '" +
                               r.attr + "'");
    }
    bound.ranges_.push_back(
        {&col->doubles(), r.lo, r.hi, r.hi_inclusive, col_idx});
  }
  for (const SetClause& s : sets_) {
    SCORPION_ASSIGN_OR_RETURN(int col_idx, table.ColumnIndex(s.attr));
    const Column* col = &table.column(col_idx);
    if (col->type() != DataType::kCategorical) {
      return Status::TypeError("set clause on continuous attribute '" +
                               s.attr + "'");
    }
    BoundPredicate::BoundSet bs;
    bs.codes = &col->codes();
    bs.col = col_idx;
    bs.member.assign(static_cast<size_t>(col->Cardinality()), 0);
    // Same hash rule as the stats builder: identity when the cardinality
    // fits the bitset, code & (kBlockCodeBits - 1) otherwise.
    bs.exact_bits = bs.member.size() <= kBlockCodeBits;
    std::fill(std::begin(bs.query_bits), std::end(bs.query_bits), 0);
    for (int32_t code : s.codes) {
      if (code >= 0 && static_cast<size_t>(code) < bs.member.size()) {
        bs.member[static_cast<size_t>(code)] = 1;
        const uint32_t bit =
            static_cast<uint32_t>(code) & (kBlockCodeBits - 1);
        bs.query_bits[bit >> 6] |= uint64_t{1} << (bit & 63);
      }
    }
    bound.sets_.push_back(std::move(bs));
  }
  if (bound.num_rows_ > 0 && !(bound.ranges_.empty() && bound.sets_.empty())) {
    bound.block_stats_ = table.block_stats();
  }
  return bound;
}

Result<bool> Predicate::MatchesRow(const Table& table, RowId row) const {
  SCORPION_ASSIGN_OR_RETURN(BoundPredicate bound, Bind(table));
  return bound.Matches(row);
}

Result<RowIdList> Predicate::Evaluate(const Table& table) const {
  SCORPION_ASSIGN_OR_RETURN(BoundPredicate bound, Bind(table));
  SCORPION_ASSIGN_OR_RETURN(Selection matched, bound.FilterAll());
  return matched.rows();
}

void BoundPredicate::CheckNotStale() const {
  SCORPION_CHECK(table_ == nullptr || table_->num_rows() == num_rows_,
                 "BoundPredicate evaluated after its Table was appended to; "
                 "re-Bind() the predicate");
}

Status BoundPredicate::StaleStatus() const {
  if (table_ == nullptr || table_->num_rows() == num_rows_) {
    return Status::OK();
  }
  return Status::FailedPrecondition(
      "BoundPredicate bound at generation " +
      std::to_string(bound_generation_) + " (" + std::to_string(num_rows_) +
      " rows) evaluated against generation " +
      std::to_string(table_->generation()) + " (" +
      std::to_string(table_->num_rows()) +
      " rows); re-Bind() against a frozen snapshot");
}

bool BoundPredicate::Matches(RowId row) const {
  SCORPION_DCHECK(table_ == nullptr || table_->num_rows() == num_rows_,
                  "BoundPredicate::Matches after the Table was appended to");
  for (const BoundRange& r : ranges_) {
    double v = (*r.values)[row];
    if (v < r.lo) return false;
    if (r.hi_inclusive ? v > r.hi : v >= r.hi) return false;
  }
  for (const BoundSet& s : sets_) {
    int32_t code = (*s.codes)[row];
    if (static_cast<size_t>(code) >= s.member.size() || !s.member[code]) {
      return false;
    }
  }
  return true;
}

// The byte-mask kernels live in predicate/filter_kernels.{h,cc}, shared
// with the candidate-batched data plane (candidate_batch.cc). They mirror
// Matches() exactly — including its NaN behaviour (NaN fails neither
// `v < lo` nor `v > hi`, so NaN rows match a range) — so vectorized and
// scalar evaluation stay bit-identical. Each clause is one branch-free pass
// over its column; the first clause writes the mask, later clauses AND into
// it, so no mask initialization pass is needed. See filter_kernels.cc for
// the AVX2 / AVX-512 target_clones dispatch story.

namespace {

using kernels::PackMaskIntoWords;
using kernels::RangeMaskDense;
using kernels::RangeMaskGather;
using kernels::SetMaskDense;
using kernels::SetMaskGather;
using kernels::SumMask;

/// Per-thread mask scratch: filter calls are frequent and short-lived, and
/// the mask never escapes a call, so one growable buffer per thread removes
/// the allocation + clear from every evaluation. Memory held is bounded by
/// the largest table filtered on the thread.
std::vector<uint8_t>& MaskScratch(size_t n) {
  thread_local std::vector<uint8_t> scratch;
  if (scratch.size() < n) scratch.resize(n);
  return scratch;
}

/// Parallelize per-block work only when there is enough of it to amortize
/// the ParallelFor handoff.
constexpr size_t kMinBlocksForParallel = 4;

}  // namespace

void BoundPredicate::FillMaskGather(const RowId* rows, size_t n,
                                    uint8_t* mask) const {
  bool first = true;
  for (const BoundRange& r : ranges_) {
    RangeMaskGather(r.values->data(), rows, n, r.lo, r.hi, r.hi_inclusive,
                    first, mask);
    first = false;
  }
  for (const BoundSet& s : sets_) {
    SetMaskGather(s.codes->data(), rows, n, s.member.data(), first, mask);
    first = false;
  }
}

void BoundPredicate::FillMaskDenseRange(size_t begin, size_t end,
                                        uint8_t* mask) const {
  const size_t n = end - begin;
  bool first = true;
  for (const BoundRange& r : ranges_) {
    RangeMaskDense(r.values->data() + begin, n, r.lo, r.hi, r.hi_inclusive,
                   first, mask);
    first = false;
  }
  for (const BoundSet& s : sets_) {
    SetMaskDense(s.codes->data() + begin, n, s.member.data(), first, mask);
    first = false;
  }
}

bool BoundPredicate::PreparePlan(PruningPlan* plan) const {
  if (!pruning_enabled_ || block_stats_ == nullptr) return false;
  plan->stats = block_stats_;
  plan->range_stats.reserve(ranges_.size());
  for (const BoundRange& r : ranges_) {
    plan->range_stats.push_back(plan->stats->ForColumn(r.col).data());
  }
  plan->set_stats.reserve(sets_.size());
  for (const BoundSet& s : sets_) {
    const BlockStat* stats = plan->stats->ForColumn(s.col).data();
    // Exactness is a pure function of the cardinality, which cannot change
    // without an append (which invalidates both the stats and this bound
    // predicate) — so bind-time and build-time verdicts agree.
    SCORPION_DCHECK(plan->stats->CodeBitsExact(s.col) == s.exact_bits,
                    "code bitset exactness diverged between stats and bind");
    plan->set_stats.push_back(stats);
  }
  return true;
}

BlockMatch BoundPredicate::ClassifyBlock(const PruningPlan& plan,
                                         size_t b) const {
  const size_t rows_in_block =
      plan.stats->block_end(b) - plan.stats->block_begin(b);
  BlockMatch verdict = BlockMatch::kAll;
  for (size_t i = 0; i < ranges_.size(); ++i) {
    const BoundRange& r = ranges_[i];
    const BlockMatch m = ClassifyRangeBlock(plan.range_stats[i][b],
                                            rows_in_block, r.lo, r.hi,
                                            r.hi_inclusive);
    if (m == BlockMatch::kNone) return BlockMatch::kNone;
    if (m == BlockMatch::kPartial) verdict = BlockMatch::kPartial;
  }
  for (size_t i = 0; i < sets_.size(); ++i) {
    const BoundSet& s = sets_[i];
    const BlockMatch m =
        ClassifySetBlock(plan.set_stats[i][b], s.query_bits, s.exact_bits);
    if (m == BlockMatch::kNone) return BlockMatch::kNone;
    if (m == BlockMatch::kPartial) verdict = BlockMatch::kPartial;
  }
  return verdict;
}

namespace {

/// One maximal run of a sorted sparse input falling inside a single
/// statistics block, with the block's conjunction verdict.
struct SparseSpan {
  size_t block;
  size_t lo, hi;  // index range into the input row vector
  BlockMatch verdict;
};

/// Splits a sorted row vector into per-block spans and classifies each
/// block through `classify`. The span vector is thread-local scratch:
/// valid until the calling thread's next ComputeSparseSpans call — which,
/// under ThreadPool's help-first stealing, can happen in the middle of a
/// blocked ParallelFor (a stolen task may run a whole filter on this
/// thread). Callers that dispatch to a pool must copy the spans first.
template <typename Classify>
std::vector<SparseSpan>& ComputeSparseSpans(const RowIdList& rows,
                                            const Classify& classify) {
  thread_local std::vector<SparseSpan> spans;
  spans.clear();
  const size_t n = rows.size();
  size_t i = 0;
  while (i < n) {
    const size_t b = static_cast<size_t>(rows[i]) / kBlockSize;
    const size_t limit = (b + 1) * kBlockSize;
    const size_t j = static_cast<size_t>(
        std::partition_point(
            rows.begin() + static_cast<ptrdiff_t>(i), rows.end(),
            [&](RowId r) { return static_cast<size_t>(r) < limit; }) -
        rows.begin());
    spans.push_back({b, i, j, classify(b)});
    i = j;
  }
  return spans;
}

/// \brief One pruned evaluation over a sorted sparse row vector — the core
/// shared by Filter(Selection) and Count(Selection): span classification,
/// pruning counters, gather kernels on PARTIAL spans, per-span kept counts
/// in disjoint slots. Filter compacts via spans()/mask(); Count just reads
/// total_kept().
///
/// A top-level pool dispatch blocks in ThreadPool's help-first loop, where
/// the calling thread can execute OTHER producers' queued tasks; any filter
/// work they run reuses this thread's MaskScratch / ComputeSparseSpans
/// buffers while this run still reads them after the join. The parallel
/// path therefore snapshots the spans and fills a function-local mask; the
/// serial path — including nested-inline calls, which never steal — keeps
/// the zero-allocation thread-local scratch. When no span is PARTIAL the
/// verdicts alone decide: the kernels never run and the mask is neither
/// allocated nor cleared.
///
/// Must stay a function-local value: spans()/mask() can point into members.
class SparsePrunedRun {
 public:
  /// `classify` maps a block index to its conjunction verdict; `fill` is
  /// the gather kernel (rows, len, mask) for PARTIAL spans.
  template <typename Classify, typename Fill>
  SparsePrunedRun(const RowIdList& rows, ThreadPool* pool,
                  BlockPruningStats* pstats, const Classify& classify,
                  const Fill& fill) {
    std::vector<SparseSpan>& tl_spans = ComputeSparseSpans(rows, classify);
    bool any_partial = false;
    for (const SparseSpan& sp : tl_spans) {
      if (sp.verdict == BlockMatch::kPartial) {
        any_partial = true;
        break;
      }
    }
    const bool parallel = any_partial && pool != nullptr &&
                          !ThreadPool::InParallelBody() &&
                          tl_spans.size() >= kMinBlocksForParallel;
    if (parallel) {
      span_storage_ = tl_spans;
      // Uninitialized on purpose (matching MaskScratch's no-clear reuse):
      // the gather kernels fully overwrite PARTIAL spans' ranges and
      // nothing reads the mask outside them, so an O(rows) zero-fill would
      // only tax the heavily-pruned inputs this path exists to speed up.
      mask_storage_.reset(new uint8_t[rows.size()]);
      spans_ = &span_storage_;
      mask_ = mask_storage_.get();
    } else {
      spans_ = &tl_spans;
      mask_ = any_partial ? MaskScratch(rows.size()).data() : nullptr;
    }
    const std::vector<SparseSpan>& spans = *spans_;
    kept_.assign(spans.size(), 0);
    auto do_span = [&](size_t si) {
      const SparseSpan& sp = spans[si];
      const size_t len = sp.hi - sp.lo;
      switch (sp.verdict) {
        case BlockMatch::kNone:
          ++pstats->blocks_pruned_none;
          pstats->rows_skipped_by_pruning += len;
          break;
        case BlockMatch::kAll:
          ++pstats->blocks_pruned_all;
          pstats->rows_skipped_by_pruning += len;
          kept_[si] = len;
          break;
        case BlockMatch::kPartial:
          ++pstats->blocks_partial;
          fill(rows.data() + sp.lo, len, mask_ + sp.lo);
          kept_[si] = SumMask(mask_ + sp.lo, len);
          break;
      }
    };
    if (parallel) {
      // On this branch spans_/mask_ point at the span_storage_/mask_storage_
      // snapshots made above, never at the thread-local scratch (class
      // comment). scratch-escape-audited: parallel branch uses snapshots.
      pool->ParallelFor(0, spans.size(), do_span);
    } else {
      for (size_t si = 0; si < spans.size(); ++si) do_span(si);
    }
    for (size_t k : kept_) total_kept_ += k;
  }

  SCORPION_DISALLOW_COPY_AND_ASSIGN(SparsePrunedRun);

  /// Spans in block order.
  const std::vector<SparseSpan>& spans() const { return *spans_; }
  /// Gather mask aligned with the input rows; valid only over PARTIAL
  /// spans' index ranges (nullptr when no span is PARTIAL).
  const uint8_t* mask() const { return mask_; }
  /// Total matching rows across all spans.
  size_t total_kept() const { return total_kept_; }

 private:
  std::vector<SparseSpan> span_storage_;     // parallel-path span snapshot
  std::unique_ptr<uint8_t[]> mask_storage_;  // parallel-path mask
  const std::vector<SparseSpan>* spans_ = nullptr;
  uint8_t* mask_ = nullptr;
  std::vector<size_t> kept_;
  size_t total_kept_ = 0;
};

/// Shared pruned-dense driver for FilterAll / Count over all rows:
/// classifies every block, updates counters, calls `on_all(begin, end)` on
/// ALL blocks and `fill` + `consume(mask, begin, end)` on PARTIAL blocks,
/// and returns the total kept count. Block-parallel when a pool is
/// attached: blocks own disjoint outputs (kBlockSize is a multiple of 64,
/// so bitmap word ranges don't overlap), per-block counts land in slots,
/// and the sum stays serial in block order. Unlike the sparse paths,
/// MaskScratch here is acquired and fully consumed inside one task
/// invocation, so a help-first-stolen task clobbering the thread-local
/// scratch between tasks is harmless.
template <typename Classify, typename Fill, typename OnAll, typename Consume>
size_t RunPrunedDenseBlocks(const TableBlockStats& stats, ThreadPool* pool,
                            BlockPruningStats* pstats,
                            const Classify& classify, const Fill& fill,
                            const OnAll& on_all, const Consume& consume) {
  const size_t nb = stats.num_blocks();
  auto do_block = [&](size_t b) -> size_t {
    const size_t begin = stats.block_begin(b);
    const size_t end = stats.block_end(b);
    switch (classify(b)) {
      case BlockMatch::kNone:
        ++pstats->blocks_pruned_none;
        pstats->rows_skipped_by_pruning += end - begin;
        return 0;
      case BlockMatch::kAll:
        ++pstats->blocks_pruned_all;
        pstats->rows_skipped_by_pruning += end - begin;
        on_all(begin, end);
        return end - begin;
      case BlockMatch::kPartial:
        break;
    }
    ++pstats->blocks_partial;
    uint8_t* mask = MaskScratch(end - begin).data();
    fill(begin, end, mask);
    return consume(mask, begin, end);
  };
  size_t total = 0;
  if (pool != nullptr && nb >= kMinBlocksForParallel) {
    std::vector<size_t> counts(nb, 0);
    pool->ParallelFor(0, nb, [&](size_t b) { counts[b] = do_block(b); });
    for (size_t c : counts) total += c;
  } else {
    for (size_t b = 0; b < nb; ++b) total += do_block(b);
  }
  return total;
}

}  // namespace

Result<Selection> BoundPredicate::Filter(const Selection& input) const {
  SCORPION_RETURN_NOT_OK(StaleStatus());
  SCORPION_CHECK(input.universe_size() == num_rows_,
                 "Filter input universe does not match the bound table");
  if (ranges_.empty() && sets_.empty()) return input;  // TRUE predicate
  if (input.IsAll()) return FilterAll();
  const RowIdList& rows = input.rows();
  const size_t n = rows.size();
  PruningPlan plan;
  if (n > 0 && PreparePlan(&plan)) {
    SparsePrunedRun run(
        rows, pool_, prune_stats_,
        [&](size_t b) { return ClassifyBlock(plan, b); },
        [&](const RowId* r, size_t len, uint8_t* m) {
          FillMaskGather(r, len, m);
        });
    // Serial compaction in block order — output is identical at every
    // thread count.
    const uint8_t* mask = run.mask();
    RowIdList out;
    out.reserve(run.total_kept());
    for (const SparseSpan& sp : run.spans()) {
      if (sp.verdict == BlockMatch::kNone) continue;
      if (sp.verdict == BlockMatch::kAll) {
        // Dense range-append: the whole span matches, no mask to consult.
        out.insert(out.end(), rows.begin() + static_cast<ptrdiff_t>(sp.lo),
                   rows.begin() + static_cast<ptrdiff_t>(sp.hi));
        continue;
      }
      for (size_t i = sp.lo; i < sp.hi; ++i) {
        if (mask[i]) out.push_back(rows[i]);
      }
    }
    return Selection::FromSorted(std::move(out), num_rows_);
  }
  uint8_t* mask = MaskScratch(n).data();
  FillMaskGather(rows.data(), n, mask);
  RowIdList out;
  out.reserve(SumMask(mask, n));
  for (size_t i = 0; i < n; ++i) {
    if (mask[i]) out.push_back(rows[i]);
  }
  return Selection::FromSorted(std::move(out), num_rows_);
}

Result<Selection> BoundPredicate::FilterAll() const {
  SCORPION_RETURN_NOT_OK(StaleStatus());
  const size_t n = num_rows_;
  if (ranges_.empty() && sets_.empty()) return Selection::All(n);
  std::vector<uint64_t> words((n + 63) / 64, 0);
  size_t count = 0;
  PruningPlan plan;
  if (PreparePlan(&plan)) {
    count = RunPrunedDenseBlocks(
        *plan.stats, pool_, prune_stats_,
        [&](size_t b) { return ClassifyBlock(plan, b); },
        [&](size_t begin, size_t end, uint8_t* mask) {
          FillMaskDenseRange(begin, end, mask);
        },
        [&](size_t begin, size_t end) { BitmapSetRange(&words, begin, end); },
        [&](const uint8_t* mask, size_t begin, size_t end) {
          return PackMaskIntoWords(mask, begin, end, words.data());
        });
  } else {
    uint8_t* mask = MaskScratch(n).data();
    FillMaskDenseRange(0, n, mask);
    count = PackMaskIntoWords(mask, 0, n, words.data());
  }
  return Selection::FromBitmapCounted(std::move(words), n, count);
}

Result<size_t> BoundPredicate::Count(const Selection& input) const {
  SCORPION_RETURN_NOT_OK(StaleStatus());
  SCORPION_CHECK(input.universe_size() == num_rows_,
                 "Count input universe does not match the bound table");
  if (ranges_.empty() && sets_.empty()) return input.size();
  PruningPlan plan;
  if (input.IsAll()) {
    // Dense mask + byte sum; no bitmap materialization for a bare count.
    const size_t n = num_rows_;
    if (PreparePlan(&plan)) {
      return RunPrunedDenseBlocks(
          *plan.stats, pool_, prune_stats_,
          [&](size_t b) { return ClassifyBlock(plan, b); },
          [&](size_t begin, size_t end, uint8_t* mask) {
            FillMaskDenseRange(begin, end, mask);
          },
          [](size_t, size_t) {},  // a bare count materializes nothing
          [](const uint8_t* mask, size_t begin, size_t end) {
            return SumMask(mask, end - begin);
          });
    }
    uint8_t* mask = MaskScratch(n).data();
    FillMaskDenseRange(0, n, mask);
    return SumMask(mask, n);
  }
  const RowIdList& rows = input.rows();
  const size_t n = rows.size();
  if (n > 0 && PreparePlan(&plan)) {
    SparsePrunedRun run(
        rows, pool_, prune_stats_,
        [&](size_t b) { return ClassifyBlock(plan, b); },
        [&](const RowId* r, size_t len, uint8_t* m) {
          FillMaskGather(r, len, m);
        });
    return run.total_kept();
  }
  uint8_t* mask = MaskScratch(n).data();
  FillMaskGather(rows.data(), n, mask);
  return SumMask(mask, n);
}

RowIdList BoundPredicate::Filter(const RowIdList& rows) const {
  CheckNotStale();
  RowIdList out;
  out.reserve(rows.size());
  for (RowId r : rows) {
    if (Matches(r)) out.push_back(r);
  }
  return out;
}

size_t BoundPredicate::CountMatches(const RowIdList& rows) const {
  CheckNotStale();
  size_t n = 0;
  for (RowId r : rows) {
    if (Matches(r)) ++n;
  }
  return n;
}

// --- Algebra -------------------------------------------------------------------

bool Predicate::SyntacticallyContains(const Predicate& outer,
                                      const Predicate& inner) {
  for (const RangeClause& ro : outer.ranges_) {
    const RangeClause* ri = inner.FindRange(ro.attr);
    if (ri == nullptr || !ro.ContainsClause(*ri)) return false;
  }
  for (const SetClause& so : outer.sets_) {
    const SetClause* si = inner.FindSet(so.attr);
    if (si == nullptr || !so.ContainsClause(*si)) return false;
  }
  return true;
}

Predicate Predicate::BoundingBox(const Predicate& a, const Predicate& b) {
  Predicate out;
  for (const RangeClause& ra : a.ranges_) {
    const RangeClause* rb = b.FindRange(ra.attr);
    if (rb == nullptr) continue;  // unconstrained in b -> unconstrained hull
    RangeClause hull;
    hull.attr = ra.attr;
    hull.lo = std::min(ra.lo, rb->lo);
    if (ra.hi > rb->hi) {
      hull.hi = ra.hi;
      hull.hi_inclusive = ra.hi_inclusive;
    } else if (rb->hi > ra.hi) {
      hull.hi = rb->hi;
      hull.hi_inclusive = rb->hi_inclusive;
    } else {
      hull.hi = ra.hi;
      hull.hi_inclusive = ra.hi_inclusive || rb->hi_inclusive;
    }
    out.AddRange(hull).ok();  // cannot fail: hull is non-empty by construction
  }
  for (const SetClause& sa : a.sets_) {
    const SetClause* sb = b.FindSet(sa.attr);
    if (sb == nullptr) continue;
    SetClause hull;
    hull.attr = sa.attr;
    hull.codes.reserve(sa.codes.size() + sb->codes.size());
    std::set_union(sa.codes.begin(), sa.codes.end(), sb->codes.begin(),
                   sb->codes.end(), std::back_inserter(hull.codes));
    out.AddSet(std::move(hull)).ok();
  }
  return out;
}

std::optional<Predicate> Predicate::Intersect(const Predicate& a,
                                              const Predicate& b) {
  Predicate out;
  // Ranges: take a's clauses, narrowing where b also constrains.
  for (const RangeClause& ra : a.ranges_) {
    const RangeClause* rb = b.FindRange(ra.attr);
    RangeClause merged = ra;
    if (rb != nullptr) {
      merged.lo = std::max(ra.lo, rb->lo);
      if (ra.hi < rb->hi) {
        merged.hi = ra.hi;
        merged.hi_inclusive = ra.hi_inclusive;
      } else if (rb->hi < ra.hi) {
        merged.hi = rb->hi;
        merged.hi_inclusive = rb->hi_inclusive;
      } else {
        merged.hi = ra.hi;
        merged.hi_inclusive = ra.hi_inclusive && rb->hi_inclusive;
      }
    }
    if (!out.AddRange(merged).ok()) return std::nullopt;  // empty intersection
  }
  for (const RangeClause& rb : b.ranges_) {
    if (a.FindRange(rb.attr) == nullptr) {
      if (!out.AddRange(rb).ok()) return std::nullopt;
    }
  }
  // Sets: intersect code lists.
  for (const SetClause& sa : a.sets_) {
    const SetClause* sb = b.FindSet(sa.attr);
    SetClause merged;
    merged.attr = sa.attr;
    if (sb != nullptr) {
      std::set_intersection(sa.codes.begin(), sa.codes.end(),
                            sb->codes.begin(), sb->codes.end(),
                            std::back_inserter(merged.codes));
    } else {
      merged.codes = sa.codes;
    }
    if (!out.AddSet(std::move(merged)).ok()) return std::nullopt;
  }
  for (const SetClause& sb : b.sets_) {
    if (a.FindSet(sb.attr) == nullptr) {
      if (!out.AddSet(sb).ok()) return std::nullopt;
    }
  }
  return out;
}

Predicate Predicate::WithRange(const RangeClause& clause) const {
  Predicate out;
  for (const RangeClause& r : ranges_) {
    if (r.attr != clause.attr) InsertSorted(&out.ranges_, r);
  }
  for (const SetClause& s : sets_) {
    if (s.attr != clause.attr) InsertSorted(&out.sets_, s);
  }
  InsertSorted(&out.ranges_, clause);
  return out;
}

Predicate Predicate::WithSet(SetClause clause) const {
  Predicate out;
  for (const RangeClause& r : ranges_) {
    if (r.attr != clause.attr) InsertSorted(&out.ranges_, r);
  }
  for (const SetClause& s : sets_) {
    if (s.attr != clause.attr) InsertSorted(&out.sets_, s);
  }
  std::sort(clause.codes.begin(), clause.codes.end());
  clause.codes.erase(std::unique(clause.codes.begin(), clause.codes.end()),
                     clause.codes.end());
  InsertSorted(&out.sets_, std::move(clause));
  return out;
}

double Predicate::Volume(const DomainMap& domains) const {
  double vol = 1.0;
  for (const RangeClause& r : ranges_) {
    auto it = domains.find(r.attr);
    if (it == domains.end()) continue;
    double width = it->second.hi - it->second.lo;
    if (width <= 0.0) continue;  // degenerate domain: clause can't narrow it
    double lo = std::max(r.lo, it->second.lo);
    double hi = std::min(r.hi, it->second.hi);
    vol *= std::max(0.0, hi - lo) / width;
  }
  for (const SetClause& s : sets_) {
    auto it = domains.find(s.attr);
    if (it == domains.end()) continue;
    if (it->second.cardinality <= 0) continue;
    vol *= static_cast<double>(s.codes.size()) /
           static_cast<double>(it->second.cardinality);
  }
  return vol;
}

size_t Predicate::Hash() const {
  // operator== compares doubles by value, so both zeros hash alike.
  auto canonical = [](double v) { return v == 0.0 ? 0.0 : v; };
  Fingerprinter fp;
  fp.U64(ranges_.size());
  for (const RangeClause& r : ranges_) {
    fp.Str(r.attr).Double(canonical(r.lo)).Double(canonical(r.hi));
    fp.U64(r.hi_inclusive ? 1 : 0);
  }
  fp.U64(sets_.size());
  for (const SetClause& s : sets_) {
    fp.Str(s.attr).U64(s.codes.size());
    for (int32_t code : s.codes) fp.U64(static_cast<uint32_t>(code));
  }
  return static_cast<size_t>(fp.Finish().lo);
}

std::string Predicate::ToString(const Table* table) const {
  if (IsTrue()) return "TRUE";
  std::vector<std::string> parts;
  // Emit in global attribute order for canonical output.
  size_t ri = 0, si = 0;
  while (ri < ranges_.size() || si < sets_.size()) {
    bool take_range =
        si >= sets_.size() ||
        (ri < ranges_.size() && ranges_[ri].attr < sets_[si].attr);
    if (take_range) {
      const RangeClause& r = ranges_[ri++];
      std::ostringstream os;
      os << r.attr << " in [" << FormatDouble(r.lo) << ", "
         << FormatDouble(r.hi) << (r.hi_inclusive ? "]" : ")");
      parts.push_back(os.str());
    } else {
      const SetClause& s = sets_[si++];
      std::ostringstream os;
      os << s.attr << " in {";
      const Column* col = nullptr;
      if (table != nullptr) {
        auto res = table->ColumnByName(s.attr);
        if (res.ok()) col = *res;
      }
      for (size_t i = 0; i < s.codes.size(); ++i) {
        if (i > 0) os << ", ";
        if (col != nullptr && s.codes[i] >= 0 &&
            s.codes[i] < col->Cardinality()) {
          os << "'" << col->dictionary()[static_cast<size_t>(s.codes[i])]
             << "'";
        } else {
          os << s.codes[i];
        }
      }
      os << "}";
      parts.push_back(os.str());
    }
  }
  return Join(parts, " & ");
}

}  // namespace scorpion
