// One explain, split into the public calls a sessionless engine run makes.
//
// Dataset::Explain on a cache-off engine runs, in order: Dataset::Resolve,
// Scorer::Make, DTPartitioner::Run (or MCPartitioner::Run), the partition
// influence reset, ComputeDomains, Merger::Run (DT only), the top-k cut, and
// the response build (display strings plus the what-if view). SplitExplain
// makes the same calls itself, each under its own span, so the traced run
// can time every layer without a span inside the library. Its response must
// equal Dataset::Explain's bit for bit; the workloads check that.
#pragma once

#include <cstdint>
#include <vector>

#include "api/dataset.h"
#include "core/dt.h"
#include "core/mc.h"
#include "core/merger.h"
#include "core/scorer.h"
#include "bench.h"
#include "trace.h"

namespace perfbench {

/// Layer counters of one split explain.
struct SplitCounters {
  scorpion::ScorerStats scorer;
  scorpion::MergerStats merger;
  scorpion::DTStats dt;
  scorpion::MCStats mc;
};

/// Runs `request` against `dataset` as a cache-off engine configured by
/// `engine_options` would, recording one child span per call under
/// `request_id` (the caller opens the request's root span).
scorpion::Result<scorpion::ExplainResponse> SplitExplain(
    const scorpion::Dataset& dataset,
    const scorpion::ScorpionOptions& engine_options,
    const scorpion::ExplainRequest& request, Tracer* tracer,
    uint64_t request_id, SplitCounters* counters);

/// Records the core, predicate and table per-layer counts summed over `runs`
/// and divided by `requests` (per request of the workload), plus their
/// ratios with numerators and denominators.
void RecordSplitCounters(const std::vector<SplitCounters>& runs,
                         double requests, Report* report);

/// True when two responses carry the same answer: algorithm, ranked
/// predicates (clauses, influence bits, display) and what-if view.
bool SameAnswer(const scorpion::ExplainResponse& a,
                const scorpion::ExplainResponse& b);

}  // namespace perfbench
