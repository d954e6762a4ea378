// Shared plumbing of the perfbench program: command-line arguments, the
// per-run report every workload fills in, the metric catalog that report is
// checked against, and small statistics helpers.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "common/status.h"
#include "table/table.h"
#include "trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Short self-test configuration: smaller inputs, same code paths.
  bool quick = false;
};

/// \brief Everything one run measures and checks.
///
/// `metrics` holds the values this workload measured; main() fills every
/// other catalog metric of the run's mode (see PerLayerMetrics) with 0, which
/// for a per-layer metric means "this layer is not on the workload's path".
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Counts that must repeat exactly across runs of the same seed (and
  /// between the timed and the traced run).
  std::map<std::string, double> deterministic;
  /// Numerator and denominator of every ratio metric.
  scorpion::JsonValue ratios = scorpion::JsonValue::Object();
  /// Workload-specific figures shown in the summary (sample counts, which
  /// percentile the tail is, per-algorithm medians, ...).
  scorpion::JsonValue detail = scorpion::JsonValue::Object();
  std::vector<std::string> errors;

  /// Records a correctness failure: the run is no longer correct and the
  /// message is printed with the result.
  void Fail(const std::string& message);
  /// Records a ratio metric together with its numerator and denominator.
  void Ratio(const std::string& name, double numerator, double denominator);
  /// Records a deterministic count as a metric and for the drift check.
  void Count(const std::string& name, double value);
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (emitted by the untraced run, every workload).
const std::vector<MetricSpec>& EndToEndMetrics();
/// Per-layer metrics (emitted by the traced run, every workload).
const std::vector<MetricSpec>& PerLayerMetrics();

/// Nearest-rank quantile of an unsorted sample (0 when empty).
double Quantile(std::vector<double> samples, double q);
double Median(const std::vector<double>& samples);

/// The highest percentile with at least ten samples beyond it. With fewer
/// than 21 samples that percentile is not above the median, and the median
/// stands in (`percentile` then reads 50).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> samples);

/// Records explain_p50_ms / explain_tail_ms from latency samples (ms).
void RecordLatencies(const std::vector<double>& latencies_ms, Report* report);

/// The rows of `table` shuffled by `seed` within each storage block: the
/// rows of every block stay in that block (same zone maps, same groups per
/// block), only their order inside it changes. The workloads' data is a
/// fixed instance; this is what --seed varies on the SYNTH workloads.
scorpion::Result<std::unique_ptr<scorpion::Table>> ShuffledRows(
    const scorpion::Table& table, uint64_t seed);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Binds the calling thread, and so every thread it starts later, to the
/// highest-numbered CPU it may run on; returns that CPU, or -1 on failure.
int PinToOneCpu();
/// Lets the calling thread, and the threads it starts later, run on every
/// CPU again; for work outside the timed window.
void UnpinThisThread();

/// Status → Report failure bridge for the workloads' early returns.
#define PERFBENCH_RETURN_NOT_OK(expr, report)                       \
  do {                                                               \
    const ::scorpion::Status _st = (expr);                           \
    if (!_st.ok()) {                                                 \
      (report)->Fail(std::string(#expr) + ": " + _st.ToString());    \
      return;                                                        \
    }                                                                \
  } while (false)

#define PERFBENCH_ASSIGN_OR_FAIL(lhs, rexpr, report)                 \
  auto PERFBENCH_CONCAT(_res_, __LINE__) = (rexpr);                  \
  if (!PERFBENCH_CONCAT(_res_, __LINE__).ok()) {                     \
    (report)->Fail(std::string(#rexpr) + ": " +                      \
                   PERFBENCH_CONCAT(_res_, __LINE__).status().ToString()); \
    return;                                                          \
  }                                                                  \
  lhs = std::move(*PERFBENCH_CONCAT(_res_, __LINE__))

#define PERFBENCH_CONCAT_INNER(a, b) a##b
#define PERFBENCH_CONCAT(a, b) PERFBENCH_CONCAT_INNER(a, b)

// The workloads. Each fills `report` and never throws; a failed Status or
// a correctness mismatch ends up in report->errors with correct = false.
// `tracer` is enabled only with --trace 1; its spans are written by main.
void RunSynthCold(const Args& args, Tracer* tracer, Report* report);
void RunExpenseService(const Args& args, Tracer* tracer, Report* report);
void RunSensorLive(const Args& args, Tracer* tracer, Report* report);
void RunSynthScatter(const Args& args, Tracer* tracer, Report* report);

}  // namespace perfbench
