// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--quick] [--spans <path>]
//
// Runs one workload, checks its outputs, and prints one JSON object as the
// last line of standard output: {correct, attempted, failed, metrics, ...}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, from a traced run (see trace.h). perfbench/run.py
// builds this program and wraps it; see perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "common/failpoint.h"
#include "common/json.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using scorpion::JsonValue;

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--quick] [--spans <path>]\n",
               message);
  return 2;
}

bool KnownWorkload(const std::string& name) {
  return name == "synth_cold" || name == "expense_service" ||
         name == "sensor_live" || name == "synth_scatter";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (flag == "--spans" && has_value) {
      spans_path = argv[++i];
    } else if (flag == "--quick") {
      args.quick = true;
    } else {
      return Usage(("unknown argument " + flag).c_str());
    }
  }
  if (!KnownWorkload(args.workload)) return Usage("unknown --workload");
  if (!(args.seconds > 0.0)) return Usage("--seconds must be positive");

  // Validity guards: numbers from a debug build or with faults armed are not
  // measurements of the system.
#ifndef NDEBUG
  return Usage("refusing to run: built without NDEBUG");
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    return Usage("refusing to run: not a Release build");
  }
  if (std::getenv("SCORPION_FAILPOINTS") != nullptr) {
    return Usage("refusing to run: SCORPION_FAILPOINTS is set");
  }
  if (!scorpion::failpoints::ArmedNames().empty()) {
    return Usage("refusing to run: failpoints are armed");
  }

  // Every thread of the run shares one CPU. The workloads hand requests
  // between threads (service workers, collector, loopback workers) thousands
  // of times per explain; on a shared VM a handoff to an idle CPU waits for
  // that CPU to be woken, which takes anywhere from microseconds to
  // milliseconds, and that wait, not the program, would set the latency.
  const int cpu = perfbench::PinToOneCpu();

  perfbench::Report report;
  perfbench::Tracer tracer(args.trace);
  if (args.workload == "synth_cold") {
    perfbench::RunSynthCold(args, &tracer, &report);
  } else if (args.workload == "expense_service") {
    perfbench::RunExpenseService(args, &tracer, &report);
  } else if (args.workload == "sensor_live") {
    perfbench::RunSensorLive(args, &tracer, &report);
  } else {
    perfbench::RunSynthScatter(args, &tracer, &report);
  }
  if (args.trace && !spans_path.empty() &&
      !tracer.WriteJsonLines(spans_path)) {
    report.Fail("cannot write " + spans_path);
  }
  report.metrics["peak_rss_mb"] = perfbench::PeakRssMb();
  if (scorpion::failpoints::TotalTripped() != 0) {
    report.Fail("a failpoint fired during the run");
  }
  if (report.attempted == 0) report.Fail("no request was attempted");

  // Every metric of the run's mode, in catalog order. A per-layer metric the
  // workload does not exercise reads 0; a missing end-to-end metric is a bug.
  JsonValue metrics = JsonValue::Object();
  const auto& catalog = args.trace ? perfbench::PerLayerMetrics()
                                   : perfbench::EndToEndMetrics();
  for (const perfbench::MetricSpec& spec : catalog) {
    auto it = report.metrics.find(spec.name);
    if (it == report.metrics.end() && !args.trace) {
      report.Fail(std::string("end-to-end metric not measured: ") + spec.name);
    }
    JsonValue entry = JsonValue::Object();
    entry.Add("value",
              JsonValue::Number(it == report.metrics.end() ? 0.0 : it->second));
    entry.Add("unit", JsonValue::String(spec.unit));
    metrics.Add(spec.name, std::move(entry));
  }

  JsonValue host = JsonValue::Object();
  host.Add("nproc", JsonValue::Number(std::thread::hardware_concurrency()));
  host.Add("compiler", JsonValue::String(PERFBENCH_COMPILER));
  host.Add("build_type", JsonValue::String(PERFBENCH_BUILD_TYPE));
  host.Add("cpu", JsonValue::Number(cpu));

  JsonValue deterministic = JsonValue::Object();
  for (const auto& [name, value] : report.deterministic) {
    deterministic.Add(name, JsonValue::Number(value));
  }
  JsonValue errors = JsonValue::Array();
  for (const std::string& error : report.errors) {
    errors.Append(JsonValue::String(error));
  }

  JsonValue out = JsonValue::Object();
  out.Add("correct", JsonValue::Bool(report.correct));
  out.Add("attempted",
          JsonValue::Number(static_cast<double>(report.attempted)));
  out.Add("failed", JsonValue::Number(static_cast<double>(report.failed)));
  out.Add("metrics", std::move(metrics));
  out.Add("workload", JsonValue::String(args.workload));
  out.Add("seed", JsonValue::Number(static_cast<double>(args.seed)));
  out.Add("trace", JsonValue::Bool(args.trace));
  out.Add("host", std::move(host));
  out.Add("detail", std::move(report.detail));
  out.Add("ratios", std::move(report.ratios));
  out.Add("deterministic", std::move(deterministic));
  out.Add("errors", std::move(errors));
  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  }
  std::printf("%s\n", out.Dump().c_str());
  return report.correct ? 0 : 1;
}
