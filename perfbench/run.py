#!/usr/bin/env python3
"""The repository's benchmark: build, run one workload, check, report.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py [--seed <n> --seconds <s> --trace <0|1>]
  python3 perfbench/run.py --self-test

The first form builds perfbench/ (and with it the library, from src/) into
$CARGO_TARGET_DIR (default .bench_build), runs the workload, checks its
outputs and prints a summary, then one JSON object as the last line of
standard output: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer ones (from a traced run; its spans are written to
<build>/traces/). It exits 1 when any output check fails. Without
--workload it runs every workload in turn and prints their summaries.

--self-test runs every workload in a short configuration on a seed other
than the default, in both modes, and checks that each passes its
correctness gate, that every metric it emits is declared in BENCHMARK.json,
and that the synth_cold layer self times account for the untraced explain
time (within 5%).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["synth_cold", "expense_service", "sensor_live", "synth_scatter"]
DEFAULT_SEED = 1
SELF_TEST_SEED = 7
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    return os.path.join(path, "perfbench")


def build():
    """Configures (once) and builds the benchmark program; returns its path
    or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # A build system exists only after a configure step that succeeded.
    if not any(os.path.exists(os.path.join(out, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            log(result.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(step))
            return None
    return os.path.join(out, "perfbench")


def declared_metrics():
    """(end-to-end names, per-layer names) from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def git_commit():
    """The checkout's commit, or None outside a git repository."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return None
    return head.stdout.strip() if head.returncode == 0 else None


def source_digest():
    """Digest of every file the build reads, so results and recorded counts
    are tied to the code that produced them (uncommitted edits included)."""
    digest = hashlib.sha256()
    for top in ["CMakeLists.txt", "src", "perfbench"]:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for path in paths:
            if path.endswith(".md") or "__pycache__" in path:
                continue
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def run_binary(binary, workload, seed, seconds, trace, quick=False):
    """Runs one workload; returns (exit code, parsed result or None)."""
    os.makedirs(os.path.join(build_dir(), "traces"), exist_ok=True)
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        command += ["--spans", os.path.join(
            build_dir(), "traces", "%s-seed%d.jsonl" % (workload, seed))]
    if quick:
        command.append("--quick")
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % workload)
        return 1, None
    if result.stderr:
        log(result.stderr.rstrip())
    lines = result.stdout.strip().splitlines()
    try:
        return result.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return result.returncode or 1, None


def check_names(result, trace):
    """Errors for emitted metric names that BENCHMARK.json does not declare
    (or declared names that were not emitted)."""
    end_to_end, per_layer = declared_metrics()
    want = set(per_layer if trace else end_to_end)
    got = set(result["metrics"])
    errors = []
    if got - want:
        errors.append("undeclared metrics: " + ", ".join(sorted(got - want)))
    if want - got:
        errors.append("declared metrics not emitted: " +
                      ", ".join(sorted(want - got)))
    return errors


def check_counts(result, seconds, digest):
    """Deterministic counts must repeat exactly across runs of one seed (and
    run length) of the same sources, timed or traced; the first run records
    them."""
    path = os.path.join(build_dir(), "counts", "%s-%s-seed%d-%gs.json" % (
        digest, result["workload"], result["seed"], seconds))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    errors = []
    for name, value in result.get("deterministic", {}).items():
        if name in known and known[name] != value:
            errors.append("count %s drifted: %r before, %r now" % (
                name, known[name], value))
        known.setdefault(name, value)
    with open(path, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    return errors


def summarize(result, stamp):
    print("perfbench %s seed=%d trace=%d  %s" % (
        result["workload"], result["seed"], 1 if result["trace"] else 0,
        json.dumps(stamp, sort_keys=True)))
    for name, metric in result["metrics"].items():
        print("  %-44s %16.6g %s" % (name, metric["value"], metric["unit"]))
    attempted = result["attempted"]
    print("  %-44s %16.6g %s" % ("failed_share", result["failed"] / attempted
                                 if attempted else 1.0, "share"))
    for name, value in result.get("detail", {}).items():
        print("  detail %-37s %s" % (name, json.dumps(value)))
    for error in result.get("errors", []):
        print("  ERROR " + error)


def run_one(binary, workload, seed, seconds, trace):
    """Runs, checks, records and summarizes one workload; returns the
    result line, or None when the workload produced none."""
    code, result = run_binary(binary, workload, seed, seconds, trace)
    if result is None:
        log("perfbench: %s produced no result (exit %d)" % (workload, code))
        return None
    digest = source_digest()
    errors = check_names(result, trace) + check_counts(result, seconds,
                                                       digest)
    result["errors"] = result.get("errors", []) + errors
    correct = result["correct"] and code == 0 and not errors
    stamp = dict(result.get("host", {}))
    stamp.update(commit=git_commit(), source_digest=digest, seed=seed,
                 workload=workload)
    record = dict(result, stamp=stamp, correct=correct)
    os.makedirs(os.path.join(build_dir(), "results"), exist_ok=True)
    with open(os.path.join(build_dir(), "results", "%s-seed%d-trace%d.json" % (
            workload, seed, 1 if trace else 0)), "w") as f:
        json.dump(record, f, indent=1)
    summarize(record, stamp)
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": result["metrics"]}


def self_test():
    binary = build()
    if binary is None:
        return 1
    failures = []
    end_to_end, per_layer = declared_metrics()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared_workloads = [w["name"] for w in json.load(f)["workloads"]]
    if sorted(declared_workloads) != sorted(WORKLOADS):
        failures.append("BENCHMARK.json workloads %s != %s" % (
            declared_workloads, WORKLOADS))
    for workload in WORKLOADS:
        for trace in (False, True):
            code, result = run_binary(binary, workload, SELF_TEST_SEED, 3,
                                      trace, quick=True)
            label = "%s trace=%d" % (workload, trace)
            if result is None or code != 0 or not result["correct"]:
                failures.append("%s: correctness gate failed (exit %d): %s" % (
                    label, code, result and result.get("errors")))
                continue
            failures += ["%s: %s" % (label, e)
                         for e in check_names(result, trace)]
            if workload == "synth_cold" and trace:
                coverage = result["metrics"]["trace.coverage"]["value"]
                if abs(coverage - 1.0) > 0.05:
                    failures.append(
                        "%s: layer self times cover %.3f of the untraced "
                        "explain median (want 1 +/- 0.05)" % (label, coverage))
            log("self-test %s ok" % label)
    for failure in failures:
        log("self-test FAILED: " + failure)
    log("self-test %s" % ("failed" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    binary = build()
    if binary is None:
        return 1
    trace = bool(args.trace)
    if args.workload is None:
        # Every workload in turn, summaries only.
        results = [run_one(binary, workload, args.seed, args.seconds, trace)
                   for workload in WORKLOADS]
        return 0 if all(r is not None and r["correct"] for r in results) else 1
    result = run_one(binary, args.workload, args.seed, args.seconds, trace)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
