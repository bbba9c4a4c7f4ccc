#!/usr/bin/env python3
"""Self-test of the arsf benchmark (perfbench/).

Runs every workload named in BENCHMARK.json in --tiny mode, untraced and
traced, and checks each result line against
BENCHMARK.json: it is the last stdout line and holds exactly
correct/attempted/failed/metrics, the run is
correct with failed == 0, every end-to-end (untraced) or per-layer (traced)
metric is printed with its unit, end-to-end values are positive,
failed_ratio is 0, and the layers each workload calls report non-zero work.
Then it checks that a directory holding only BENCHMARK.json and perfbench/
fails without printing a result.

    python3 perfbench/selftest.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FAMILIES = ("table1", "table2", "fig4", "bnb", "misc")

# Per-layer metrics that must be non-zero on each workload: the layers it calls.
EXERCISED = {
    "paper-batches": [
        prefix + family
        for prefix in ("scenario.runner.batch_s.", "sim.engine.busy_s.",
                       "sim.engine.critical_s.", "scenario.runner.pool_efficiency.",
                       "sim.engine.worlds.")
        for family in FAMILIES
    ] + ["attack.decide_calls.table1", "attack.decide_s.table1", "attack.memo_states.table1",
         "sim.engine.bnb_classes_evaluated", "process.cpu_s", "trace.overhead_ratio"],
    "sweep-shared": [
        "scenario.sweep.expand_s", "scenario.result_cache.canonicalise_s",
        "scenario.analysis_s", "scenario.sink.csv_s", "scenario.sink.bytes",
        "scenario.sweep.checkpoint_s", "scenario.result_cache.fresh_evals",
        "scenario.result_cache.inserts", "scenario.result_cache.entries",
        "scenario.result_cache.bytes", "process.cpu_s", "trace.overhead_ratio",
    ],
    "serve-mixed": [
        "serve.protocol.parse_us", "serve.protocol.request_cost_us",
        "scenario.result_cache.lookup_us", "scenario.runner.run_us",
        "scenario.runner.hog_run_ms", "serve.protocol.frame_us",
        "serve.server.requests_completed", "serve.server.frames_written",
        "serve.server.start_ms", "scenario.result_cache.hits",
        "scenario.result_cache.fresh_evals", "serve.journal.record_us",
        "serve.journal.frame_sync_us", "serve.journal.bytes_per_req",
        "serve.journal.open_ms", "process.cpu_s", "trace.overhead_ratio",
    ],
}


def run(args, cwd, env=None):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
                          cwd=cwd, env=env, stdout=subprocess.PIPE, text=True, timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_result(bench, workload, trace):
    """Failure messages of one tiny run (empty when it passes)."""
    label = "%s trace=%d" % (workload, trace)
    code, lines = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                       "--trace", str(trace), "--tiny"], ROOT)
    if code != 0 or not lines:
        return ["%s: exit %d" % (label, code)]
    result = json.loads(lines[-1])
    failures = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        failures.append("%s: result keys %s" % (label, sorted(result)))
    if result.get("correct") is not True or result.get("failed") != 0 or \
            result.get("attempted", 0) < 1:
        failures.append("%s: not a correct run: %s" % (label, lines[-1][:200]))
    defs = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(d["name"] for d in defs):
        failures.append("%s: printed metrics differ from BENCHMARK.json" % label)
    for d in defs:
        metric = metrics.get(d["name"], {})
        value = metric.get("value")
        if metric.get("unit") != d["unit"] or not isinstance(value, (int, float)) or \
                not math.isfinite(value):
            failures.append("%s: %s printed as %s" % (label, d["name"], metric))
        elif not trace and value <= 0:
            failures.append("%s: end-to-end %s is %s" % (label, d["name"], value))
    if trace and not failures:
        if metrics["failed_ratio"]["value"] != 0:
            failures.append("%s: failed_ratio %s" % (label, metrics["failed_ratio"]["value"]))
        failures += ["%s: %s is 0" % (label, name) for name in EXERCISED[workload]
                     if metrics[name]["value"] <= 0]
    print("%-4s %s" % ("ok" if not failures else "FAIL", label))
    return failures


def check_bare_directory():
    """Only BENCHMARK.json and perfbench/: the run must fail without a result."""
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    code, lines = run(["--workload", "paper-batches", "--seed", "1", "--seconds", "1",
                       "--trace", "0"], bare, env)
    shutil.rmtree(bare, ignore_errors=True)
    ok = code != 0 and not (lines and lines[-1].startswith("{"))
    print("%-4s bare directory fails without a result" % ("ok" if ok else "FAIL"))
    return [] if ok else ["bare directory: exit %d, last line %r" % (code, lines[-1:])]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            failures += check_result(bench, workload, trace)
    failures += check_bare_directory()
    for failure in failures:
        print("FAIL:", failure)
    print("selftest: %s" % ("OK" if not failures else "%d failure(s)" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
