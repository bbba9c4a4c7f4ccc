#!/usr/bin/env python3
"""Repeated-run statistics of the arsf benchmark.

Runs each workload --runs times, each run with its own seed, untraced, and
prints for every end-to-end metric the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median next
to the metric's bound from BENCHMARK.json.  With --compare FILE (an earlier
--out summary) it also prints how far each median moved from that one, in
the metric's worse direction, as a share of the earlier median.  With --out
the summary is also written as JSON together with the host facts (the form
of baseline.json).

    python3 perfbench/measure.py [--runs 10] [--workloads a,b] [--seed-base 100]
                                 [--seconds S] [--compare FILE] [--out FILE]
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    """Metric values of one untraced run; raises on a failed or wrong run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d: exit %d" % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError("%s seed %d: incorrect result %s" % (workload, seed, lines[-1]))
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def host_facts():
    facts = {"nproc": os.cpu_count(), "machine": platform.machine(),
             "system": platform.system()}
    cache = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                         "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            for line in f:
                key, _, value = line.strip().partition("=")
                if key == "CMAKE_BUILD_TYPE:STRING":
                    facts["build_type"] = value
                elif key == "CMAKE_CXX_COMPILER:FILEPATH":
                    version = subprocess.run([value, "--version"], stdout=subprocess.PIPE,
                                             text=True).stdout.splitlines()
                    facts["compiler"] = version[0] if version else value
    return facts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--compare", default="")
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)["workloads"]
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    summary = {"host": host_facts(), "runs": args.runs, "run_seconds": seconds,
               "seed_base": args.seed_base, "workloads": {}}
    worst_spread = (0.0, "")
    worst_drift = (0.0, "")
    for workload in workloads:
        start = time.time()
        values = {}
        for k in range(args.runs):
            for name, value in run_once(workload, args.seed_base + k, seconds).items():
                values.setdefault(name, []).append(value)
        print("%s: %d runs in %.0f s" % (workload, args.runs, time.time() - start))
        rows = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            series = values[name]
            q1, _, q3 = statistics.quantiles(series, n=4)
            mid = statistics.median(series)
            spread = (q3 - q1) / mid if mid else float("inf")
            label = "%s %s" % (workload, name)
            worst_spread = max(worst_spread, (spread / metric["bound"], label))
            rows[name] = {"unit": metric["unit"], "median": mid, "q1": q1, "q3": q3,
                          "spread": spread, "values": series}
            line = ("  %-14s median %-13.6g q1 %-13.6g q3 %-13.6g spread %.3f  (bound %.2f)%s"
                    % (name, mid, q1, q3, spread, metric["bound"],
                       "" if spread <= metric["bound"] / 3 else "  > bound/3"))
            before = earlier.get(workload, {}).get(name)
            if before:
                sign = 1 if metric["better"] == "lower" else -1
                drift = sign * (mid - before["median"]) / before["median"]
                worst_drift = max(worst_drift, (drift / metric["bound"], label))
                line += "  worse by %+.3f%s" % (drift, "  > bound" if drift > metric["bound"]
                                                 else "")
            print(line)
        summary["workloads"][workload] = rows
    print("largest spread / bound: %.2f (%s)" % worst_spread)
    if earlier:
        print("largest median drift / bound: %.2f (%s)" % worst_drift)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
