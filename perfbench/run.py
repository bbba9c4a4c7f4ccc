#!/usr/bin/env python3
"""Entry point of the arsf benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Builds perfbench/ -- the arsf library from src/ plus the driver in
perfbench/src/ -- into the build directory ($CARGO_TARGET_DIR, default
.bench_build, relative to the repository root), then runs the driver from
the repository root.  The driver's last stdout line is the result JSON;
build output goes to stderr.  Exits non-zero without a result when the
sources are missing, the build fails or the run exceeds its time limit.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build(build_dir, env):
    """Configures (once) and builds the driver; True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "scenario", "runner.h")):
        print("perfbench: no arsf sources (src/) next to perfbench/", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            return False
    return True


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    # Compiler and driver temporaries stay inside the build directory.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    if not build(build_dir, env):
        return 2
    command = [
        os.path.join(build_dir, "arsf_perfbench"),
        "--inputs", os.path.join(HERE, "inputs"),
        "--work", os.path.join(build_dir, "runs"),
    ] + sys.argv[1:]
    try:
        return subprocess.run(command, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
