#!/usr/bin/env python3
"""Builds and runs the federation benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload serial_paper|server_mix|paged_dml \
        --seed N --seconds S --trace 0|1 [--tiny] [--corrupt answer|model]

The first run configures and builds perfbench/ (a CMake project that
compiles ../src) in Release mode under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs only
rebuild what changed. Build output goes to stderr. The benchmark's
standard output is passed through unchanged: its last line is the result
object. The exit status is the benchmark's, or 3 when the build fails.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(REPO, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the benchmark; True on success."""
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Concurrent runs in one checkout share the build tree: serialize.
    with open(os.path.join(out_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out_dir, "--target", "fedbench",
                      "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                return False
    return True


def main(argv):
    out_dir = build_dir()
    if not build(out_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    binary = os.path.join(out_dir, "fedbench")
    data_dir = os.path.join(out_dir, "data")
    done = subprocess.run([binary, "--data-dir", data_dir] + argv)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
