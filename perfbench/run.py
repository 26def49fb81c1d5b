#!/usr/bin/env python3
"""Build and run the benchmark from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench/ in release mode (into $CARGO_TARGET_DIR, default
.bench_build), then runs it. `--workload all` runs the four workloads one
after another, each in its own process, and prints every metric of each.
Exits non-zero, without printing a result, if the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["quick-suite", "full-16sm", "replay", "event-trace"]


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    # Cargo's own output goes to stderr; stdout carries only the result.
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "perfbench")


def main(argv):
    exe = build()
    if "all" in argv:
        i = argv.index("all")
        status = 0
        for name in WORKLOADS:
            argv[i] = name
            status |= subprocess.run([exe] + argv).returncode
        return status
    return subprocess.run([exe] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
