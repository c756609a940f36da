#!/usr/bin/env python3
"""Build the edge benchmark and run it.

Run from the root of the repository:

    python3 edgebench/run.py --workload edge_hot --seed 1 --seconds 20 --trace 0
    python3 edgebench/run.py --workload all --seed 1 --seconds 20 --trace 0

The first form builds `edgebench` (release, offline) and runs one workload
in a child process; its last output line is the result JSON. The second
runs every workload, each in its own process, and prints each result.
Build output goes to standard error. `CARGO_TARGET_DIR` chooses the build
directory (default `edgebench/target`).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["edge_hot", "sbr_flood", "obr_cascade", "defended_mix"]
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark binary and returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    # Cargo resolves a relative CARGO_TARGET_DIR against its working
    # directory, which is ours.
    target = os.path.abspath(target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    result = subprocess.run(cmd, stdout=sys.stderr, env=dict(os.environ, CARGO_TARGET_DIR=target))
    if result.returncode != 0:
        sys.exit(f"edgebench: build failed (exit {result.returncode})")
    return os.path.join(target, "release", "edgebench")


def run_one(exe, args):
    """Runs the binary with `args`, passing its output through."""
    try:
        return subprocess.run([exe] + args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the child and waited for it.
        print(f"edgebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


def main(argv):
    exe = build()
    if "--workload" in argv and argv[argv.index("--workload") + 1:][:1] == ["all"]:
        at = argv.index("--workload")
        rest = argv[:at] + argv[at + 2:]
        codes = [run_one(exe, ["--workload", w] + rest) for w in WORKLOADS]
        return max(codes)
    return run_one(exe, argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
