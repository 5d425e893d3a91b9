#!/usr/bin/env python3
"""Builds mmtag and its benchmark from source, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 10 --trace 0

Workloads: campaign, serve-hit, serve-miss. `--trace 1` prints the
per-layer metrics instead of the end-to-end ones and writes a span file.
Build output goes to standard error; the last line of standard output is
the result as one JSON object. Binaries and scratch files go to
$CARGO_TARGET_DIR (default .bench_build).
"""

import os
import subprocess
import sys


def main():
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        print("perfbench: run from the repository root", file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        # The daemon, from the repository's own workspace.
        ["cargo", "build", "--release", "--quiet", "-p", "mmtag-cli", "--bin", "mmtag"],
        # The benchmark: a package of its own.
        ["cargo", "build", "--release", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "mmtag-perfbench"),
        *sys.argv[1:],
        "--mmtag",
        os.path.join(release, "mmtag"),
        "--work-dir",
        os.path.join(target, "perfbench"),
    ]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
