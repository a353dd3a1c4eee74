#!/usr/bin/env python3
"""Builds `mdr` and the benchmark harness from source, then runs one
benchmark invocation with the given arguments:

    python3 perfbench/run.py --workload serve-mem --seed 1 --seconds 10 --trace 0

Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
(default `.bench_build`); data directories and span files go to its
`perfbench/` subdirectory. The harness prints a summary on stderr and the
JSON result as the last line of stdout.
"""

import os
import subprocess
import sys


def main():
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates/cli")):
        sys.exit("perfbench: run from the repository root; Cargo.toml or crates/cli is missing")
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    builds = [
        ["--manifest-path", "Cargo.toml", "-p", "mdr-cli"],
        ["--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for build in builds:
        cmd = ["cargo", "build", "--release", "--offline", "-q"] + build
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    release = os.path.join(target, "release")
    harness = os.path.join(release, "perfbench")
    argv = [harness] + sys.argv[1:] + [
        "--mdr", os.path.join(release, "mdr"),
        "--out", os.path.join(target, "perfbench"),
    ]
    os.execv(harness, argv)


if __name__ == "__main__":
    main()
