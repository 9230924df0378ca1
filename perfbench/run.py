#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fig3-mp --seed 0 --seconds 40 --trace 0

Every argument is passed on to the benchmark binary (see README.md).
The build goes to $CARGO_TARGET_DIR, or `.bench_build` at the root of the
repository. With `--trace 1` the Chrome trace of the run is written next
to the binary as `perfbench-trace.json`. The last line of stdout is the
benchmark's JSON result; the exit code is non-zero when the build or the
run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "mempar-perfbench")
    args = sys.argv[1:]
    if "--trace-out" not in args:
        args += ["--trace-out", os.path.join(target, "perfbench-trace.json")]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
