#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <churn-serve|serve-hub|paper-grid> \
        --seed <n> --seconds <s> --trace <0|1> [--seed2 <n>] [--short]

Run it from the repository root. Cargo builds the `perfbench` package
(and with it the stack, from source) into $CARGO_TARGET_DIR, or
`.bench_build` when that is unset; build output goes to standard error.
The benchmark writes its full record under `perfbench/records/`
(`perfbench/records/short/` for --short) and prints as the last line of
standard output one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. The exit code is the build's when it fails,
otherwise the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "khop-perfbench")
    run = subprocess.run(
        [exe, *sys.argv[1:], "--out-dir", os.path.join(HERE, "records")],
        cwd=ROOT, env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
