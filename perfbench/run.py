#!/usr/bin/env python3
"""Build and run the lib·erate performance benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <learn|deploy|adapt> --seed <n> \
        --seconds <s> --trace <0|1>

Builds the `perfbench` package in release mode (into $CARGO_TARGET_DIR,
default `.bench_build` at the repository root), then runs it with the
same arguments. The benchmark prints progress to stderr and, as the last
line of stdout, one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. Exits non-zero, printing no result, if the build
or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
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
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "liberate-perfbench")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
