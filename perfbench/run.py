#!/usr/bin/env python3
"""Build the benchmark and the `ldp` worker binary, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Both builds go to $CARGO_TARGET_DIR (default: .bench_build at the
repository root); a build that is up to date costs well under a second.
Build output goes to stderr. The benchmark's own output follows, and its
last stdout line is the JSON result. The exit code is the benchmark's,
or 1 when a build fails (as it does outside a full checkout).
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join(root, "Cargo.toml"), "-p", "ldp-sim", "--bin", "ldp"],
        ["--manifest-path", os.path.join(root, "perfbench", "Cargo.toml"), "--bin", "perfbench"],
    ]
    for args in builds:
        build = ["cargo", "build", "--release", "--offline", "--quiet"] + args
        if subprocess.run(build, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(build), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    bench = [os.path.join(release, "perfbench")] + sys.argv[1:]
    bench += ["--ldp", os.path.join(release, "ldp")]
    return subprocess.run(bench, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
