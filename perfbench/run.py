#!/usr/bin/env python3
"""Build the perfbench harness from source and run it.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

The harness is built into .bench_build/ (with its Go build cache there
too), then run with the arguments given. The exit code is the harness's;
a failed build exits non-zero without printing a result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOFLAGS="-mod=readonly -buildvcs=false",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([exe] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
