#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload olap-rcf --seed 1 --seconds 10 --trace 0

The arguments go to the benchmark (perfbench/main.go). Everything the
build and the run write stays under the build directory (.bench_build,
or $CARGO_TARGET_DIR when set), including Go's build cache. The exit
code is the benchmark's; a failed build exits non-zero before any result
is printed.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(root, "go.mod")):
        sys.exit("perfbench: run from the repository root (no go.mod here)")
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "go-cache"),
        GOPATH=os.path.join(build, "go-path"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-buildvcs=false",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit("perfbench: build failed")
    os.execv(binary, [binary, "-root", root, "-scratch", build] + sys.argv[1:])


if __name__ == "__main__":
    main()
