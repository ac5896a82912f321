#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload read-hot --seed 1 --seconds 25 --trace 0

The Go program is built from source into the build directory
($CARGO_TARGET_DIR, else .bench_build), with the Go build cache, module
cache and tool state kept there too, so nothing is written outside the
checkout. Every argument is passed on to the program; traces go to
<build dir>/perfbench. The exit code is the program's, or 1 when the
build fails.
"""

import os
import subprocess
import sys

# The program stops itself after --seconds plus one repetition; this only
# guards against a hang.
RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    out = os.path.join(build, "perfbench")
    for d in ("go-cache", "go-path", "go-tmp", "config"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "go-cache"),
        GOPATH=os.path.join(build, "go-path"),
        GOMODCACHE=os.path.join(build, "go-path", "mod"),
        GOTMPDIR=os.path.join(build, "go-tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        HOME=os.path.join(build, "config"),
        GOENV="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    binary = os.path.join(out, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        ran = subprocess.run([binary, *sys.argv[1:], "--out", out], cwd=root, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
