#!/usr/bin/env python3
"""Build and run the repository benchmark (the Go module in this directory).

Run from the repository root:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Every build product and Go cache goes under .bench_build/ at the root, so
the benchmark reads and writes nothing outside its checkout. The flags are
passed to the benchmark binary unchanged; see perfbench/main.go.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.pop("GOFLAGS", None)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTOOLCHAIN="local",
        GOENV="off",
        CGO_ENABLED="0",
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
    )
    binary = os.path.join(build, "perfbench", "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    os.execve(binary, [binary, "--root", root] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
