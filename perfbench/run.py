#!/usr/bin/env python3
"""Build the programs from source and run one benchmark workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload cli_report --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py compare BASE_RESULTS NEW_RESULTS

Everything the run writes stays under .bench_build/ in the checkout:
the Go build cache, the binaries (gprof, gprofd and tracecheck built
from the tree, and the perfbench program), the generated inputs, the
trace artifacts and one result record per run (.bench_build/work/results/).
The last line of standard output is the result object; the exit code is
nonzero, with no result printed, when the programs cannot be built.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOMODCACHE", "gomod"),
                     ("GOPATH", "gopath"), ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env["GOWORK"] = "off"
    env["GOTOOLCHAIN"] = "local"
    env["GOPROXY"] = "off"
    env["GOTELEMETRY"] = "off"
    return env


def build(env):
    steps = [
        (ROOT, ["go", "build", "-o", BIN + os.sep, "./cmd/gprof", "./cmd/gprofd", "./cmd/tracecheck"]),
        (HERE, ["go", "build", "-o", os.path.join(BIN, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        if not os.path.isfile(os.path.join(cwd, "go.mod")):
            sys.stderr.write("perfbench: %s has no go.mod; run from a checkout of the repository\n" % cwd)
            return False
        proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        if proc.returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n%s" % (" ".join(cmd), proc.stderr.decode()))
            return False
    return True


def main():
    env = go_env()
    if not build(env):
        return 2
    args = sys.argv[1:]
    if args and args[0] == "compare":
        cmd = [os.path.join(BIN, "perfbench")] + args
    else:
        cmd = [os.path.join(BIN, "perfbench")] + args + [
            "--bin", BIN, "--work", os.path.join(BUILD, "work"), "--root", ROOT]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
