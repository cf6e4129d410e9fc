#!/usr/bin/env python3
"""Build tracevmd and the benchmark from source, then run the benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload warm-plain --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py compare BASE.json NEW.json

Everything the build and the run write stays under .bench_build/ in the
checkout: the Go build cache, both binaries, results and span files.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def build_env():
    env = dict(os.environ)
    # XDG_CONFIG_HOME keeps the go command's telemetry counters in the
    # checkout too.
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOPATH", "gopath"),
                     ("XDG_CONFIG_HOME", "config")):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    # Build only from the checkout: no module downloads, no toolchain switch,
    # no workspace file from outside.
    env.update(GOPROXY="off", GOTOOLCHAIN="local", GOWORK="off", GOFLAGS="")
    return env


def go_build(env, cwd, out, pkg):
    proc = subprocess.run(["go", "build", "-o", out, pkg], cwd=cwd, env=env)
    if proc.returncode != 0:
        sys.exit("perfbench: building %s failed" % pkg)


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: no go.mod at %s: run from a checkout of the repository" % ROOT)
    env = build_env()
    daemon = os.path.join(BUILD, "tracevmd")
    bench = os.path.join(BUILD, "perfbench")
    go_build(env, ROOT, daemon, "./cmd/tracevmd")
    go_build(env, os.path.join(ROOT, "perfbench"), bench, ".")
    args = sys.argv[1:]
    if not (args and args[0] == "compare"):
        args += ["--daemon", daemon, "--out", os.path.join(BUILD, "out")]
    proc = subprocess.run([bench] + args, cwd=ROOT)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
