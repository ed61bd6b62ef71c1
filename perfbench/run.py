#!/usr/bin/env python3
"""Builds and runs the repository benchmark (gcgt_perfbench).

Run from the repository root:

    python3 perfbench/run.py --workload web-bfs-miss --seed 1 --seconds 10 --trace 0

The first run configures and builds the benchmark and the library into
.bench_build/perfbench (build output goes to stderr); later runs rebuild
only what changed. The benchmark's stdout passes through unchanged, so its
last line is the result JSON. The exit code is the benchmark's, or 2 when
the build fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
BINARY = os.path.join(BUILD, "gcgt_perfbench")
RUN_TIMEOUT_S = 170


def build(env):
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "gcgt_perfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(WORK, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
