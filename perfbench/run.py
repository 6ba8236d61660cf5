#!/usr/bin/env python3
"""Build and run the repository benchmark (one workload per process).

Run from the root of a checkout:

    python3 perfbench/run.py --workload read_uncached --seed 1 --seconds 30 --trace 0

The first call configures and builds perfbench/ (which compiles the library
from ../src) into the build directory: $CARGO_TARGET_DIR if set, else
.bench_build. Build output goes to stderr; the benchmark's own output goes
to stdout, whose last line is the result JSON. --scale and --corrupt-oracle
are passed through for the self-test (perfbench/selftest.py).
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Configures (once) and builds; returns the binary path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return None
    binary = os.path.join(out, "perfbench")
    return binary if os.access(binary, os.X_OK) else None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--corrupt-oracle", action="store_true")
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "runtime",
                                       "sharded_engine.cc")):
        print("perfbench: no library sources next to perfbench/",
              file=sys.stderr)
        return 1
    out = build_dir()
    binary = build(out)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    tmp = os.path.join(out, "run-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--tmp", tmp]
    if args.scale is not None:
        cmd += ["--scale", repr(args.scale)]
    if args.corrupt_oracle:
        cmd.append("--corrupt-oracle")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
