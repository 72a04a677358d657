#!/usr/bin/env python3
"""Build and run one workload of the owlcl benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
perfbench/ (the owlcl libraries from src/ plus the benchmark program) in
Release mode under $CARGO_TARGET_DIR, or .bench_build when that is unset;
later calls only rebuild what changed. Build output goes to stderr, so the
last line on stdout is the JSON result. See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("classify-el", "classify-expressive", "serve-read", "serve-delta")
# A run measures for --seconds plus its set-up; anything far beyond that
# is a hang, and the run is stopped rather than left running.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs,
                    "--target", "owlcl_perfbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "owlcl_perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    a = p.parse_args()
    if a.seed < 0 or not 0 < a.seconds <= 600:
        p.error("--seed must be >= 0 and --seconds in (0, 600]")

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", a.trace,
           "--work-dir", os.path.join(out, "work")]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
