#!/usr/bin/env python3
"""Builds the FlatStore benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The build tree is .bench_build/perfbench under the checkout root (a
Release build of ../src plus perfbench.cc); the results file and, with
--trace 1, the spans file go to .bench_out/. Build output goes to stderr,
so the last line on stdout is the benchmark's JSON result. The exit code
is the benchmark's: non-zero if the build failed or any check failed.
--seconds runs from 1 to 20 (perfbench rejects longer runs).
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
RUN_TIMEOUT_S = 170


def build():
    """Configures (a no-op once configured) and builds; returns the binary."""
    generator = []
    if shutil.which("ninja") and not (BUILD_DIR / "Makefile").exists():
        generator = ["-G", "Ninja"]
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                    "-DCMAKE_BUILD_TYPE=Release", *generator],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD_DIR),
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return BUILD_DIR / "perfbench"


def commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be >= 0")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--out", str(OUT_DIR / f"{stem}.json"),
           "--spans", str(OUT_DIR / f"{stem}.spans.jsonl"),
           "--commit", commit()]
    try:
        # subprocess.run kills and reaps the child on timeout.
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
