#!/usr/bin/env python3
"""Build the repository benchmark from source and run one measurement.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: the benchmark builds the simai library
from ../src together with perfbench/src into .bench_build/ at the checkout
root (CMake, Release), then runs the perfbench binary. Its standard output
ends with one JSON object {"correct", "attempted", "failed", "metrics"};
--trace 0 reports BENCHMARK.json's end_to_end metrics and --trace 1 its
per_layer metrics. Exits non-zero, without a result line, when the sources
are missing or the build fails, and non-zero when a fingerprint mismatches.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_rev():
    """Digest of the sources the binary is built from, plus the git revision
    when the checkout is a git repository."""
    h = hashlib.sha1()
    for top in ("src", HERE.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    rev = "tree:" + h.hexdigest()[:16]
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if git.returncode == 0:
            rev += " git:" + git.stdout.strip()[:12]
    except (OSError, subprocess.SubprocessError):
        pass
    return rev


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simai sources under {ROOT / 'src'}")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return BUILD / "perfbench"


def check_metrics(result, trace):
    """Every metric BENCHMARK.json names for this mode, each with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    for m in wanted:
        if m["name"] not in got:
            fail(f"metric {m['name']} missing from the result", 3)
        if got[m["name"]]["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got[m['name']]['unit']}, "
                 f"BENCHMARK.json says {m['unit']}", 3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale,
           "--references", str(HERE / "references.json"),
           "--source-rev", source_rev()]
    if args.trace:
        spans = BUILD / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}.csv")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"benchmark printed no result (exit {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last line is not a result (exit {proc.returncode})")
    if proc.returncode == 0:
        check_metrics(result, args.trace)
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
