#!/usr/bin/env python3
"""Smoke tests of the benchmark itself, at reduced scale.

    python3 perfbench/smoke_test.py

For every workload, at smoke scale (perfbench/src/workloads.cpp):
  * a timed run and a traced run match their reference fingerprints and
    print every BENCHMARK.json metric of their mode with its unit;
  * a timed run against a deliberately perturbed reference counts its timed
    calls as failed, reports correct = false and exits non-zero.
Then run.py, copied into a directory holding only BENCHMARK.json and the
benchmark's paths, must exit non-zero without printing a result.
Exits 0 when every check passes.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def run_py(workload, trace):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--scale", "smoke"],
        capture_output=True, text=True, timeout=900)


def main():
    for w in SPEC["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_py(name, trace)
            r = result_of(proc.stdout)
            check(proc.returncode == 0 and r is not None and r["correct"]
                  and r["failed"] == 0 and r["attempted"] >= 1,
                  f"{name} trace={trace}: fingerprints match")
            metrics = r["metrics"] if r else {}
            missing = [m["name"] for m in SPEC[key]
                       if metrics.get(m["name"], {}).get("unit") != m["unit"]]
            check(not missing,
                  f"{name} trace={trace}: every metric with its unit {missing}")

        proc = subprocess.run(
            [str(ROOT / ".bench_build" / "perfbench"), "--workload", name,
             "--seed", "3", "--seconds", "1", "--trace", "0", "--scale",
             "smoke", "--references", str(HERE / "references.json"),
             "--perturb-reference"],
            capture_output=True, text=True, timeout=300)
        r = result_of(proc.stdout)
        check(proc.returncode != 0 and r is not None and not r["correct"]
              and r["failed"] >= 1 and r["failed"] <= r["attempted"],
              f"{name}: a perturbed reference raises the failure count")

    # A directory with only BENCHMARK.json and the benchmark's own paths has
    # no sources to build: run.py must fail without a result line.
    bare = ROOT / ".bench_build" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, bare / p)
    proc = subprocess.run(
        SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "bare directory: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
