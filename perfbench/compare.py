#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric and workload by
workload.

    python3 perfbench/compare.py --base BASE_RUN... --new NEW_RUN...

Each file is the saved standard output of one `perfbench/run.py --trace 0`
run. For every workload and end-to-end metric it prints both medians and a
verdict against the metric's bound in BENCHMARK.json:
  regressed   the new median is worse by more than the bound;
  unresolved  the runs' host stamps differ (host_cpus, compiler, build type
              or engine substrate) and the metric is a wall-clock one, or
              the base runs spread wider than the bound and not every new
              run beats every base run;
  pass        otherwise.
Wall-clock metrics from unlike hosts are never compared. Exits 1 when any
metric regressed.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOST_KEYS = ("host_cpus", "compiler", "build_type", "substrate")
WALL_CLOCK_UNITS = ("s", "1/s")


def load(path):
    stamp = result = None
    for line in Path(path).read_text().splitlines():
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if "stamp" in obj:
            stamp = obj["stamp"]
        elif "metrics" in obj:
            result = obj
    if stamp is None or result is None:
        sys.exit(f"{path}: no stamp or result line")
    return stamp, result


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    runs = {"base": [load(p) for p in args.base],
            "new": [load(p) for p in args.new]}
    hosts = {tuple(s.get(k) for k in HOST_KEYS)
             for side in runs.values() for s, _ in side}
    like_hosts = len(hosts) == 1
    if not like_hosts:
        print("host stamps differ: " + "; ".join(map(str, sorted(hosts))))

    regressed = False
    workloads = sorted({s["workload"] for side in runs.values() for s, _ in side})
    for w in workloads:
        print(f"\n{w}")
        for m in spec["end_to_end"]:
            vals = {side: [r["metrics"][m["name"]]["value"]
                           for s, r in runs[side]
                           if s["workload"] == w and r["correct"]
                           and m["name"] in r["metrics"]]
                    for side in runs}
            if not vals["base"] or not vals["new"]:
                print(f"  {m['name']:<14} missing runs")
                continue
            base = statistics.median(vals["base"])
            new = statistics.median(vals["new"])
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (new - base) / base
            if not like_hosts and m["unit"] in WALL_CLOCK_UNITS:
                verdict = "unresolved (unlike hosts)"
            elif worse > m["bound"]:
                verdict = "regressed"
                regressed = True
            elif spread(vals["base"]) > m["bound"] and not all(
                    sign * (n - b) < 0
                    for n in vals["new"] for b in vals["base"]):
                verdict = "unresolved (spread)"
            else:
                verdict = "pass"
            print(f"  {m['name']:<14} base {base:.6g} new {new:.6g} {m['unit']:<4}"
                  f" worse by {worse:+.1%} (bound {m['bound']:.0%}): {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
