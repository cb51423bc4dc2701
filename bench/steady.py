#!/usr/bin/env python3
"""Steadiness of one workload: run it repeatedly and compare spreads to bounds.

    python3 bench/steady.py --workload exhaustive-proof --runs 10 --first-seed 100

Runs bench/run.py once per seed (first-seed, first-seed + 1, ...) with the
run length from BENCHMARK.json, one run at a time, then prints for each
metric the median, the quartiles (statistics.quantiles, n=4), the quartile
spread as a share of the median, and the metric's bound.  A spread above a
third of the bound is flagged.  It also prints each run's share of failed
reports, which must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    args = ap.parse_args(argv)
    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(res)
        print(f"seed {seed}: failed {res['failed']}/{res['attempted']}  " + "  ".join(
            f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"\n{args.workload}: {len(results)} runs, failed share(s) {sorted(shares)}"
          f"{'' if len(shares) == 1 else '  <-- differs between runs'}")
    print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds[name]
        flag = "  <-- above bound/3" if spread > bound / 3 else ""
        print(f"{name:28s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} "
              f"{bound:>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
