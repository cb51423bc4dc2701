#!/usr/bin/env python3
"""npl benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload rank-profile --seed 3 --seconds 20 --trace 0

Run from the root of an npl checkout.  The run builds its inputs from the
seed, runs the workload in a fresh single-threaded worker process (closed
loop, one report at a time, whole rounds for --seconds of report time),
checks every report against independent computations, and prints a
summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, reports_per_s,
report_ms_p50, peak_rss_mb); with --trace 1 the worker wraps npl's layers
and the metrics are the per-layer totals per round.  Results and traces are
kept under bench/.work/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import checks
import workloads
from tracing import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join("bench", ".work")
COLD_STARTS = 11
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(SINGLE_THREAD)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(plan_doc: dict, inputs: str) -> dict:
    # a traced round can take nearly twice its untraced time, and the cold
    # starts and the last round come on top of the measured seconds
    timeout = max(150.0, 3 * plan_doc["seconds"] + 60)
    plan_path = os.path.join(inputs, "plan.json")
    out_path = os.path.join(inputs, "worker-out.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan_doc, fh)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), plan_path, out_path],
        env=worker_env(), timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    with open(out_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def tally(plan: workloads.Plan, out: dict):
    """(attempted, failed, unexpected failures, reasons by report index).

    A report that fails its check fails in every round, since later rounds
    repeat its body; a later-round report whose body differs from round one
    fails on its own.  Only reports marked as a known fault may fail
    without making the run incorrect."""
    rounds = out["rounds"]
    reasons = {}
    for i, rep in enumerate(plan.reports):
        why = checks.check(rep, out["first_codes"][i], out["first_texts"][i])
        if why is not None:
            reasons[i] = why
    failed = 0
    unexpected = 0
    for i, rep in enumerate(plan.reports):
        bad = rounds if i in reasons else out["mismatches"][i]
        failed += bad
        if bad and not (i in reasons and rep.expect.get("known_fault")):
            unexpected += bad
    return rounds * len(plan.reports), failed, unexpected, reasons


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "npl", "cli.py")):
        print("bench: no src/npl/cli.py here; run from the root of an npl checkout",
              file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inputs = os.path.join(WORK, f"{tag}-{os.getpid()}")
    try:
        plan = workloads.build(args.workload, args.seed, inputs)
        # one trace file per workload: a traced run of the largest writes ~35 MB
        trace_path = os.path.join(WORK, f"trace-{args.workload}.json")
        out = run_worker({
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "trace_path": trace_path,
            "cold_starts": 0 if args.trace else COLD_STARTS,
            "reports": [r.argv for r in plan.reports],
            "setup": plan.setup,
        }, inputs)
        attempted, failed, unexpected, reasons = tally(plan, out)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    busy = sum(out["round_walls"])
    rps = attempted / busy
    p50_ms = statistics.median(out["durations"]) * 1e3
    for i, why in sorted(reasons.items()):
        known = plan.reports[i].expect.get("known_fault")
        print(f"failed report {i} ({' '.join(plan.reports[i].argv[:1])})"
              f"{' [known fault: ' + known + ']' if known else ''}: {why}")
    print(f"{args.workload} seed {args.seed}: {out['rounds']} rounds of "
          f"{len(plan.reports)} reports in {busy:.2f} s; {rps:.3f} reports/s; "
          f"p50 {p50_ms:.2f} ms over {len(out['durations'])} samples; "
          f"peak RSS {out['maxrss_kb'] / 1024:.1f} MB")
    if args.trace:
        metrics = {m: {"value": out["layers"][m], "unit": _unit(m)} for m in LAYER_METRICS}
        print(f"traced: {out['spans']} spans in round one, written to {trace_path}")
    else:
        print("cold starts (s): " + ", ".join(f"{t:.3f}" for t in out["cold_starts"]))
        metrics = {
            "setup_s": {"value": statistics.median(out["cold_starts"]), "unit": "s"},
            "reports_per_s": {"value": rps, "unit": "1/s"},
            "report_ms_p50": {"value": p50_ms, "unit": "ms"},
            "peak_rss_mb": {"value": out["maxrss_kb"] / 1024, "unit": "MB"},
        }
    result = {"correct": unexpected == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(WORK, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, rounds=out["rounds"], round_walls=out["round_walls"],
                       durations=out["durations"], cold_starts=out["cold_starts"],
                       reasons=reasons), fh)
    print(json.dumps(result))
    return 0


def _unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
