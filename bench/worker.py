"""One workload run in a fresh process: ``worker.py PLAN.json OUT.json``.

Runs the plan's reports in order, one at a time, as whole rounds until the
plan's seconds of report time have passed (at least one round).  Each report
is a call of ``npl.cli.main(argv)`` with stdout captured.  The first round's
reports are kept for checking; each later report must repeat its round-one
body byte for byte.  Between rounds the untraced run times cold starts: a
fresh interpreter that imports npl.cli and runs one minimal report per
command.  run.py writes the plan and reads OUT.json.
"""

from __future__ import annotations

import io
import json
import resource
import subprocess
import sys
import threading
import time

COLD_START = """\
import json, sys
from npl.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
sys.exit(0 if all(c in (0, 1) for c in codes) else 3)
"""


def body_of(text: str) -> str:
    """The report minus its header; keys are sorted, so "body" comes first."""
    cut = text.rfind(',"header":')
    return text[:cut] if cut >= 0 else text


def cold_start(setup) -> float:
    # Popen.wait(timeout) polls in sleeps of up to 50 ms, which would round
    # every cold start up to a 50-ms step; wait() without a timeout blocks in
    # waitpid and returns when the child exits, and a timer kills a hung child
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", COLD_START, json.dumps(setup)],
                            stdout=subprocess.DEVNULL)
    killer = threading.Timer(60, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"cold start exited {code}")
    return elapsed


def main() -> int:
    plan_path, out_path = sys.argv[1], sys.argv[2]
    with open(plan_path, "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    t0 = time.perf_counter()
    import npl.cli as cli
    import_ms = (time.perf_counter() - t0) * 1e3

    tracer = None
    if plan["trace"]:
        import tracing
        tracer = tracing.install()

    argvs = plan["reports"]
    seconds, cold_starts = plan["seconds"], plan["cold_starts"]
    durations, round_walls, colds = [], [], []
    first_texts, first_codes = [], []
    mismatches = [0] * len(argvs)
    elapsed = 0.0
    real_stdout = sys.stdout
    buf = io.StringIO()
    clock = time.perf_counter
    while not round_walls or elapsed < seconds:
        while len(colds) < cold_starts and elapsed >= len(colds) * seconds / cold_starts:
            colds.append(cold_start(plan["setup"]))
        texts, codes = [], []
        if tracer is not None:
            tracer.recording = not round_walls
        sys.stdout = buf
        start = clock()
        try:
            for argv in argvs:
                buf.seek(0)
                buf.truncate()
                if tracer is not None:
                    with tracer.root("report." + argv[0]):
                        t = clock()
                        code = cli.main(argv)
                else:
                    t = clock()
                    code = cli.main(argv)
                durations.append(clock() - t)
                texts.append(buf.getvalue())
                codes.append(code)
        finally:
            sys.stdout = real_stdout
        round_walls.append(clock() - start)
        elapsed += round_walls[-1]
        if len(round_walls) == 1:
            first_texts, first_codes = texts, codes
        else:
            for i, (text, code) in enumerate(zip(texts, codes)):
                if code != first_codes[i] or body_of(text) != body_of(first_texts[i]):
                    mismatches[i] += 1
    while len(colds) < cold_starts:
        colds.append(cold_start(plan["setup"]))

    out = {
        "import_ms": import_ms,
        "rounds": len(round_walls),
        "round_walls": round_walls,
        "durations": durations,
        "first_texts": first_texts,
        "first_codes": first_codes,
        "mismatches": mismatches,
        "cold_starts": colds,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(len(round_walls), import_ms)
        out["spans"] = len(tracer.span_name)
        tracer.dump(plan["trace_path"], {"workload": plan["workload"], "seed": plan["seed"],
                                         "argv": argvs})
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
