"""Tests of the benchmark's own checks: run with ``python -m pytest bench``.

Every report of each workload is run once through npl.cli.main and must pass
its check, except the known int64 faults, which must fail.  Doctored copies
of real reports (a flipped verdict, a wrong rank, a wrong witness value, an
accepted certificate for a satisfiable CNF) must be flagged.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from npl.cli import main  # noqa: E402


@pytest.fixture(scope="module")
def ran(tmp_path_factory):
    """ran(workload) -> (plan, exit codes, report texts) of one round, seed 5."""
    cache = {}

    def get(workload):
        if workload not in cache:
            plan = workloads.build(workload, 5, str(tmp_path_factory.mktemp(workload)))
            codes, texts = [], []
            for rep in plan.reports:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    codes.append(main(rep.argv))
                texts.append(buf.getvalue())
            cache[workload] = plan, codes, texts
        return cache[workload]

    return get


def _nonzero(rep, res):
    return res["verdict"]["outcome"] == "proven-nonzero"


def _vanishes(rep, res):
    return rep.expect["vanishes"]


def _find(run_of, command, pred=lambda rep, res: True):
    """(report, exit code, parsed output) of the first matching report."""
    plan, codes, texts = run_of
    for rep, code, text in zip(plan.reports, codes, texts):
        doc = json.loads(text)
        if rep.argv[0] == command and pred(rep, doc["body"]["result"]):
            return rep, code, doc
    raise AssertionError(f"no such {command} report")


def _recheck(rep, code, doc):
    return checks.check(rep, code, json.dumps(doc))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_report_passes_except_known_faults(ran, workload):
    plan, codes, texts = ran(workload)
    for rep, code, text in zip(plan.reports, codes, texts):
        why = checks.check(rep, code, text)
        if rep.expect.get("known_fault"):
            assert why is not None, f"known fault no longer shows: {rep.argv}"
        else:
            assert why is None, f"{rep.argv}: {why}"


def test_int64_reports_count_as_failed(ran):
    plan, codes, texts = ran("exhaustive-proof")
    known = [i for i, r in enumerate(plan.reports) if r.expect.get("known_fault")]
    assert len(known) == 2
    out = {"rounds": 3, "first_codes": codes, "first_texts": texts,
           "mismatches": [0] * len(codes)}
    attempted, failed, unexpected, reasons = run.tally(plan, out)
    assert (attempted, failed, unexpected) == (3 * len(codes), 6, 0)
    assert sorted(reasons) == known
    out["mismatches"][0] = 1
    assert run.tally(plan, out)[1:3] == (7, 1)


def test_flipped_audit_verdict_is_flagged(ran):
    rep, code, doc = _find(ran("sampled-audit"), "audit", _vanishes)
    doc["body"]["result"]["audit"]["classification"] = "refuted"
    assert _recheck(rep, 1, doc) is not None
    doc["body"]["result"]["audit"]["classification"] = "non-separating"
    assert _recheck(rep, 0, doc) is not None


def test_refuted_audit_without_witness_is_flagged(ran):
    rep, code, doc = _find(ran("sampled-audit"), "audit",
                           lambda r, res: not _vanishes(r, res))
    audit = doc["body"]["result"]["audit"]
    audit["classification"] = "valid-separation-instance"
    audit["evidence"]["outcome"] = "none-found"
    audit["evidence"]["zeros"] = audit["evidence"]["examined"]
    assert _recheck(rep, 0, doc) is not None


def test_wrong_witness_value_is_flagged(ran):
    rep, code, doc = _find(ran("sampled-audit"), "audit",
                           lambda r, res: not _vanishes(r, res))
    wit = doc["body"]["result"]["audit"]["evidence"]["witness"]
    wit["value"] = (wit["value"] + 1) % int(checks.opt(rep.argv, "--field"))
    assert _recheck(rep, code, doc) is not None


def test_wrong_hard_value_is_flagged(ran):
    rep, code, doc = _find(ran("exhaustive-proof"), "audit")
    doc["body"]["result"]["audit"]["hard_value"] += 1
    assert _recheck(rep, code, doc) is not None


def test_flipped_hit_check_is_flagged(ran):
    rep, code, doc = _find(ran("exhaustive-proof"), "hit-check")
    doc["body"]["result"]["hit_report"]["examined"] -= 1
    assert _recheck(rep, code, doc) is not None


def test_wrong_pit_witness_value_is_flagged(ran):
    rep, code, doc = _find(ran("sampled-audit"), "pit", _nonzero)
    doc["body"]["result"]["verdict"]["value"] += 1
    assert _recheck(rep, code, doc) is not None


@pytest.mark.parametrize("workload", ["sampled-audit", "exhaustive-proof"])
def test_zero_verdict_for_nonzero_circuit_is_flagged(ran, workload):
    rep, code, doc = _find(ran(workload), "pit", _nonzero)
    verdict = doc["body"]["result"]["verdict"]
    verdict.update(outcome="proven-zero" if "--exhaustive" in rep.argv else "probably-zero",
                   witness=None, value=None, trials=25)
    assert _recheck(rep, 0, doc) is not None


def test_nonzero_verdict_for_identity_is_flagged(ran):
    rep, code, doc = _find(ran("exhaustive-proof"), "pit", lambda r, res: r.expect["zero"])
    circ = checks._load(checks.opt(rep.argv, "--circuit"))
    verdict = doc["body"]["result"]["verdict"]
    point = [1] * circ["v"]
    verdict.update(outcome="proven-nonzero", witness=point, value=1)
    assert _recheck(rep, 1, doc) is not None


def test_wrong_rank_is_flagged(ran):
    rep, code, doc = _find(ran("rank-profile"), "rank")
    for delta in (-1, 1):
        bad = json.loads(json.dumps(doc))
        bad["body"]["result"]["rank"] += delta
        assert _recheck(rep, code, bad) is not None


def test_rank_above_product_bound_is_flagged(ran):
    rep, code, doc = _find(ran("rank-profile"), "rank",
                           lambda r, res: r.expect.get("rank_bound"))
    assert doc["body"]["result"]["rank"] <= rep.expect["rank_bound"]
    rep.expect = dict(rep.expect, rank_bound=doc["body"]["result"]["rank"] - 1)
    assert _recheck(rep, code, doc) is not None


@pytest.mark.parametrize("workload", ["sampled-audit", "exhaustive-proof"])
def test_accepted_certificate_for_satisfiable_cnf_is_flagged(ran, workload):
    rep, code, doc = _find(ran(workload), "ips-verify",
                           lambda r, res: "nonzero_at" in r.expect and r.expect["nonzero_at"])
    ver = doc["body"]["result"]["verification"]
    ver.update(accepted=True, failed_condition=None, witness=None,
               grade="exact" if "--exhaustive" in rep.argv else "randomized")
    assert _recheck(rep, 0, doc) is not None


def test_rejected_valid_certificate_is_flagged(ran):
    rep, code, doc = _find(ran("sampled-audit"), "ips-verify", lambda r, res: r.expect["accept"])
    ver = doc["body"]["result"]["verification"]
    ver.update(accepted=False, failed_condition=2, grade=None,
               witness={"point": [0] * 4, "value": 1})
    assert _recheck(rep, 1, doc) is not None


def test_wrong_gen_count_is_flagged(ran):
    rep, code, doc = _find(ran("sampled-audit"), "gen")
    doc["body"]["result"]["generators"][0]["sample_nonzero_coords"] -= 1
    assert _recheck(rep, code, doc) is not None


def test_misread_gen_seed_layout_is_flagged(ran):
    """A generator that read its seeds variable-major instead of entry-major
    builds another matrix; over the report's small field the count differs."""
    rep, code, doc = _find(ran("sampled-audit"), "gen")
    p = int(checks.opt(rep.argv, "--field"))
    rng = random.Random(checks._seed(rep.argv))
    n, v = 4, 16
    seeds = [rng.randrange(p) for _ in range(n ** 4)]
    misread = [seeds[k * v + e] for e in range(v) for k in range(v)]
    row = doc["body"]["result"]["generators"][0]
    row["sample_nonzero_coords"] = oracle.det_generator_nonzero(n, p, misread)
    assert _recheck(rep, code, doc) is not None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrong_exit_code_is_flagged(ran, workload):
    plan, codes, texts = ran(workload)
    for rep, code, text in zip(plan.reports, codes, texts):
        assert checks.check(rep, 1 - code, text) is not None, rep.argv


def test_traced_worker_reports_every_layer(tmp_path):
    """One traced round of the tiny set-up reports in a fresh worker."""
    plan = workloads.build("sampled-audit", 1, str(tmp_path))
    trace_path = str(tmp_path / "trace.json")
    out = run.run_worker({"workload": "sampled-audit", "seed": 1, "seconds": 0.001,
                          "trace": 1, "trace_path": trace_path, "cold_starts": 0,
                          "reports": plan.setup, "setup": plan.setup}, str(tmp_path))
    layers = out["layers"]
    assert list(layers) == list(run.LAYER_METRICS)
    assert out["rounds"] == 1 and out["first_codes"] == [0, 0, 0, 1]
    for metric in ("algebra.mul_calls", "circuits.member_calls", "pit.sampled_members",
                   "pit.sz_trials", "ips.composed_gates", "circuits.evaluate_calls",
                   "cli.parse_ms", "circuits.validate_ms"):
        assert layers[metric] > 0, metric
    assert layers["pit.grid_points"] == 0 and layers["meta.rank_ms"] == 0
    with open(trace_path, "r", encoding="utf-8") as fh:
        trace = json.load(fh)
    spans = trace["spans"]
    roots = [s for s in spans if s[1] == -1]
    assert [trace["names"][s[0]] for s in roots] == ["report." + a[0] for a in plan.setup]
    for name, parent, start, end in spans:
        assert start <= end
        if parent >= 0:
            assert spans[parent][2] <= start and end <= spans[parent][3]
