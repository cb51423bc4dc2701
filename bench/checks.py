"""Checks of each report against independent computations (see oracle.py).

``check`` returns None for a correct report and a one-line reason otherwise.
Witness members are rebuilt from their reported parameters, witness values
and ranks are recomputed, and verdicts are compared with facts the inputs
have by construction (``Report.expect``): an identity circuit, a certificate
that is valid, a family on which a rank-bounded minor vanishes.
"""

from __future__ import annotations

import json
import random
from typing import List, Mapping, Optional, Sequence

import oracle
from workloads import Report

SPOT_CHECKS = 4


def opt(argv: Sequence[str], name: str, default: Optional[str] = None) -> Optional[str]:
    return argv[argv.index(name) + 1] if name in argv else default


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _seed(argv: Sequence[str]) -> int:
    return int(opt(argv, "--seed", "0"))


def _space(argv: Sequence[str]):
    d, v = (int(x) for x in opt(argv, "--space").split(":"))
    return d, v


# -- families and metas -----------------------------------------------------------


def rebuild_member(family: str, params: Sequence[int], v: int, d: int, p: int) -> oracle.Poly:
    """The family member with these parameters, from the family's definition."""
    forms = [oracle.linear_form(params[i:i + v], p) for i in range(0, len(params), v)]
    if family == "squares":
        return oracle.poly_mul(forms[0], forms[0], p)
    if family.startswith("sps:"):
        acc: oracle.Poly = {}
        for t in range(len(forms) // d):
            term: oracle.Poly = {(0,) * v: 1}
            for form in forms[t * d:(t + 1) * d]:
                term = oracle.poly_mul(term, form, p)
            acc = oracle.poly_add(acc, term, p)
        return acc
    if family.startswith("detproj:"):
        n = int(family.split("=")[1])
        return oracle.poly_det([forms[i * n:(i + 1) * n] for i in range(n)], v, p)
    raise ValueError(f"no rebuild for family {family!r}")


def meta_value(meta: Sequence, f: Mapping, v: int, d: int, p: int) -> int:
    if meta[0] == "disc":
        a, b, c = oracle.coeff_vector(f, 2, 2)
        return (b * b - 4 * a * c) % p
    _, k, size = meta
    return oracle.leading_minor(f, v, d, k, size, p)


# -- per command ------------------------------------------------------------------------


def _check_family_search(rep: Report, ev: Mapping) -> Optional[str]:
    """The evidence part shared by hit-check and audit."""
    argv = rep.argv
    p = int(opt(argv, "--field"))
    d, v = _space(argv)
    family = opt(argv, "--family")
    if ev["outcome"] == "witness":
        if rep.expect["vanishes"]:
            return "witness on a family the meta vanishes on"
        wit = ev["witness"]
        member = rebuild_member(family, wit["params"], v, d, p)
        if oracle.poly_from_json(wit["poly"])[2] != member:
            return "witness polynomial differs from the member its params build"
        value = meta_value(rep.expect["meta"], member, v, d, p)
        if value == 0 or value != wit["value"]:
            return f"witness value {wit['value']} recomputes to {value}"
    else:
        if not rep.expect["vanishes"]:
            return "no witness on a family whose generic rank exceeds the bound"
        if ev["zeros"] != ev["examined"]:
            return "zero count differs from members examined"
    if "--exhaustive" in argv:
        if not ev["exhausted"] or ev["examined"] != p ** v:
            return f"exhaustive walk examined {ev['examined']} of {p ** v} members"
    elif ev["examined"] != int(opt(argv, "--trials")) or ev["exhausted"]:
        return f"random search examined {ev['examined']} members"
    return None


def check_audit(rep: Report, code: int, result: Mapping) -> Optional[str]:
    a = result["audit"]
    refuted = a["classification"] == "refuted"
    if code != int(refuted):
        return f"exit code {code} for {a['classification']}"
    if refuted != (a["evidence"]["outcome"] == "witness"):
        return "classification disagrees with the evidence"
    argv = rep.argv
    p = int(opt(argv, "--field"))
    d, v = _space(argv)
    _, _, hard = oracle.poly_from_json(_load(opt(argv, "--hard")))
    hard_value = meta_value(rep.expect["meta"], hard, v, d, p)
    if a["hard_value"] != hard_value:
        return f"hard value {a['hard_value']} recomputes to {hard_value}"
    if not refuted:
        want = "valid-separation-instance" if hard_value else "non-separating"
        if a["classification"] != want:
            return f"classified {a['classification']}, expected {want}"
    if a["exhaustive_proof"] != ("--exhaustive" in argv):
        return "exhaustive_proof flag disagrees with the mode"
    return _check_family_search(rep, a["evidence"])


def check_hit_check(rep: Report, code: int, result: Mapping) -> Optional[str]:
    h = result["hit_report"]
    if code != int(h["outcome"] == "witness"):
        return f"exit code {code} for {h['outcome']}"
    if h["outcome"] == "none-found" and h["degenerate_suspected"]:
        return "meta reported as possibly identically zero"
    return _check_family_search(rep, h)


def check_gen(rep: Report, code: int, result: Mapping) -> Optional[str]:
    if code != 0:
        return f"exit code {code}"
    argv = rep.argv
    p = int(opt(argv, "--field"))
    expand_max = int(opt(argv, "--expand-max", "0"))
    for row in result["generators"]:
        n = row["n"]
        if row["seed_length"] != n ** 4 or row["dimension"] != oracle.generator_dimension(n):
            return f"n={n}: seed length or dimension wrong"
        if n <= expand_max:
            rng = random.Random(_seed(argv))
            seeds = [rng.randrange(p) for _ in range(n ** 4)]
            want = oracle.det_generator_nonzero(n, p, seeds)
            if row["sample_nonzero_coords"] != want:
                return f"n={n}: {row['sample_nonzero_coords']} nonzero coordinates, expanded {want}"
    return None


def _system(argv: Sequence[str]):
    """(p, n, member evaluator) for the system an ips-verify report reads."""
    if opt(argv, "--cnf"):
        with open(opt(argv, "--cnf"), "r", encoding="utf-8") as fh:
            n, clauses = parse_dimacs(fh.read())
        p = int(opt(argv, "--field"))
        return p, n, lambda x: oracle.cnf_members_at(clauses, n, x, p)
    data = _load(opt(argv, "--system"))
    return int(data["p"]), int(data["n"]), \
        lambda x: [oracle.eval_circuit(m, x) for m in data["members"]]


def parse_dimacs(text: str):
    n, clauses, cur = 0, [], []
    for line in text.splitlines():
        if line.startswith("p"):
            n = int(line.split()[2])
        elif line.strip() and not line.startswith("c"):
            for tok in line.split():
                if tok == "0":
                    clauses.append(cur)
                    cur = []
                else:
                    cur.append(int(tok))
    return n, clauses


def _spot_points(seed: int, n: int, p: int) -> List[List[int]]:
    rng = random.Random(f"spot/{seed}")
    return [[rng.randrange(p) for _ in range(n)] for _ in range(SPOT_CHECKS)]


def check_ips_verify(rep: Report, code: int, result: Mapping) -> Optional[str]:
    ver = result["verification"]
    if code != (0 if ver["accepted"] else 1):
        return f"exit code {code} for accepted={ver['accepted']}"
    argv = rep.argv
    p, n, members_at = _system(argv)
    cert = _load(opt(argv, "--cert"))
    relation = lambda x: oracle.eval_circuit(cert, members_at(x))  # noqa: E731
    at_zero = oracle.eval_circuit(cert, [0] * cert["v"])
    if ver["conditions"]["identity_at_zero"]["value"] != at_zero:
        return "value of the certificate at zero recomputes differently"
    if ver["accepted"]:
        for x in [rep.expect.get("nonzero_at")] + _spot_points(_seed(argv), n, p):
            if x is not None and relation(x) != 0:
                return f"accepted, but the relation is {relation(x)} at {x}"
        want = "exact" if "--exhaustive" in argv else "randomized"
        if ver["grade"] != want:
            return f"grade {ver['grade']}, expected {want}"
        if not rep.expect["accept"]:
            return "accepted an invalid certificate"
        return None
    if rep.expect["accept"]:
        return "rejected a valid certificate"
    if ver["failed_condition"] != 2:
        return f"failed condition {ver['failed_condition']}, expected 2"
    wit = ver["witness"]
    value = relation(wit["point"])
    if value == 0 or value != wit["value"]:
        return f"witness value {wit['value']} recomputes to {value}"
    return None


def check_pit(rep: Report, code: int, result: Mapping) -> Optional[str]:
    verdict = result["verdict"]
    outcome = verdict["outcome"]
    if code != int(outcome == "proven-nonzero"):
        return f"exit code {code} for {outcome}"
    argv = rep.argv
    circ = _load(opt(argv, "--circuit"))
    p = int(circ["p"])
    known = rep.expect.get("nonzero_at")
    if outcome == "proven-nonzero":
        value = oracle.eval_circuit(circ, verdict["witness"])
        if value == 0 or value != verdict["value"]:
            return f"witness value {verdict['value']} recomputes to {value}"
        return None if not rep.expect["zero"] else "nonzero verdict for an identity"
    for x in [known] + _spot_points(_seed(argv), circ["v"], p):
        if x is not None and oracle.eval_circuit(circ, x) != 0:
            return f"{outcome}, but the circuit is {oracle.eval_circuit(circ, x)} at {x}"
    want = "proven-zero" if "--exhaustive" in argv else "probably-zero"
    if outcome != want:
        return f"{outcome}, expected {want}"
    if want == "probably-zero" and verdict["trials"] != int(opt(argv, "--trials", "25")):
        return f"probably-zero after {verdict['trials']} trials"
    return None if rep.expect["zero"] else "zero verdict for a nonzero circuit"


def check_rank(rep: Report, code: int, result: Mapping) -> Optional[str]:
    if code != 0:
        return f"exit code {code}"
    argv = rep.argv
    p, v, f = oracle.poly_from_json(_load(opt(argv, "--poly")))
    d = max(sum(e) for e in f)
    k, shift = int(opt(argv, "--k")), int(opt(argv, "--shift", "0"))
    rows = oracle.partials_matrix(f, v, d, k, shift, p)
    if result["shape"] != [len(rows), len(rows[0])]:
        return f"shape {result['shape']}, expected {[len(rows), len(rows[0])]}"
    want = oracle.rank_mod_p(rows, p)
    if result["rank"] != want:
        return f"rank {result['rank']}, independent rank {want}"
    bound = rep.expect.get("rank_bound")
    if bound is not None and result["rank"] > bound:
        return f"rank {result['rank']} above C(d, k) = {bound} for a product of forms"
    return None


CHECKERS = {
    "audit": check_audit,
    "hit-check": check_hit_check,
    "gen": check_gen,
    "ips-verify": check_ips_verify,
    "pit": check_pit,
    "rank": check_rank,
}


def check(rep: Report, code: int, text: str) -> Optional[str]:
    """None if the report is right, else why not."""
    try:
        doc = json.loads(text)
    except ValueError:
        return f"exit code {code} with no JSON report"
    return CHECKERS[rep.argv[0]](rep, code, doc["body"]["result"])
