"""The three workloads: the reports each round runs and the files they read.

Every input is made here from the workload seed; npl sees only the files.
The shape of a round (which commands, which spaces, fields, grid sizes and
gate counts) is fixed, so the work per round does not depend on the seed;
the seed changes coefficients, clauses, certificates and trial streams.

Report seeds are spaced 2^16 apart within a run and 2^32 apart between runs.
npl derives trial t of seed s as s XOR t, so seeds 0 and 1 would share every
trial stream but one; with this spacing no two reports share a stream.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from oracle import linear_form, monomials, poly_mul

WORKLOADS = ("sampled-audit", "rank-profile", "exhaustive-proof")

MERSENNE31 = 2**31 - 1
MERSENNE61 = 2**61 - 1
GEN_FIELD = 7


@dataclass
class Report:
    """One call of ``npl.cli.main(argv)`` and what its output must satisfy."""

    argv: List[str]
    expect: Dict = field(default_factory=dict)


@dataclass
class Plan:
    reports: List[Report]
    # one minimal report per command the workload uses, run by each cold start
    setup: List[List[str]]


def report_seed(seed: int, slot: int) -> int:
    return seed * 2**32 + slot * 2**16


# -- circuits ------------------------------------------------------------------


class Gates:
    """Gate-list builder for npl's circuit file format."""

    def __init__(self, p: int, v: int):
        self.p, self.v = p, v
        self.gates: List[Dict] = []

    def _push(self, gate: Dict) -> int:
        self.gates.append(gate)
        return len(self.gates) - 1

    def inp(self, i: int) -> int:
        return self._push({"op": "in", "i": i})

    def const(self, c: int) -> int:
        return self._push({"op": "const", "c": c % self.p})

    def add(self, a: int, b: int) -> int:
        return self._push({"op": "add", "a": a, "b": b})

    def mul(self, a: int, b: int) -> int:
        return self._push({"op": "mul", "a": a, "b": b})

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.mul(self.const(-1), b))

    def linear(self, coeffs: Sequence[int]) -> int:
        acc = None
        for i, c in enumerate(coeffs):
            g = self.mul(self.const(c), self.inp(i))
            acc = g if acc is None else self.add(acc, g)
        return acc

    def to_json(self, out: Optional[int] = None) -> Dict:
        out = len(self.gates) - 1 if out is None else out
        return {"p": self.p, "v": self.v, "gates": self.gates, "out": out}


def nonzero(rng: random.Random, p: int) -> int:
    return rng.randrange(1, p)


def product_of_forms(g: Gates, rng: random.Random, count: int) -> int:
    acc = None
    for _ in range(count):
        form = g.linear([nonzero(rng, g.p) for _ in range(g.v)])
        acc = form if acc is None else g.mul(acc, form)
    return acc


def distributivity_circuit(rng: random.Random, p: int, v: int, identity: bool) -> Dict:
    """(A + B) C - A C - B C + s D for random products of two linear forms
    A, B, C, D: identically zero with s = 0, nonzero with s = 1.  Both have
    the same gates."""
    g = Gates(p, v)
    a, b, c = (product_of_forms(g, rng, 2) for _ in range(3))
    out = g.sub(g.sub(g.mul(g.add(a, b), c), g.mul(a, c)), g.mul(b, c))
    d = product_of_forms(g, rng, 2)
    return g.to_json(g.add(out, g.mul(g.const(0 if identity else 1), d)))


# -- CNFs and certificates -------------------------------------------------------


def cube_block(variables: Sequence[int]) -> List[Tuple[int, ...]]:
    """All 2^k sign patterns over k variables: unsatisfiable on its own, and
    the clause polynomials sum to 1."""
    out = []
    for mask in range(1 << len(variables)):
        out.append(
            tuple(x if mask >> i & 1 else -x for i, x in enumerate(variables))
        )
    return out


def random_clause(rng: random.Random, n: int, width: int,
                  planted: Optional[Sequence[int]] = None) -> Tuple[int, ...]:
    """A clause of distinct variables; with ``planted``, the first literal is
    true under that assignment, so the clause is satisfied by it."""
    xs = rng.sample(range(1, n + 1), width)
    lits = [x if rng.random() < 0.5 else -x for x in xs]
    if planted is not None:
        x = xs[0]
        lits[0] = x if planted[x - 1] else -x
    return tuple(lits)


def dimacs(n: int, clauses: Sequence[Sequence[int]]) -> str:
    lines = [f"p cnf {n} {len(clauses)}"]
    lines += [" ".join(str(l) for l in c) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def unsat_cnf(rng: random.Random, n: int, extra: int) -> Tuple[List, List[int]]:
    """Random 3-clauses with a cube block over 3 variables mixed in; returns
    the clauses and the positions of the block clauses."""
    block = iter(cube_block(sorted(rng.sample(range(1, n + 1), 3))))
    total = extra + 8
    positions = sorted(rng.sample(range(total), 8))
    clauses = [next(block) if i in positions else random_clause(rng, n, 3)
               for i in range(total)]
    return clauses, positions


def sat_cnf(rng: random.Random, n: int, count: int) -> Tuple[List, List[int]]:
    """Random 3-clauses all satisfied by a planted assignment, returned too."""
    planted = [rng.randrange(2) for _ in range(n)]
    return [random_clause(rng, n, 3, planted) for _ in range(count)], planted


def _one_plus_products(g: "Gates", rng: random.Random, terms: int) -> int:
    """1 + a random sum of c * y_i * y_j: equal to 1 at y = 0."""
    acc = g.const(1)
    for _ in range(terms):
        i, j = rng.randrange(g.v), rng.randrange(g.v)
        acc = g.add(acc, g.mul(g.const(nonzero(rng, g.p)), g.mul(g.inp(i), g.inp(j))))
    return acc


def certificate_case(rng: random.Random, p: int, n: int, extra: int, products: int,
                     valid: bool) -> Tuple[List, Dict, Dict]:
    """(clauses, certificate, expectation) for an ips-verify report.

    Valid: an unsatisfiable CNF whose cube-block clause polynomials sum to 1,
    with (1 - sum of the block members) * (1 + h(y)), which is 1 at y = 0
    and vanishes on the system.  Invalid: a satisfiable CNF with 1 + h(y);
    at the planted assignment every member is 0, so the relation is 1."""
    if valid:
        clauses, block = unsat_cnf(rng, n, extra)
    else:
        clauses, planted = sat_cnf(rng, n, extra + 8)
    g = Gates(p, len(clauses) + n)
    cert = _one_plus_products(g, rng, products)
    if not valid:
        return clauses, g.to_json(cert), {"accept": False, "nonzero_at": planted}
    acc = g.const(1)
    for j in block:
        acc = g.sub(acc, g.inp(j))
    return clauses, g.to_json(g.mul(acc, cert)), {"accept": True}


def system_circuits(p: int, n: int, clauses: Sequence[Sequence[int]]) -> List[Dict]:
    """The CNF-derived system as circuits: clauses, then x_i^2 - x_i."""
    members = []
    for clause in clauses:
        g = Gates(p, n)
        acc = None
        for lit in clause:
            x = g.inp(abs(lit) - 1)
            f = g.sub(g.const(1), x) if lit > 0 else x
            acc = f if acc is None else g.mul(acc, f)
        members.append(g.to_json(acc))
    for i in range(n):
        g = Gates(p, n)
        x = g.inp(i)
        members.append(g.to_json(g.sub(g.mul(x, x), x)))
    return members


def compose(members: Sequence[Dict], cert: Dict) -> Dict:
    """One circuit over the x variables computing C(f_1(x), ..., f_m(x))."""
    p, n = cert["p"], members[0]["v"]
    g = Gates(p, n)
    outs = []
    for mem in members:
        base = len(g.gates)
        for gate in mem["gates"]:
            gate = dict(gate)
            if gate["op"] in ("add", "mul"):
                gate["a"] += base
                gate["b"] += base
            g.gates.append(gate)
        outs.append(base + mem["out"])
    index = []
    for gate in cert["gates"]:
        if gate["op"] == "in":
            index.append(outs[gate["i"]])
        elif gate["op"] == "const":
            index.append(g.const(gate["c"]))
        else:
            op = g.add if gate["op"] == "add" else g.mul
            index.append(op(index[gate["a"]], index[gate["b"]]))
    return g.to_json(index[cert["out"]])


# -- polynomials -------------------------------------------------------------------


def dense_poly(rng: random.Random, p: int, v: int, d: int) -> Dict:
    return {"p": p, "v": v,
            "terms": [{"e": list(e), "c": nonzero(rng, p)} for e in monomials(v, d)]}


def product_poly(rng: random.Random, p: int, v: int, d: int) -> Dict:
    """A product of d linear forms with nonzero coefficients, expanded."""
    f = {(0,) * v: 1}
    for _ in range(d):
        f = poly_mul(f, linear_form([nonzero(rng, p) for _ in range(v)], p), p)
    return {"p": p, "v": v, "terms": [{"e": list(e), "c": c} for e, c in sorted(f.items())]}


# -- workloads ---------------------------------------------------------------------


class _Builder:
    """Collects one workload's reports and writes their input files."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.reports: List[Report] = []
        os.makedirs(workdir, exist_ok=True)

    def write(self, name: str, data) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            if isinstance(data, str):
                fh.write(data)
            else:
                json.dump(data, fh, separators=(",", ":"))
        return path

    def slot(self) -> Tuple[int, str, random.Random]:
        """(report seed, file prefix, input rng) of the next report."""
        i = len(self.reports) + 1
        rng = random.Random(f"{self.workload}/{self.seed}/{i}")
        return report_seed(self.seed, i), f"r{i}", rng

    def add(self, argv: List[str], field: int, seed: int, **expect) -> None:
        self.reports.append(Report(argv + ["--field", str(field), "--seed", str(seed)],
                                   expect))


# (family, (degree, vars), (k, r), trials, vanishes, copies): the leading
# (r+1)-minor of the order-k partials vanishes on families whose partials
# rank is at most r.  Random-mode audits examine every trial, so each report
# does a fixed amount of work.  The three detproj audits hold the median.
AUDITS = [
    ("sps:t=2", (4, 6), (2, 12), 16, True, 2),       # rank <= 2*C(4,2) = 12
    ("sps:t=3", (4, 6), (2, 12), 12, False, 2),      # generic rank 18
    ("detproj:n=3", (3, 4), (1, 3), 25, False, 3),   # generic rank 4
    ("squares", (2, 6), (1, 1), 60, True, 2),        # rank 1
]


def sampled_audit(b: _Builder) -> List[str]:
    p = MERSENNE31
    for family, (d, v), (k, r), trials, vanishes, copies in AUDITS:
        for _ in range(copies):
            s, name, rng = b.slot()
            hard = b.write(f"{name}-hard.json", dense_poly(rng, p, v, d))
            b.add(["audit", "--meta", f"partials-minor:k={k},r={r}", "--family", family,
                   "--space", f"{d}:{v}", "--hard", hard, "--trials", str(trials)],
                  p, s, vanishes=vanishes, meta=("minor", k, r + 1))
    # over F_7 a sizeable, seed-dependent share of the coefficients of det(L)
    # is zero, so the count of nonzero ones tests their values; over 2^31-1
    # all 3876 are nonzero for almost every seed
    s, _, _ = b.slot()
    b.add(["gen", "--n", "4", "--expand-max", "4"], GEN_FIELD, s)
    n = 40
    for valid in (True, False):
        s, name, rng = b.slot()
        clauses, cert, expect = certificate_case(rng, p, n, 300, 8, valid)
        cnf = b.write(f"{name}.cnf", dimacs(n, clauses))
        cert_path = b.write(f"{name}-cert.json", cert)
        b.add(["ips-verify", "--cnf", cnf, "--cert", cert_path], p, s, **expect)
        s, name, _ = b.slot()
        circ = b.write(f"{name}-circuit.json", compose(system_circuits(p, n, clauses), cert))
        b.add(["pit", "--circuit", circ], p, s, zero=valid,
              nonzero_at=expect.get("nonzero_at"))
    return ["audit", "gen", "ips-verify", "pit"]


# (vars, degree, k, shift, kind, copies).  Spaces of dimension C(v+d-1, d) up
# to 512 build the symbolic form of the matrix, larger ones do not.  The
# four dense 56 x 56 reports hold the median.
RANKS = [
    (5, 6, 3, 0, "dense", 1),     # 35 x 35, dim 210
    (5, 6, 3, 0, "product", 1),
    (10, 4, 2, 0, "dense", 1),    # 55 x 55, dim 715
    (10, 4, 2, 0, "product", 1),
    (6, 6, 3, 0, "dense", 4),     # 56 x 56, dim 462
    (6, 6, 3, 0, "product", 1),
    (7, 6, 3, 0, "dense", 1),     # 84 x 84, dim 924
    (7, 6, 3, 0, "product", 1),
    (6, 5, 2, 1, "dense", 1),     # 126 x 126, dim 252
    (6, 5, 2, 1, "product", 1),
    (9, 4, 2, 1, "product", 1),   # 405 x 165, dim 495
    (7, 6, 3, 1, "product", 1),   # 588 x 210, dim 924
]


def rank_profile(b: _Builder) -> List[str]:
    p = MERSENNE31
    for v, d, k, shift, kind, copies in RANKS:
        for _ in range(copies):
            s, name, rng = b.slot()
            poly = (dense_poly if kind == "dense" else product_poly)(rng, p, v, d)
            argv = ["rank", "--poly", b.write(f"{name}-poly.json", poly), "--k", str(k)]
            if shift:
                argv += ["--method", "shifted", "--shift", str(shift)]
            bound = comb(d, k) if kind == "product" and not shift else None
            b.add(argv, p, s, rank_bound=bound)
    return ["rank"]


def exhaustive_proof(b: _Builder) -> List[str]:
    disc_squares = ["--meta", "disc", "--family", "squares", "--space", "2:2", "--exhaustive"]
    for p in (53, 101):
        s, _, _ = b.slot()
        b.add(["hit-check"] + disc_squares, p, s, vanishes=True, meta=("disc",))
        s, name, rng = b.slot()
        hard = b.write(f"{name}-hard.json", dense_poly(rng, p, 2, 2))
        b.add(["audit", "--hard", hard] + disc_squares, p, s, vanishes=True, meta=("disc",))
    for v, p in ((3, 47), (4, 17)):
        for identity in (True, False):
            s, name, rng = b.slot()
            circ = b.write(f"{name}-circuit.json", distributivity_circuit(rng, p, v, identity))
            b.add(["pit", "--circuit", circ, "--exhaustive"], p, s, zero=identity)
    n, p = 4, 13
    for valid in (True, False):
        s, name, rng = b.slot()
        clauses, cert, expect = certificate_case(rng, p, n, 12, 4, valid)
        cnf = b.write(f"{name}.cnf", dimacs(n, clauses))
        cert_path = b.write(f"{name}-cert.json", cert)
        b.add(["ips-verify", "--cnf", cnf, "--cert", cert_path, "--exhaustive"], p, s, **expect)
    int64_reports(b)
    return ["hit-check", "audit", "pit", "ips-verify"]


INT64_FAULT = "pit_exhaustive evaluates in int64, which wraps for p > 2^31"


def int64_reports(b: _Builder) -> None:
    """Zero-variable inputs over 2^61 - 1 whose exact value is 2^64 = 8 but
    whose int64 grid evaluation wraps to 0.  They do not depend on the seed,
    and their reports pass no --seed (exhaustive mode uses none)."""
    p = MERSENNE61
    g = Gates(p, 0)
    big = g.const(2**32)
    circ = b.write("int64-square.json", g.to_json(g.mul(big, big)))
    members = []
    for c in (2**32, 1):
        m = Gates(p, 0)
        members.append(m.to_json(m.const(c)))
    system = b.write("int64-system.json",
                     {"p": p, "n": 0, "provenance": "raw", "members": members})
    cert = Gates(p, 2)
    y1 = cert.inp(0)
    cert.sub(cert.add(cert.mul(y1, y1), cert.const(1)), cert.inp(1))  # y1^2 + 1 - y2
    cert_path = b.write("int64-cert.json", cert.to_json())
    for argv, expect in (
        (["pit", "--circuit", circ], {"zero": False}),
        (["ips-verify", "--system", system, "--cert", cert_path], {"accept": False}),
    ):
        b.reports.append(Report(argv + ["--exhaustive", "--field", str(p)],
                                dict(expect, nonzero_at=[], known_fault=INT64_FAULT)))


def setup_reports(b: _Builder, commands: Sequence[str], exhaustive: bool) -> List[List[str]]:
    """Tiny reports, one per command, in the mode the workload uses, so a
    cold start loads every module those commands import."""
    p = 13
    mode = ["--exhaustive"] if exhaustive else ["--trials", "2"]
    rng = random.Random(0)
    out = []
    for cmd in commands:
        if cmd in ("audit", "hit-check"):
            argv = [cmd, "--meta", "disc", "--family", "squares", "--space", "2:2"] + mode
            if cmd == "audit":
                argv += ["--hard", b.write("setup-hard.json", dense_poly(rng, p, 2, 2))]
        elif cmd == "gen":
            argv = ["gen", "--n", "2", "--expand-max", "2"]
        elif cmd == "pit":
            circ = b.write("setup-circuit.json", distributivity_circuit(rng, p, 2, False))
            argv = ["pit", "--circuit", circ] + mode
        elif cmd == "ips-verify":
            clauses, cert, _ = certificate_case(rng, p, 3, 0, 1, True)
            argv = ["ips-verify", "--cnf", b.write("setup.cnf", dimacs(3, clauses)),
                    "--cert", b.write("setup-cert.json", cert)] + mode
        else:
            poly = b.write("setup-poly.json", dense_poly(rng, p, 2, 2))
            argv = ["rank", "--poly", poly, "--k", "1"]
        out.append(argv + ["--field", str(p)])
    return out


BUILDERS = {
    "sampled-audit": sampled_audit,
    "rank-profile": rank_profile,
    "exhaustive-proof": exhaustive_proof,
}


def build(workload: str, seed: int, workdir: str) -> Plan:
    """Write the inputs of one run under workdir and return its plan."""
    b = _Builder(workload, seed, workdir)
    commands = BUILDERS[workload](b)
    return Plan(b.reports, setup_reports(b, commands, workload == "exhaustive-proof"))
