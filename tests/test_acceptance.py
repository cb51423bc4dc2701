"""Acceptance suite: ten go/no-go checks, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is exact (field arithmetic) and every runtime budget
is asserted, so a slow machine fails loudly rather than silently degrading.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import pytest

from npl.algebra import PolySpace, PrimeField, SparsePoly
from npl.circuits import CircuitBuilder, FamilyDescriptor
from npl.meta import (
    MinorMeta,
    MinorSelection,
    RankMethodSpec,
    coordinate_meta,
    discriminant,
    matrix_rank,
    partials_matrix,
)
from npl.pit import (
    natural_proof_audit,
    pit_exhaustive,
    pit_schwartz_zippel,
    succinct_hitting_check,
)
from npl.ips import Cnf, cnf_to_system, verify_certificate
from npl.cli import main

from helpers import (
    cnf_satisfied,
    det_generator,
    linear_meta,
    random_circuit,
    random_dense_poly,
    random_product_of_linear_forms,
    truth_assignments,
)

F5 = PrimeField(5)
F7 = PrimeField(7)
F13 = PrimeField(13)
F101 = PrimeField(101)


@contextmanager
def criterion(n, label, budget_s):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        status = "PASS" if ok and elapsed < budget_s else "FAIL"
        print(f"criterion {n:2d} [{status}] {label} ({elapsed:.2f}s)")
    if elapsed >= budget_s:
        raise AssertionError(
            f"criterion {n} exceeded its {budget_s}s budget: {elapsed:.2f}s"
        )


def test_criterion_01_monomial_indexing():
    with criterion(1, "monomial indexing round-trip", 1.0):
        for v in range(1, 6):
            for d in range(0, 7):
                hom = PolySpace(v, d, True)
                assert hom.dimension == comb(v + d - 1, d)
                ranks = set()
                for i in range(hom.dimension):
                    e = hom.unrank(i)
                    assert hom.rank(e) == i
                    ranks.add(i)
                assert ranks == set(range(hom.dimension))
                atmost = PolySpace(v, d, False)
                for i in range(atmost.dimension):
                    assert atmost.rank(atmost.unrank(i)) == i
        assert PolySpace(2, 2, True).dimension == 3


def test_criterion_02_discriminant_minor_identity():
    with criterion(2, "full 2x2 minor equals negated discriminant", 1.0):
        space = PolySpace(2, 2, True)
        T = MinorMeta(
            RankMethodSpec("partials", 1, 0, MinorSelection("leading", 2)),
            space,
            F7,
        )
        disc = discriminant(F7)
        for cv in itertools.product(range(7), repeat=3):
            lhs = T.eval_at(cv)
            rhs = (-disc.eval_at(cv)) % 7
            assert lhs == rhs, cv


def test_criterion_03_rank_method_shape():
    with criterion(3, "partials rank separates products from dense", 30.0):
        # derive, rather than hardcode, the (v, d) pairs where a dense
        # polynomial can exceed the product bound at all: some order k must
        # have both matrix dimensions above C(d, k)
        grid = []
        for v in range(2, 5):
            for d in range(1, 6):
                for k in range(0, d + 1):
                    rows = comb(v + k - 1, k)
                    cols = comb(v + d - k - 1, d - k)
                    if min(rows, cols) > comb(d, k):
                        grid.append((v, d))
                        break
        assert grid, "no space where the bound is even exceedable"

        rng = random.Random(1003)
        compliant = 0
        for i in range(100):
            v, d = grid[rng.randrange(len(grid))]
            f = random_product_of_linear_forms(rng, F101, v, d)
            if f.is_zero:
                f = random_product_of_linear_forms(rng, F101, v, d)
            ok = all(
                matrix_rank(partials_matrix(f, k).entries, 101) <= comb(d, k)
                for k in range(0, d + 1)
            )
            compliant += ok
        assert compliant == 100, f"only {compliant}/100 products in bound"

        exceeded = 0
        for i in range(100):
            v, d = grid[rng.randrange(len(grid))]
            g = random_dense_poly(rng, F101, v, d)
            if any(
                matrix_rank(partials_matrix(g, k).entries, 101) > comb(d, k)
                for k in range(0, d + 1)
            ):
                exceeded += 1
        assert exceeded >= 90, f"only {exceeded}/100 dense samples exceeded"


def test_criterion_04_pit_cross_validation():
    with criterion(4, "exhaustive and randomized PIT agree", 60.0):
        rng = random.Random(4001)
        circuits = [
            random_circuit(rng, F13, rng.randrange(1, 5), 8, 4)
            for _ in range(200)
        ]
        nonzero = []
        for c in circuits:
            ex = pit_exhaustive(c)
            sz = pit_schwartz_zippel(c, 25, 0)
            if ex.outcome == "proven-zero":
                assert sz.outcome != "proven-nonzero"
            else:
                assert sz.outcome != "proven-zero"
                nonzero.append(c)
        assert nonzero, "corpus has no nonzero circuit"
        for c in nonzero:
            for rep in range(100):
                v = pit_schwartz_zippel(c, 25, rep)
                assert v.outcome == "proven-nonzero"
                assert c.evaluate(v.witness) == v.value != 0


def test_criterion_05_generator_accounting():
    t0 = time.perf_counter()
    want = {2: (16, 10), 3: (81, 165), 4: (256, 3876), 5: (625, 118755)}
    pairs = {}
    for n, (s, N) in want.items():
        g = det_generator(n, F101)
        pairs[n] = (len(g.param_ranges()), g.space.dimension)
        assert pairs[n] == (s, N), n
    assert pairs[5][1] == comb(29, 5)
    for n in (3, 4, 5):
        assert pairs[n][0] < pairs[n][1]
    n_ratios = [
        Fraction(pairs[n + 1][1], pairs[n][1]) for n in (2, 3, 4)
    ]
    s_ratios = [
        Fraction(pairs[n + 1][0], pairs[n][0]) for n in (2, 3, 4)
    ]
    assert n_ratios[0] < n_ratios[1] < n_ratios[2]
    assert s_ratios[0] > s_ratios[1] > s_ratios[2]
    accounting_elapsed = time.perf_counter() - t0
    with criterion(5, "generator seed-length accounting", 30.0):
        assert accounting_elapsed < 1.0, "accounting portion over 1s"
        # one symbolic determinant expansion per n <= 4
        for n in (2, 3, 4):
            g = det_generator(n, F101)
            seed = [0] * len(g.param_ranges())
            # identity pattern: entry (i, j) reads seed variable i*n+j
            for i in range(n):
                for j in range(n):
                    base = (i * n + j) * (n * n)
                    seed[base + i * n + j] = 1
            cv = g.member_from_params(seed)
            # a generic n x n determinant has n! monomials with +-1 coeffs
            from math import factorial

            nonzero = [x for x in cv if x]
            assert len(nonzero) == factorial(n)
            assert all(x in (1, 100) for x in nonzero)


def test_criterion_06_generator_hitting():
    with criterion(6, "det_2 projections hit 60/60 linear metas", 60.0):
        g = det_generator(2, F5)
        metas = [coordinate_meta(g.space, F5, i) for i in range(10)]
        rng = random.Random(2001)
        while len(metas) < 60:
            coeffs = [rng.randrange(5) for _ in range(10)]
            if any(coeffs):
                metas.append(linear_meta(g.space, F5, coeffs))
        hits = 0
        for i, T in enumerate(metas):
            r = succinct_hitting_check(g, T, trials=10**5, seed=6000 + i)
            if r.outcome == "witness":
                cv = g.member_from_params(r.witness_params)
                assert T.eval_at(cv) == r.witness_value != 0
                hits += 1
        assert hits == 60, f"{hits}/60 hit"


def test_criterion_07_succinct_hitting_audit():
    with criterion(7, "discriminant vs squares audit", 5.0):
        space = PolySpace(2, 2, True)
        disc = discriminant(F7)
        squares = FamilyDescriptor("squares", space, F7)
        xy = SparsePoly(F7, 2, {(1, 1): 1})

        vanish = succinct_hitting_check(squares, disc, exhaustive=True)
        assert vanish.outcome == "none-found"
        assert vanish.exhausted and vanish.zeros == vanish.examined == 49
        assert disc.eval_at(xy.coeff_vector(space)) == 1

        report = natural_proof_audit(disc, squares, xy, exhaustive=True)
        assert report.classification == "valid-separation-instance"
        assert report.evidence.exhausted

        full = FamilyDescriptor("full-space", space, F7)
        flipped = natural_proof_audit(disc, full, xy, exhaustive=True)
        assert flipped.classification == "refuted"
        w = SparsePoly.from_json(flipped.evidence.witness_poly)
        assert (
            disc.eval_at(w.coeff_vector(space))
            == flipped.evidence.witness_value
            != 0
        )


def test_criterion_08_toy_equivalence():
    with criterion(8, "minor class vs squares equivalence", 10.0):
        space = PolySpace(2, 2, True)
        squares = FamilyDescriptor("squares", space, F7)

        specs = [
            ("entry", r, c) for r in (0, 1) for c in (0, 1)
        ] + [("full", None, None)]

        metas = {}
        for kind, r, c in specs:
            if kind == "entry":
                sel = MinorSelection("explicit", 1, rows=(r,), cols=(c,))
                key = f"entry{r}{c}"
            else:
                sel = MinorSelection("leading", 2)
                key = "full"
            metas[key] = MinorMeta(
                RankMethodSpec("partials", 1, 0, sel), space, F7
            )
        assert len(metas) == 5

        # side A: the library's hitting check
        side_a = set()
        for key, T in metas.items():
            rep = succinct_hitting_check(squares, T, exhaustive=True)
            nonzero_somewhere = any(
                T.eval_at(cv) for cv in itertools.product(range(7), repeat=3)
            )
            if rep.outcome == "none-found" and nonzero_somewhere:
                side_a.add(key)

        # side B: a hand-rolled oracle with its own algebra.  the k=1 matrix
        # of a x^2 + b xy + c y^2 is [[2a, b], [b, 2c]].
        def oracle_value(key, a, b, c):
            table = {
                "entry00": (2 * a) % 7,
                "entry01": b % 7,
                "entry10": b % 7,
                "entry11": (2 * c) % 7,
                "full": (4 * a * c - b * b) % 7,
            }
            return table[key]

        side_b = set()
        for key in metas:
            vanishes_on_family = all(
                oracle_value(key, (s * s) % 7, (2 * s * t) % 7, (t * t) % 7) == 0
                for s in range(7)
                for t in range(7)
            )
            nonzero_somewhere = any(
                oracle_value(key, a, b, c)
                for a, b, c in itertools.product(range(7), repeat=3)
            )
            if vanishes_on_family and nonzero_somewhere:
                side_b.add(key)

        assert side_a == side_b == {"full"}


def test_criterion_09_ips_verification():
    with criterion(9, "geometric certificates and CNF translation", 30.0):
        # hand certificate 1: {x, x-1} with 1 + y2 - y1
        b = CircuitBuilder(F7, 1)
        fx = b.build(b.inp(0))
        b = CircuitBuilder(F7, 1)
        fx1 = b.build(b.sub(b.inp(0), b.const(1)))
        from npl.ips import PolynomialSystem

        sys_hand = PolynomialSystem(F7, 1, (fx, fx1))
        b = CircuitBuilder(F7, 2)
        cert1 = b.build(b.sub(b.add(b.const(1), b.inp(1)), b.inp(0)))
        rep1 = verify_certificate(sys_hand, cert1, exhaustive=True)
        assert rep1.accepted and rep1.grade == "exact"

        # hand certificate 2: (x1) and (not x1) with 1 - y1 - y2
        sys_cnf = cnf_to_system(Cnf(1, ((1,), (-1,))), F7)
        b = CircuitBuilder(F7, 3)
        cert2 = b.build(b.sub(b.sub(b.const(1), b.inp(0)), b.inp(1)))
        rep2 = verify_certificate(sys_cnf, cert2, exhaustive=True)
        assert rep2.accepted and rep2.grade == "exact"

        # 100 random certificates against 10 satisfiable systems
        sat_cnfs = [
            Cnf(1, ((1,),)),
            Cnf(1, ((-1,),)),
            Cnf(2, ((1, 2),)),
            Cnf(2, ((1,), (2,))),
            Cnf(2, ((-1, 2),)),
            Cnf(2, ((-1,), (-2,))),
            Cnf(3, ((1, 2, 3),)),
            Cnf(3, ((1,), (-2,), (3,))),
            Cnf(3, ((1, -2), (2, 3))),
            Cnf(4, ((1, 2), (-3, 4))),
        ]
        rng = random.Random(9001)
        rejected = 0
        for i in range(100):
            cnf = sat_cnfs[i % 10]
            system = cnf_to_system(cnf, F7)
            cert = random_circuit(rng, F7, len(system.members), 6, 2)
            rep = verify_certificate(system, cert, exhaustive=True)
            assert not rep.accepted
            assert rep.failed_condition in (1, 2)
            rejected += 1
        assert rejected == 100

        # exhaustive truth-table property over a fixed corpus, n <= 4
        corpus = sat_cnfs + [
            Cnf(1, ((1,), (-1,))),
            Cnf(2, ()),
            Cnf(2, ((1, -2), (-1, 2))),
            Cnf(3, ((1, 2, -3), (-1, -2, 3))),
            Cnf(4, ((1, 2, 3), (-2, -3, 4), (-1,))),
            Cnf(4, ((1,), (-1,), (2, 3, 4))),
        ]
        for cnf in corpus:
            system = cnf_to_system(cnf, F13)
            for pt in truth_assignments(cnf.num_vars):
                common_zero = all(m.evaluate(pt) == 0 for m in system.members)
                assert common_zero == cnf_satisfied(cnf.clauses, pt)


def test_criterion_10_cli_determinism(tmp_path, capsys):
    with criterion(10, "CLI reports byte-identical across reruns", 30.0):
        b = CircuitBuilder(F13, 2)
        zero = b.build(
            b.sub(b.add(b.inp(0), b.inp(1)), b.add(b.inp(1), b.inp(0)))
        )
        (tmp_path / "zero.json").write_text(json.dumps(zero.to_json()))
        xy = SparsePoly(F7, 2, {(1, 1): 1})
        (tmp_path / "xy.json").write_text(json.dumps(xy.to_json()))
        poly = SparsePoly(F7, 2, {(2, 0): 3, (1, 1): 5, (0, 2): 2})
        (tmp_path / "poly.json").write_text(json.dumps(poly.to_json()))
        (tmp_path / "phi.cnf").write_text("p cnf 1 2\n1 0\n-1 0\n")
        b = CircuitBuilder(F13, 3)
        cert = b.build(b.sub(b.sub(b.const(1), b.inp(0)), b.inp(1)))
        (tmp_path / "cert.json").write_text(json.dumps(cert.to_json()))

        plans = [
            ["pit", "--circuit", str(tmp_path / "zero.json"),
             "--field", "13", "--seed", "7"],
            ["hit-check", "--meta", "disc", "--family", "squares",
             "--space", "2:2", "--field", "7", "--exhaustive"],
            ["hit-check", "--meta", "disc", "--family", "full",
             "--space", "2:2", "--field", "7", "--trials", "25",
             "--seed", "11"],
            ["audit", "--meta", "disc", "--family", "squares",
             "--space", "2:2", "--field", "7",
             "--hard", str(tmp_path / "xy.json"), "--exhaustive"],
            ["rank", "--poly", str(tmp_path / "poly.json"),
             "--method", "partials", "--k", "1", "--field", "7"],
            ["gen", "--n", "2,3,4,5", "--field", "101", "--seed", "3"],
            ["ips-verify", "--cnf", str(tmp_path / "phi.cnf"),
             "--cert", str(tmp_path / "cert.json"), "--field", "13",
             "--seed", "5"],
            ["ips-from-cnf", "--cnf", str(tmp_path / "phi.cnf"),
             "--field", "13"],
        ]
        for argv in plans:
            main(argv)
            first = capsys.readouterr().out
            main(argv)
            second = capsys.readouterr().out
            body1 = json.dumps(json.loads(first)["body"], sort_keys=True,
                               separators=(",", ":"))
            body2 = json.dumps(json.loads(second)["body"], sort_keys=True,
                               separators=(",", ":"))
            assert body1 == body2, argv[0]
