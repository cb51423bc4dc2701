import itertools
import json
import math
import random
import time

import pytest

from npl.algebra import PolySpace, PrimeField, SparsePoly
from npl.circuits import (
    Circuit,
    CircuitBuilder,
    FamilyDescriptor,
    derive_seed,
    sample_family_with_params,
)
from npl.meta import (
    CircuitMeta,
    MinorMeta,
    MinorSelection,
    RankMethodSpec,
    coordinate_meta,
    discriminant,
)
from npl.pit import (
    natural_proof_audit,
    pit_exhaustive,
    pit_schwartz_zippel,
    succinct_hitting_check,
)
from npl.cli import main
from npl.errors import (
    CharacteristicTooSmall,
    EnumerationBudgetExceeded,
    FieldMismatch,
    SpaceMismatch,
)

from helpers import (
    compose_affine,
    count_member_builds,
    dead_cone_circuit,
    det_generator,
    distributivity_circuit,
    int_cofactor_det,
    linear_meta,
    random_circuit,
    reference_value,
    splice,
)

F2 = PrimeField(2)
F5 = PrimeField(5)
F7 = PrimeField(7)
F13 = PrimeField(13)
F101 = PrimeField(101)

SP22 = PolySpace(2, 2, True)


def frobenius_gap_circuit(field):
    # x^2 - x vanishes on F_2 as a function yet is a nonzero polynomial
    b = CircuitBuilder(field, 1)
    sq = b.mul(b.inp(0), b.inp(0))
    neg = b.mul(b.const(field.p - 1), b.inp(0))
    return b.build(b.add(sq, neg))


def commutator_circuit(field):
    b = CircuitBuilder(field, 2)
    m1 = b.mul(b.inp(0), b.inp(1))
    m2 = b.mul(b.inp(1), b.inp(0))
    neg = b.mul(b.const(field.p - 1), m2)
    return b.build(b.add(m1, neg))


def det3_circuit(field):
    b = CircuitBuilder(field, 9)
    x = [b.inp(i) for i in range(9)]

    def m2(a, bb, c, d):
        neg = b.mul(b.const(field.p - 1), b.mul(c, d))
        return b.add(b.mul(a, bb), neg)

    t1 = b.mul(x[0], m2(x[4], x[8], x[5], x[7]))
    t2 = b.mul(x[1], m2(x[3], x[8], x[5], x[6]))
    t3 = b.mul(x[2], m2(x[3], x[7], x[4], x[6]))
    neg_t2 = b.mul(b.const(field.p - 1), t2)
    return b.build(b.add(b.add(t1, neg_t2), t3))


def power_sum(rng, field, v, k):
    """sum_i c_i x_i^k, c_i nonzero: degree k in each variable, total k."""
    b = CircuitBuilder(field, v)
    acc = b.const(0)
    for i in range(v):
        term = b.const(rng.randrange(1, field.p))
        for _ in range(k):
            term = b.mul(term, b.inp(i))
        acc = b.add(acc, term)
    return b.build(acc)


def product_of_sums(rng, field, v, m):
    """m affine forms multiplied: degree m in each variable, total m."""
    b = CircuitBuilder(field, v)
    acc = b.const(1)
    for _ in range(m):
        form = b.const(rng.randrange(field.p))
        for i in range(v):
            form = b.add(form, b.mul(b.const(rng.randrange(field.p)), b.inp(i)))
        acc = b.mul(acc, form)
    return b.build(acc)


def falling_sum(field, terms):
    """sum c * prod_i (x_i)_{e_i} over (c, e) in terms, (x)_e the falling
    factorial x (x - 1) ... (x - e + 1): nonzero first at the lex-least e."""
    b = CircuitBuilder(field, len(terms[0][1]))
    acc = b.const(0)
    for c, e in terms:
        term = b.const(c)
        for i, k in enumerate(e):
            for j in range(k):
                term = b.mul(term, b.sub(b.inp(i), b.const(j)))
        acc = b.add(acc, term)
    return b.build(acc)


def record_walk(monkeypatch, record):
    """Patch ``Circuit.staged_evaluator`` so that each walk call hands its
    point to ``record`` first."""
    staged_evaluator = Circuit.staged_evaluator

    def recording(self):
        value = staged_evaluator(self)

        def recorded(x):
            record(x)
            return value(x)
        return recorded

    monkeypatch.setattr(Circuit, "staged_evaluator", recording)


def lower_set(degrees, total):
    """The points of prod {0..D_i} with sum(x) <= total, row-major."""
    grid = itertools.product(*(range(d + 1) for d in degrees))
    return [pt for pt in grid if sum(pt) <= total]


class TestExhaustiveEngine:
    def test_char_precondition(self):
        with pytest.raises(CharacteristicTooSmall):
            pit_exhaustive(frobenius_gap_circuit(F2))

    def test_frobenius_gap_over_f5(self):
        v = pit_exhaustive(frobenius_gap_circuit(F5))
        assert v.outcome == "proven-nonzero"
        assert v.witness == (2,) and v.value == 2

    def test_zero_circuit(self):
        b = CircuitBuilder(F7, 2)
        l = b.add(b.inp(0), b.inp(1))
        r = b.add(b.inp(1), b.inp(0))
        neg = b.mul(b.const(6), r)
        c = b.build(b.add(l, neg))
        assert pit_exhaustive(c).outcome == "proven-zero"

    def test_budget_precondition(self):
        c = commutator_circuit(F101)
        with pytest.raises(EnumerationBudgetExceeded):
            pit_exhaustive(c, enum_budget=3)

    def test_residue_products_past_int64(self):
        # 2^32 * 2^32 = 2^64 is 8 mod 2^61 - 1, and 0 once wrapped to int64
        b = CircuitBuilder(PrimeField(2**61 - 1), 0)
        big = b.const(2**32)
        v = pit_exhaustive(b.build(b.mul(big, big)))
        assert v.outcome == "proven-nonzero"
        assert v.witness == () and v.value == 8

    def test_modulus_past_int64(self):
        F = PrimeField(2**64 - 59)
        b = CircuitBuilder(F, 0)
        big = b.const(2**63)
        v = pit_exhaustive(b.build(b.mul(big, big)))
        assert v.outcome == "proven-nonzero" and v.value == pow(2, 126, F.p)
        b = CircuitBuilder(F, 0)
        zero = b.build(b.add(b.const(F.p - 1), b.const(1)))
        assert pit_exhaustive(zero).outcome == "proven-zero"

    def test_witness_reevaluates(self):
        rng = random.Random(2)
        for _ in range(50):
            c = random_circuit(rng, F13, rng.randrange(1, 4), 8, 4)
            v = pit_exhaustive(c)
            if v.outcome == "proven-nonzero":
                assert c.evaluate(v.witness) == v.value != 0

    def test_witness_failing_reevaluation_is_an_internal_error(
            self, tmp_path, monkeypatch, capsys):
        # the walk and the witness's re-evaluation are independent code: a
        # reference path that answers 0 everywhere contradicts the walk's
        # witness, and the contradiction is raised, never reported
        b = CircuitBuilder(F13, 2)
        xy = b.build(b.mul(b.inp(0), b.inp(1)))
        (tmp_path / "xy.json").write_text(json.dumps(xy.to_json()))
        monkeypatch.setattr(Circuit, "evaluate", lambda self, point: 0)
        # the randomized engine reads the reference path
        assert pit_schwartz_zippel(xy, 5, 0).outcome == "probably-zero"
        with pytest.raises(AssertionError, match="^witness failed its re-evaluation$"):
            pit_exhaustive(xy)
        monkeypatch.chdir(tmp_path)
        assert main(["pit", "--circuit", "xy.json", "--field", "13", "--exhaustive"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "npl: internal error: witness failed its re-evaluation\n"

    def test_budget_boundary(self, monkeypatch):
        # the grid is {0,1} x {0,1}: 4 points, whatever the field
        c = commutator_circuit(F101)
        v = pit_exhaustive(c, enum_budget=4)
        assert (v.outcome, v.variable_degrees, v.grid_points) == ("proven-zero", (1, 1), 4)
        assert v.to_json()["variable_degrees"] == [1, 1]
        assert v.to_json()["grid_points"] == 4

        def no_evaluation(self, point):
            raise AssertionError("a point was evaluated past the budget")

        monkeypatch.setattr(Circuit, "evaluate", no_evaluation)
        with pytest.raises(EnumerationBudgetExceeded):
            pit_exhaustive(c, enum_budget=3)

    def test_per_variable_precondition(self):
        # x^3 y^3 has formal degree 6 >= 5 but degree 3 < 5 in each variable
        b = CircuitBuilder(F5, 2)
        x3 = b.mul(b.mul(b.inp(0), b.inp(0)), b.inp(0))
        y3 = b.mul(b.mul(b.inp(1), b.inp(1)), b.inp(1))
        xy = b.mul(x3, y3)
        v = pit_exhaustive(b.build(xy))
        assert v.outcome == "proven-nonzero" and v.witness == (1, 1) and v.value == 1
        assert (v.degree_bound, v.variable_degrees, v.grid_points) == (6, (3, 3), 16)
        assert pit_exhaustive(b.build(b.sub(xy, b.mul(y3, x3)))).outcome == "proven-zero"
        # x^5 y over F_5: degree 5 in x0 is refused by name
        b = CircuitBuilder(F5, 2)
        x = b.inp(0)
        x5 = b.mul(b.mul(b.mul(x, x), b.mul(x, x)), x)
        with pytest.raises(CharacteristicTooSmall, match="degree 5 in x0"):
            pit_exhaustive(b.build(b.mul(x5, b.inp(1))))

    def test_unreached_inputs_take_zero_only(self):
        # 40 declared inputs, two of them used: a 6-point grid, not 101^40;
        # the verdict lists all 40 coordinates, so the budget caps v too
        b = CircuitBuilder(F101, 40)
        c = b.build(b.add(b.mul(b.inp(7), b.inp(7)), b.inp(30)))
        v = pit_exhaustive(c, enum_budget=40)
        assert v.outcome == "proven-nonzero" and v.grid_points == 6
        assert v.witness == (0,) * 30 + (1,) + (0,) * 9
        assert v.variable_degrees == (0,) * 7 + (2,) + (0,) * 22 + (1,) + (0,) * 9
        with pytest.raises(EnumerationBudgetExceeded, match="40 inputs"):
            pit_exhaustive(c, enum_budget=39)

    def test_walk_costs_the_support_not_v(self, monkeypatch):
        # a million declared inputs and a 2^12-point grid: the walk hands the
        # staged evaluator the 12 support coordinates of each grid point, and
        # an evaluation visits at most the 23 gates of the program, so a point
        # costs the support, not the million coordinates
        b = CircuitBuilder(F101, 10**6)
        out = b.inp(0)
        for i in range(1, 12):
            out = b.mul(out, b.inp(i))
        dead = b.add(b.inp(500_000), b.inp(999_999))
        c = b.build(out)
        walked, reevaluated = [], []
        record_walk(monkeypatch, lambda x: walked.append(len(x)))
        evaluate = Circuit.evaluate

        def recorded_evaluate(self, point):
            # hold only lengths: a point of a million entries per call must
            # fail here, not fill memory
            reevaluated.append(len(point))
            return evaluate(self, point)

        monkeypatch.setattr(Circuit, "evaluate", recorded_evaluate)
        v = pit_exhaustive(c)
        assert v.outcome == "proven-nonzero" and v.grid_points == 2**12
        assert v.witness == (1,) * 12 + (0,) * (10**6 - 12)
        # every grid point as a support tuple, then the witness's one
        # re-evaluation at all v coordinates through the reference path
        assert walked == [12] * 2**12
        assert reevaluated == [10**6]
        # the program is the 12 inputs and 11 products: the dead addition
        # and the two inputs only it reads are not in it
        assert c.gates[dead] == ("add", dead - 2, dead - 1)
        assert len(c._program) == 23 and all(g[0] != "add" for g in c._program)
        assert not {("in", 500_000), ("in", 999_999)} & set(c._program)

    def test_reached_inputs_refused_before_degree_pass(self):
        # each reached input has degree >= 1, so r of them need 2^r points
        b = CircuitBuilder(F7, 5)
        out = b.inp(0)
        for i in range(1, 5):
            out = b.add(out, b.inp(i))
        c = b.build(out)
        with pytest.raises(EnumerationBudgetExceeded, match="5 reached inputs"):
            pit_exhaustive(c, enum_budget=31)
        assert "variable_degrees" not in c.__dict__
        assert pit_exhaustive(c, enum_budget=32).grid_points == 32
        # ten thousand reached inputs are refused without a degree map each
        b = CircuitBuilder(F7, 10**4)
        out = b.inp(0)
        for i in range(1, 10**4):
            out = b.add(out, b.inp(i))
        c = b.build(out)
        with pytest.raises(EnumerationBudgetExceeded, match="10000 reached inputs"):
            pit_exhaustive(c)
        assert "variable_degrees" not in c.__dict__

    def test_total_degree_cuts_the_grid(self, monkeypatch):
        # (A + B) C - A C - B C, A, B, C products of two forms in 4 variables:
        # degree 4 in each, total 4, so the C(8, 4) = 70 points of sum(x) <= 4
        # decide it in the 5^4 = 625-point grid that the verdict covers
        c = distributivity_circuit(random.Random(41), PrimeField(17), 4, True)
        assert c.variable_degrees == {0: 4, 1: 4, 2: 4, 3: 4} and c.formal_degree == 4
        seen = []
        record_walk(monkeypatch, lambda x: seen.append(tuple(x)))
        v = pit_exhaustive(c)
        assert v.outcome == "proven-zero" and v.grid_points == 625
        assert v.points_evaluated == len(seen) == math.comb(8, 4) == 70
        assert seen == lower_set((4, 4, 4, 4), 4)

    def test_outcome_invariant_under_affine_substitution(self):
        # C and C o (x -> A x + b), A invertible, are zero together; the
        # substitution makes every D_i the total degree of C
        outcomes = set()
        for p in (13, 2**31 - 1, 2**61 - 1):
            field, rng = PrimeField(p), random.Random(p)
            for t in range(12):
                v = rng.randrange(1, 4)
                c = (distributivity_circuit(rng, field, v, t % 2 == 0) if t % 3 else
                     random_circuit(rng, field, v, 8, 4))
                A = [[rng.randrange(p) for _ in range(v)] for _ in range(v)]
                while not int_cofactor_det(A, p):
                    A = [[rng.randrange(p) for _ in range(v)] for _ in range(v)]
                ca = compose_affine(c, A, [rng.randrange(p) for _ in range(v)])
                assert set(ca.variable_degrees.values()) <= {c.formal_degree}
                before, after = pit_exhaustive(c), pit_exhaustive(ca)
                assert before.outcome == after.outcome, (p, t)
                if after.witness is not None:
                    assert reference_value(ca, after.witness) == after.value != 0
                outcomes.add(after.outcome)
        assert outcomes == {"proven-zero", "proven-nonzero"}

    def test_verdict_matches_full_grid(self):
        # against a walk of all of F_p^v, which decides zero-ness whenever
        # every degree is below p; the witness is the first nonzero point
        # of the degree grid in row-major order
        rng = random.Random(1701)
        for field in (F5, F7, F13):
            p = field.p
            for _ in range(40):
                v = rng.randrange(1, 4)
                a, bb, cc = (random_circuit(rng, field, v, 8, p - 1) for _ in range(3))
                b = CircuitBuilder(field, v)
                x, y, z = (splice(b, c) for c in (a, bb, cc))
                distributes = b.sub(b.sub(b.mul(b.add(x, y), z), b.mul(x, z)), b.mul(y, z))
                xyz = b.mul(b.mul(x, y), z)
                for c in (a, b.build(distributes), b.build(b.add(distributes, xyz)),
                          distributivity_circuit(rng, field, v, rng.random() < 0.5)):
                    self._check_against_full_grid(c)
                # total degree well below sum D_i: the cut to sum(x) <= D bites
                k, m = rng.randrange(1, p), rng.randrange(1, 4)
                ps = power_sum(rng, field, v, k)
                b = CircuitBuilder(field, v)
                for c in (ps, b.build(b.sub(splice(b, ps), splice(b, ps))),
                          product_of_sums(rng, field, v, m)):
                    self._check_against_full_grid(c)
                # the first nonzero point is the lex-least falling-factorial
                # exponent, on the boundary sum(x) = D when D is the largest
                terms = [(rng.randrange(1, p), tuple(rng.randrange(min(p, 4)) for _ in range(v)))
                         for _ in range(rng.randrange(1, 4))]
                if len({e for _, e in terms}) == len(terms):
                    c = falling_sum(field, terms)
                    assert pit_exhaustive(c).witness == min(e for _, e in terms)
                    self._check_against_full_grid(c)

    @staticmethod
    def _check_against_full_grid(c):
        p = c.field.p
        degrees = [c.variable_degrees.get(i, 0) for i in range(c.v)]
        if max(degrees) >= p:
            with pytest.raises(CharacteristicTooSmall):
                pit_exhaustive(c)
            return
        full = itertools.product(range(p), repeat=c.v)
        nonzero = any(c.evaluate(pt) for pt in full)
        v = pit_exhaustive(c)
        assert v.outcome == ("proven-nonzero" if nonzero else "proven-zero")
        grid = itertools.product(*(range(d + 1) for d in degrees))
        assert v.witness == next((pt for pt in grid if c.evaluate(pt)), None)
        assert v.grid_points == math.prod(d + 1 for d in degrees)
        # the walk: the lower set sum(x) <= formal degree, up to the witness
        # and its re-evaluation
        walk = lower_set(degrees, c.formal_degree)
        assert v.points_evaluated == (len(walk) if v.witness is None
                                      else walk.index(v.witness) + 2)


class TestSchwartzZippel:
    def test_commutator_probably_zero(self):
        v = pit_schwartz_zippel(commutator_circuit(F7), 25, 0)
        assert v.outcome == "probably-zero"
        assert v.trials == 25
        assert v.per_trial_error == "2/7"

    def test_constant_zero_circuit(self):
        b = CircuitBuilder(F7, 1)
        c = b.build(b.const(0))
        assert pit_schwartz_zippel(c, 5, 1).outcome == "probably-zero"

    def test_det3_generic_onslaught(self):
        c = det3_circuit(F101)
        assert c.formal_degree == 3
        for seed in range(100):
            v = pit_schwartz_zippel(c, 20, seed)
            assert v.outcome == "proven-nonzero"
            assert c.evaluate(v.witness) == v.value != 0

    def test_determinism_and_trial_derivation(self):
        c = det3_circuit(F101)
        a = pit_schwartz_zippel(c, 10, 42)
        b = pit_schwartz_zippel(c, 10, 42)
        assert a == b

    def test_degraded_field_warning(self):
        v = pit_schwartz_zippel(commutator_circuit(F2), 5, 0)
        assert any("degraded" in w or "p <= 2*degree" in w for w in v.warnings)

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            pit_schwartz_zippel(commutator_circuit(F7), 0, 0)

    def test_degree_one_over_f2_warns(self):
        # p = 2 * deg is the boundary: a degree-1 circuit over F_2 errs with
        # probability up to 1/2 per trial, and says so
        b = CircuitBuilder(F2, 1)
        v = pit_schwartz_zippel(b.build(b.inp(0)), 5, 0)
        assert v.warnings == ("field size 2 is at most twice the formal degree 1; "
                              "per-trial error bound degraded",)

    def test_inputs_past_budget_refused(self, tmp_path, monkeypatch, capsys):
        # each point lists v coordinates: v = 10^9 is refused before any draw
        monkeypatch.chdir(tmp_path)
        for v in (10**9, 5):
            circuit = {"p": 13, "v": v, "gates": [{"op": "const", "c": 1}], "out": 0}
            (tmp_path / f"v{v}.json").write_text(json.dumps(circuit))
        t0 = time.perf_counter()
        assert main(["pit", "--circuit", f"v{10**9}.json", "--field", "13"]) == 2
        assert time.perf_counter() - t0 < 0.5
        assert capsys.readouterr().err.startswith("npl: error:")
        budget = ["--field", "13", "--enum-budget"]
        assert main(["pit", "--circuit", "v5.json", *budget, "4"]) == 2
        capsys.readouterr()
        assert main(["pit", "--circuit", "v5.json", *budget, "5"]) == 1
        verdict = json.loads(capsys.readouterr().out)["body"]["result"]["verdict"]
        assert verdict["outcome"] == "proven-nonzero" and verdict["witness"] is not None


class TestEngineAgreement:
    def test_never_contradict_and_sz_catches(self):
        rng = random.Random(7)
        circuits = [
            random_circuit(rng, F13, rng.randrange(1, 5), 8, 4) for _ in range(200)
        ]
        nonzero = []
        for c in circuits:
            ex = pit_exhaustive(c)
            sz = pit_schwartz_zippel(c, 25, 0)
            if ex.outcome == "proven-zero":
                assert sz.outcome == "probably-zero"
            else:
                nonzero.append(c)
        assert nonzero, "corpus produced no nonzero circuits"
        for rep in range(100):
            for c in nonzero[:5]:
                assert pit_schwartz_zippel(c, 25, rep).outcome == "proven-nonzero"

    def test_dead_cones_across_fields(self):
        # circuits behind a dead cone: a randomized proven-nonzero never
        # meets an exhaustive proven-zero, and every witness is nonzero under
        # a walk of all the gates; the exhaustive side is skipped when some
        # D_i >= p, which the product-set lemma does not cover
        pairs = set()
        for p in (5, 7, 13, 2**31 - 1):
            field = PrimeField(p)
            rng = random.Random(p)
            for _ in range(40):
                c, _ = dead_cone_circuit(rng, field, rng.randrange(1, 5), 16, 10)
                verdicts = [pit_schwartz_zippel(c, 2, rng.randrange(1000))]
                if max(c.variable_degrees.values(), default=0) < p:
                    verdicts.append(pit_exhaustive(c))
                pairs.add(tuple(v.outcome for v in verdicts))
                for v in verdicts:
                    if v.witness is not None:
                        assert reference_value(c, v.witness) == v.value != 0
        assert ("proven-nonzero", "proven-zero") not in pairs
        # the corpus reaches every other pair, and skips after both outcomes
        assert pairs == {("proven-nonzero", "proven-nonzero"),
                         ("probably-zero", "proven-nonzero"),
                         ("probably-zero", "proven-zero"),
                         ("proven-nonzero",), ("probably-zero",)}


def coeffs_at(desc, params):
    return desc.member_from_params(params).coeff_vector(desc.space)


class TestGenerator:
    def test_accounting(self):
        want = {2: (16, 10), 3: (81, 165), 4: (256, 3876), 5: (625, 118755)}
        for n, (s, N) in want.items():
            g = det_generator(n, F101)
            assert len(g.param_ranges()) == s
            assert g.space.dimension == N
            assert g.param_degree == n

    def test_identity_pattern_seed(self):
        g = det_generator(2, F5)
        seed = [0] * 16
        seed[0] = seed[5] = seed[10] = seed[15] = 1
        cv = coeffs_at(g, seed)
        assert cv[g.space.rank((1, 0, 0, 1))] == 1
        assert cv[g.space.rank((0, 1, 1, 0))] == 4
        assert sum(1 for x in cv if x) == 2

    def test_zero_seed(self):
        g = det_generator(2, F5)
        assert coeffs_at(g, [0] * 16) == [0] * 10

    def test_diagonal_seed_hits_coordinate(self):
        g = det_generator(2, F5)
        seed = [0] * 16
        seed[0] = seed[12] = 1  # both diagonal entries read x1
        cv = coeffs_at(g, seed)
        T = coordinate_meta(g.space, F5, g.space.rank((2, 0, 0, 0)))
        assert T.eval_at(cv) == 1
        Tsum = linear_meta(g.space, F5, [1] * 10)
        assert Tsum.eval_at(cv) == 1

    def test_generator_pit_finds_witness(self):
        # random mode draws G's parameters from the seeded streams of a
        # randomized identity test of T o G, of degree deg(T) * param_degree
        g = det_generator(2, F5)
        T = coordinate_meta(g.space, F5, 0)
        r = succinct_hitting_check(g, T, trials=60, seed=1)
        assert r.outcome == "witness" and r.examined <= 60
        assert T.degree_bound * g.param_degree == 2
        assert T.eval_at(coeffs_at(g, r.witness_params)) == r.witness_value != 0

    def test_degenerate_meta_flagged(self):
        g = det_generator(2, F5)
        Tzero = linear_meta(g.space, F5, [0] * 10)
        r = succinct_hitting_check(g, Tzero, trials=4, seed=0)
        assert r.outcome == "none-found" and r.examined == 4
        assert r.degenerate_suspected

    def test_space_mismatch(self):
        g = det_generator(2, F5)
        with pytest.raises(SpaceMismatch):
            succinct_hitting_check(g, discriminant(F5), trials=2, seed=0)

    def test_size_bounds(self, capsys):
        for n in ("0", "7"):
            assert main(["gen", "--n", n, "--field", "7"]) == 2
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err.startswith("npl: error:") and out.err.count("\n") == 1


class TestHittingCheck:
    def full_minor(self, field=F7):
        spec = RankMethodSpec("partials", 1, 0, MinorSelection("leading", 2))
        return MinorMeta(spec, SP22, field)

    def test_disc_respects_squares_exhaustively(self):
        r = succinct_hitting_check(
            FamilyDescriptor("squares", SP22, F7), discriminant(F7), exhaustive=True
        )
        assert r.outcome == "none-found"
        assert r.exhausted and r.examined == 49 and r.zeros == 49
        assert r.mode == "exhaustive"

    def test_full_space_hits_disc(self):
        r = succinct_hitting_check(
            FamilyDescriptor("full-space", SP22, F7), discriminant(F7), exhaustive=True
        )
        assert r.outcome == "witness"
        assert r.witness_params == (0, 1, 0)
        assert r.witness_value == 1

    def test_minor_vs_families(self):
        T = self.full_minor()
        none = succinct_hitting_check(
            FamilyDescriptor("squares", SP22, F7), T, exhaustive=True
        )
        assert none.outcome == "none-found" and none.exhausted
        # det-projection n=2 has 8 parameters: a grid of 7^8 members
        hit = succinct_hitting_check(
            FamilyDescriptor("det-projection", SP22, F7, n=2), T, exhaustive=True,
            enum_budget=7**8,
        )
        assert hit.outcome == "witness"
        f = SparsePoly.from_json(hit.witness_poly)
        assert T.eval_at(f.coeff_vector(SP22)) == hit.witness_value != 0

    def test_budget_semantics(self, monkeypatch):
        squares = FamilyDescriptor("squares", SP22, F7)
        with pytest.raises(EnumerationBudgetExceeded):
            succinct_hitting_check(
                squares, discriminant(F7), exhaustive=True, enum_budget=48
            )
        # full-space has 3 parameters: a grid of 343 members
        full = FamilyDescriptor("full-space", SP22, F7)
        ok = succinct_hitting_check(
            full, discriminant(F7), exhaustive=True, enum_budget=343
        )
        assert ok.outcome == "witness" and ok.examined == 8
        builds = count_member_builds(monkeypatch)
        with pytest.raises(EnumerationBudgetExceeded, match="3 coordinates"):
            succinct_hitting_check(
                full, discriminant(F7), exhaustive=True, enum_budget=342
            )
        assert builds == []

    def test_grid_past_budget_refused_before_any_member(self, monkeypatch, capsys):
        # squares over F_(2^31-1) on 2 variables: a grid of p^2 members
        builds = count_member_builds(monkeypatch)
        t0 = time.perf_counter()
        assert main(["hit-check", "--meta", "disc", "--family", "squares",
                     "--space", "2:2", "--exhaustive"]) == 2
        assert time.perf_counter() - t0 < 0.5
        assert builds == []
        err = capsys.readouterr().err
        assert err.startswith("npl: error:") and len(err.splitlines()) == 1
        assert "2 coordinates" in err and "1000000" in err

    def test_exhausted_none_found_is_budget_monotone(self):
        squares = FamilyDescriptor("squares", SP22, F7)
        small = succinct_hitting_check(
            squares, discriminant(F7), exhaustive=True, enum_budget=49
        )
        large = succinct_hitting_check(
            squares, discriminant(F7), exhaustive=True, enum_budget=10**6
        )
        assert small.outcome == large.outcome == "none-found"
        assert small.exhausted and large.exhausted
        assert small.examined == large.examined

    def test_random_mode_determinism(self):
        full = FamilyDescriptor("full-space", SP22, F7)
        a = succinct_hitting_check(full, discriminant(F7), trials=20, seed=3)
        b = succinct_hitting_check(full, discriminant(F7), trials=20, seed=3)
        assert a == b
        assert a.mode == "random" and a.seed == 3

    def test_random_mode_uses_derived_seeds(self):
        full = FamilyDescriptor("full-space", SP22, F7)
        r = succinct_hitting_check(full, discriminant(F7), trials=10, seed=9)
        if r.outcome == "witness":
            found = False
            for t in range(10):
                params, _ = sample_family_with_params(full, derive_seed(9, t))
                if params == r.witness_params:
                    found = True
            assert found

    def test_collect_stats_scans_everything(self):
        full = FamilyDescriptor("full-space", SP22, F7)
        r = succinct_hitting_check(
            full, discriminant(F7), trials=30, seed=1, collect_stats=True
        )
        assert r.examined == 30
        assert r.zeros + sum(
            1
            for t in range(30)
            if discriminant(F7).eval_at(
                sample_family_with_params(full, derive_seed(1, t))[1].coeff_vector(SP22),
            )
        ) == 30

    def test_space_mismatch(self):
        desc = FamilyDescriptor("full-space", PolySpace(2, 4, True), F7)
        with pytest.raises(SpaceMismatch):
            succinct_hitting_check(desc, discriminant(F7), trials=2)
        # the same space over another field is a field mismatch, named as one
        squares = FamilyDescriptor("squares", SP22, F7)
        with pytest.raises(FieldMismatch, match="F_7.*F_13"):
            succinct_hitting_check(squares, discriminant(F13), trials=2)

    def test_trials_positive(self):
        full = FamilyDescriptor("full-space", SP22, F7)
        for trials in (0, -3):
            with pytest.raises(ValueError):
                succinct_hitting_check(full, discriminant(F7), trials=trials)

    def test_witness_that_does_not_rebuild_raises(self, monkeypatch, capsys):
        # each build of a member drifts by x^2 from the last, so no witness
        # rebuilds from its params; the check must raise, never report
        import npl.circuits

        real, builds = npl.circuits.det_projection, itertools.count(1)

        def drifting(field, space, n, params):
            drift = SparsePoly(field, space.v, {(2, 0): next(builds)})
            return real(field, space, n, params) + drift

        monkeypatch.setattr(npl.circuits, "det_projection", drifting)
        desc = FamilyDescriptor("det-projection", SP22, F7, n=2)
        T = coordinate_meta(SP22, F7, SP22.rank((2, 0)))
        # the exhaustive grid has 7^8 members, past the default budget
        for kwargs in ({"trials": 5, "seed": 0}, {"exhaustive": True, "enum_budget": 7**8}):
            with pytest.raises(AssertionError):
                succinct_hitting_check(desc, T, **kwargs)
        # through the CLI: one internal-error line and exit 2, no report
        assert main(["hit-check", "--meta", "disc", "--family", "detproj:n=2",
                     "--space", "2:2", "--field", "7", "--exhaustive",
                     "--enum-budget", "5764801"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("npl: internal error: ") and err.count("\n") == 1

    def test_degenerate_meta_suspected(self):
        full = FamilyDescriptor("full-space", SP22, F7)
        Tzero = linear_meta(SP22, F7, [0, 0, 0])
        r = succinct_hitting_check(full, Tzero, trials=10, seed=0)
        assert r.outcome == "none-found"
        assert r.degenerate_suspected


def direct_walk(desc, T):
    """(examined, zeros, witness params, witness poly, witness value) of a
    walk that builds every member of the grid, in row-major order."""
    examined = zeros = 0
    for params in itertools.product(*map(range, desc.param_ranges())):
        member = desc.member_from_params(params)
        examined += 1
        val = T.eval_at(member.coeff_vector(desc.space))
        if val:
            return examined, zeros, params, member.to_json(), val
        zeros += 1
    return examined, zeros, None, None, None


class Recording:
    """Zero everywhere; records the coefficient vectors it sees."""

    def __init__(self, space, field):
        self.space, self.field, self.degree_bound = space, field, 1
        self.seen = []

    def eval_at(self, cv):
        self.seen.append(tuple(cv))
        return 0


def cubic_meta(space, field):
    """cv[0]^3 - cv[0]: degree 3, so deg(T) * c_i >= p walks a slot in full
    at small p; it vanishes as a function on F_2 and F_3, not formally."""
    b = CircuitBuilder(field, space.dimension)
    a = b.inp(0)
    return CircuitMeta(space, b.build(b.sub(b.mul(b.mul(a, a), a), a)), "cubic")


class TestSteppedWalk:
    """The exhaustive family walk on its degree grid, against a walk that
    builds every member."""

    @staticmethod
    def families(field):
        out = [
            FamilyDescriptor("squares", SP22, field),
            FamilyDescriptor("full-space", SP22, field),
            FamilyDescriptor("det-projection", PolySpace(2, 1, True), field, n=1),
            FamilyDescriptor("det-projection", PolySpace(2, 1, False), field, n=1),
            FamilyDescriptor("sps", SP22, field, top_fanin=1),
            FamilyDescriptor("sps", SP22, field, top_fanin=0),  # a grid of one point
            FamilyDescriptor("sparse", SP22, field, sparsity=2),
        ]
        if field.p <= 3:  # 8 parameters each, p^8 members
            out += [FamilyDescriptor("det-projection", SP22, field, n=2),
                    FamilyDescriptor("sps", SP22, field, top_fanin=2)]
        return out

    @staticmethod
    def metas(space, field):
        # coordinate 0 varies slowest, so its witness comes late in the walk
        out = [coordinate_meta(space, field, 0), cubic_meta(space, field)]
        if space == SP22:
            out.append(discriminant(field))
        if space.homogeneous and field.p > space.d:
            minor = MinorSelection("leading", space.d)
            out.append(MinorMeta(RankMethodSpec("partials", 1, 0, minor), space, field))
        return out

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_same_report_as_direct_builds(self, p, monkeypatch):
        field = PrimeField(p)
        builds = count_member_builds(monkeypatch)
        outcomes = set()
        for desc in self.families(field):
            # T sees only the members built, in build order; a degree-1 T that
            # vanishes sees at most the grid prod {0..c_i} and one more member
            # (the probe of T itself then records more)
            T = Recording(desc.space, field)
            del builds[:]
            r = succinct_hitting_check(desc, T, exhaustive=True)
            walked = builds[:]
            assert r.exhausted and r.points_evaluated == len(walked)
            assert T.seen[: len(walked)] == [
                tuple(desc.member_from_params(params).coeff_vector(desc.space))
                for params in walked
            ], desc.class_id
            assert len(walked) <= math.prod(
                r if c is None else min(r, c + 1)
                for r, c in zip(desc.param_ranges(), desc.param_degrees)
            ) + 1, desc.class_id
            for T in self.metas(desc.space, field):
                if T.meta_id == "cubic" and math.prod(desc.param_ranges()) > 1000:
                    continue  # it vanishes on F_3: both walks would build all 3^8
                r = succinct_hitting_check(desc, T, exhaustive=True)
                got = (r.examined, r.zeros, r.witness_params, r.witness_poly,
                       r.witness_value)
                assert got == direct_walk(desc, T), (desc.class_id, T.meta_id)
                outcomes.add(r.outcome)
        assert outcomes == {"witness", "none-found"}

    def test_under_declared_degree_caught_at_last_member(self, monkeypatch):
        # degrees declared 0 leave the grid {(0, 0)}, where coord:0 vanishes;
        # the whole grid's last member (6x + 6y)^2 has x^2 coefficient 1
        squares = FamilyDescriptor("squares", SP22, F7)
        monkeypatch.setattr(FamilyDescriptor, "param_degrees",
                            property(lambda desc: (0,) * len(desc.param_ranges())))
        with pytest.raises(AssertionError, match=r"nonzero at member \(6, 6\)"):
            succinct_hitting_check(squares, coordinate_meta(SP22, F7, 0), exhaustive=True)
        # a total degree declared 0 cuts {0..2}^2 over F_3, each slot walked
        # in full, to (0, 0); the last member (2x + 2y)^2 has x^2 coefficient 1
        monkeypatch.undo()
        monkeypatch.setattr(FamilyDescriptor, "param_degree", property(lambda desc: 0))
        F3 = PrimeField(3)
        squares = FamilyDescriptor("squares", SP22, F3)
        with pytest.raises(AssertionError, match=r"nonzero at member \(2, 2\)"):
            succinct_hitting_check(squares, coordinate_meta(SP22, F3, 0), exhaustive=True)

    def test_builds_per_line(self, monkeypatch):
        # disc has degree 2, and squares degree c = 2 in each slot and total
        # degree 2: the 15 points of {0..4}^2 with x0 + x1 <= 4 and the
        # degree check at (12, 12), one build and one evaluation each
        builds = count_member_builds(monkeypatch)
        squares = FamilyDescriptor("squares", SP22, F13)
        r = succinct_hitting_check(squares, discriminant(F13), exhaustive=True)
        assert r.exhausted and r.examined == 169
        assert builds == [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (1, 1), (1, 2),
                          (1, 3), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (4, 0), (12, 12)]
        assert r.points_evaluated == len(builds) == 16
        # a witness is rebuilt and re-evaluated: one more build and evaluation
        full = FamilyDescriptor("full-space", SP22, F13)
        del builds[:]
        r = succinct_hitting_check(full, discriminant(F13), exhaustive=True)
        assert r.witness_params == (0, 1, 0) and r.examined == 14
        assert builds == [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 0)]
        assert r.points_evaluated == len(builds) == 5


class TestAudit:
    def test_trials_positive(self):
        full = FamilyDescriptor("full-space", SP22, F7)
        xy = SparsePoly(F7, 2, {(1, 1): 1})
        with pytest.raises(ValueError):
            natural_proof_audit(discriminant(F7), full, xy, trials=0)

    def test_three_classifications(self):
        disc = discriminant(F7)
        xy = SparsePoly(F7, 2, {(1, 1): 1})
        squares = FamilyDescriptor("squares", SP22, F7)
        full = FamilyDescriptor("full-space", SP22, F7)

        ok = natural_proof_audit(disc, squares, xy, exhaustive=True)
        assert ok.classification == "valid-separation-instance"
        assert ok.evidence.exhausted
        assert ok.hard_value == 1

        refuted = natural_proof_audit(disc, full, xy, exhaustive=True)
        assert refuted.classification == "refuted"
        assert refuted.evidence.outcome == "witness"
        assert refuted.evidence.witness_value != 0

        square = SparsePoly(F7, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        nonsep = natural_proof_audit(disc, squares, square, exhaustive=True)
        assert nonsep.classification == "non-separating"
        assert nonsep.hard_value == 0

    def test_refuted_beats_non_separating(self):
        disc = discriminant(F7)
        square = SparsePoly(F7, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        full = FamilyDescriptor("full-space", SP22, F7)
        r = natural_proof_audit(disc, full, square, exhaustive=True)
        assert r.classification == "refuted"

    def test_report_json_shape(self):
        disc = discriminant(F7)
        xy = SparsePoly(F7, 2, {(1, 1): 1})
        squares = FamilyDescriptor("squares", SP22, F7)
        doc = natural_proof_audit(disc, squares, xy, exhaustive=True).to_json()
        assert doc["vanishing"] == {"zeros": 49, "examined": 49}
        assert doc["classification"] == "valid-separation-instance"
        assert doc["evidence"]["outcome"] == "none-found"


class TestToyEquivalence:
    def test_minor_class_vs_squares(self):
        # enumerate every minor of the k=1 partials matrix on Poly^2(2):
        # all 1x1 choices plus the full 2x2
        metas = []
        for r in (0, 1):
            for c in (0, 1):
                metas.append(
                    MinorMeta(
                        RankMethodSpec(
                            "partials", 1, 0,
                            MinorSelection("explicit", 1, rows=(r,), cols=(c,)),
                        ),
                        SP22,
                        F7,
                    )
                )
        metas.append(
            MinorMeta(
                RankMethodSpec("partials", 1, 0, MinorSelection("leading", 2)),
                SP22,
                F7,
            )
        )
        assert len(metas) == 5

        squares = FamilyDescriptor("squares", SP22, F7)
        unhit_nonzero = set()
        vanishing_nonzero = set()
        for T in metas:
            report = succinct_hitting_check(squares, T, exhaustive=True)
            somewhere = any(
                T.eval_at((a, b, c))
                for a in range(7)
                for b in range(7)
                for c in range(7)
            )
            if report.outcome == "none-found" and somewhere:
                unhit_nonzero.add(T.meta_id)
            if report.zeros == report.examined == 49 and somewhere:
                vanishing_nonzero.add(T.meta_id)
        assert unhit_nonzero == vanishing_nonzero
        assert len(unhit_nonzero) == 1
