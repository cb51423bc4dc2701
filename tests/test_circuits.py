import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npl.algebra import PolySpace, PrimeField, SparsePoly
from npl.circuits import (
    Circuit,
    CircuitBuilder,
    FamilyDescriptor,
    derive_seed,
    det_projection,
    sample_family_with_params,
    sps_build,
    validate_member,
)
from npl.meta import coordinate_meta, discriminant
from npl.pit import succinct_hitting_check
from npl.errors import (
    ArityMismatch,
    DescriptorInvalid,
    EnumerationBudgetExceeded,
)

from helpers import (
    affine_poly,
    cofactor_det,
    count_member_builds,
    dead_cone_circuit,
    distributivity_circuit,
    poly_value,
    random_circuit,
    reference_value,
    sympy_poly,
    sympy_terms,
    sympy_value,
)

F5 = PrimeField(5)
F7 = PrimeField(7)
F13 = PrimeField(13)


def mul_circuit(field):
    b = CircuitBuilder(field, 2)
    s = b.add(b.inp(0), b.inp(1))
    return b.build(b.mul(s, b.inp(1)))


class TestCircuitBasics:
    def test_worked_evaluations(self):
        assert mul_circuit(F7).evaluate((2, 3)) == 1
        b = CircuitBuilder(F7, 1)
        one = b.build(b.const(1))
        assert one.evaluate((4,)) == 1
        b = CircuitBuilder(F7, 1)
        ident = b.build(b.inp(0))
        assert ident.evaluate((4,)) == 4

    def test_worked_expansions(self):
        pytest.importorskip("sympy")
        b = CircuitBuilder(F7, 2)
        left = b.add(b.inp(0), b.inp(1))
        right = b.add(b.inp(1), b.inp(0))
        neg = b.mul(b.const(6), right)
        zero = b.build(b.add(left, neg))
        for c, want in ((mul_circuit(F7), SparsePoly(F7, 2, {(1, 1): 1, (0, 2): 1})),
                        (zero, SparsePoly.zero(F7, 2))):
            assert sympy_poly(c) == want
            for pt in itertools.product(range(7), repeat=2):
                assert c.evaluate(pt) == poly_value(want, pt)

    def test_formal_degree(self):
        c = mul_circuit(F7)
        assert c.formal_degree == 2
        b = CircuitBuilder(F7, 1)
        assert b.build(b.const(3)).formal_degree == 0

    def test_size(self):
        assert mul_circuit(F7).size == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            Circuit(F7, 2, (("add", 0, 1), ("in", 0)), 0)
        with pytest.raises(ValueError):
            Circuit(F7, 2, (("in", 5),), 0)
        with pytest.raises(ValueError):
            Circuit(F7, 2, (("const", 9),), 0)
        with pytest.raises(ValueError):
            Circuit(F7, 2, (("in", 0),), 3)

    def test_json_round_trip(self):
        c = mul_circuit(F7)
        rt = Circuit.from_json(json.loads(json.dumps(c.to_json())))
        assert rt == c
        bad = c.to_json()
        bad["gates"][0] = {"op": "nand", "a": 0, "b": 0}
        with pytest.raises(ValueError):
            Circuit.from_json(bad)

    def test_eval_expand_agreement_random(self):
        pytest.importorskip("sympy")
        rng = random.Random(11)
        for _ in range(200):
            c = random_circuit(rng, F13, rng.randrange(1, 5), 8, 6)
            f = sympy_poly(c)
            for _ in range(3):
                pt = tuple(rng.randrange(13) for _ in range(c.v))
                assert c.evaluate(pt) == poly_value(f, pt)


def affine_params(rows):
    """det_projection parameters of a matrix of (coeffs, const) entries over
    an affine space: entry-major, each entry's coefficients then its constant."""
    return [x for row in rows for coeffs, const in row for x in (*coeffs, const)]


class TestDeterminant:
    def test_generic_2x2(self):
        # entry k of the homogeneous map reads x_k
        params = [int(i == j) for i in range(4) for j in range(4)]
        det = det_projection(F7, PolySpace(4, 2, True), 2, params)
        assert det == SparsePoly(F7, 4, {
            (1, 0, 0, 1): 1,
            (0, 1, 1, 0): 6,
        })
        with pytest.raises(ArityMismatch):
            det_projection(F7, PolySpace(4, 2, True), 2, params[:-1])

    def test_diagonal_and_wheel(self):
        x, y = ((1, 0), 0), ((0, 1), 0)
        zero, one = ((0, 0), 0), ((0, 0), 1)
        affine = PolySpace(2, 2, False)
        diag = affine_params([[x, zero], [zero, y]])
        assert det_projection(F7, affine, 2, diag) == SparsePoly(F7, 2, {(1, 1): 1})
        wheel = affine_params([[x, one], [one, x]])
        assert det_projection(F7, affine, 2, wheel) == SparsePoly(
            F7, 2, {(2, 0): 1, (0, 0): 6})

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_against_cofactor_oracle(self, n):
        # small characteristic is where signs and cancellation go wrong
        rng = random.Random(100 + n)
        for F in (PrimeField(2), PrimeField(3), F13):
            for _ in range(8):
                rows = [
                    [(tuple(rng.randrange(F.p) for _ in range(3)), rng.randrange(F.p))
                     for _ in range(n)]
                    for _ in range(n)
                ]
                oracle = cofactor_det([[affine_poly(F, *e) for e in row] for row in rows])
                got = det_projection(F, PolySpace(3, n, False), n, affine_params(rows))
                assert got == oracle

    def test_block_diagonal_multiplicative(self):
        rng = random.Random(9)
        zero = (0,) * 8

        def rand_form():
            return tuple(rng.randrange(13) for _ in range(8))

        def det(rows):
            n = len(rows)
            params = [x for row in rows for form in row for x in form]
            return det_projection(F13, PolySpace(8, n, True), n, params)

        for _ in range(10):
            A = [[rand_form() for _ in range(2)] for _ in range(2)]
            B = [[rand_form() for _ in range(2)] for _ in range(2)]
            L = [A[0] + [zero] * 2, A[1] + [zero] * 2,
                 [zero] * 2 + B[0], [zero] * 2 + B[1]]
            assert det(L) == det(A) * det(B)
            # n = 5 is past the cofactor oracle
            C = [[rand_form() for _ in range(3)] for _ in range(3)]
            L = [row + [zero] * 3 for row in A] + [[zero] * 2 + row for row in C]
            assert det(L) == det(A) * det(C)

    def test_affine_entries_in_one_variable(self):
        x, one = ((1,), 0), ((0,), 1)
        wheel = affine_params([[x, one], [one, x]])
        assert det_projection(F7, PolySpace(1, 2, False), 2, wheel) == SparsePoly(
            F7, 1, {(2,): 1, (0,): 6}
        )


class TestBuilders:
    def test_sps_worked(self):
        x1 = SparsePoly.linear(F7, (1, 0))
        x2 = SparsePoly.linear(F7, (0, 1))
        minus = SparsePoly.linear(F7, (1, 6))
        plus = SparsePoly.linear(F7, (1, 1))
        c = sps_build(F7, 2, [[plus, minus]])
        assert c == SparsePoly(F7, 2, {(2, 0): 1, (0, 2): 6})
        c2 = sps_build(F7, 2, [[x1, x1], [x2, x2]])
        assert c2 == SparsePoly(F7, 2, {(2, 0): 1, (0, 2): 1})
        c3 = sps_build(F7, 2, [])
        assert c3.is_zero


class TestFamilies:
    def descriptors(self):
        sp = PolySpace(2, 2, True)
        return [
            FamilyDescriptor("squares", sp, F7),
            FamilyDescriptor("det-projection", sp, F7, n=2),
            FamilyDescriptor("sps", sp, F7, top_fanin=2, product_degrees=(2, 2)),
            FamilyDescriptor("sparse", sp, F7, sparsity=2),
            FamilyDescriptor("full-space", sp, F7),
        ]

    def test_sampling_deterministic(self):
        for desc in self.descriptors():
            assert sample_family_with_params(desc, 42) == sample_family_with_params(desc, 42)

    def test_every_sample_validates(self):
        for desc in self.descriptors():
            for seed in range(25):
                params, member = sample_family_with_params(desc, seed)
                assert desc.member_from_params(params) == member
                assert validate_member(desc, member)
                assert member.fits_space(desc.space)
        # the structural check rejects what no member of the family can be
        sp = PolySpace(2, 2, True)
        squares = FamilyDescriptor("squares", sp, F7)
        for outside in (SparsePoly(F7, 2, {(3, 0): 1}), SparsePoly(F7, 2, {(1, 0): 1}),
                        SparsePoly(F7, 3, {(2, 0, 0): 1})):
            assert not validate_member(squares, outside)
        two_terms = SparsePoly(F7, 2, {(2, 0): 1, (0, 2): 3})
        for s, valid in ((1, False), (2, True)):
            sparse = FamilyDescriptor("sparse", sp, F7, sparsity=s)
            assert validate_member(sparse, two_terms) is valid

    def test_squares_members_are_squares(self):
        desc = FamilyDescriptor("squares", PolySpace(2, 2, True), F7)
        for seed in range(20):
            (c0, c1), member = sample_family_with_params(desc, seed)
            form = SparsePoly(F7, 2, {(1, 0): c0, (0, 1): c1})
            assert member == form * form

    def test_det_projection_homogeneous_or_zero(self):
        desc = FamilyDescriptor("det-projection", PolySpace(2, 2, True), F7, n=2)
        for seed in range(100):
            f = sample_family_with_params(desc, seed)[1]
            assert f.fits_space(desc.space)

    def test_exhaustive_walk_covers_grid(self):
        # disc vanishes on every square, so the verdict covers all 25 members
        desc = FamilyDescriptor("squares", PolySpace(2, 2, True), F5)
        r = succinct_hitting_check(desc, discriminant(F5), exhaustive=True)
        assert r.exhausted and r.examined == r.zeros == 25

        class Recording:
            """Zero everywhere; records the coefficient vectors it sees."""

            space, field, degree_bound = PolySpace(2, 1, True), F5, 1

            def __init__(self):
                self.seen = []

            def eval_at(self, cv):
                self.seen.append(tuple(cv))
                return 0

        # full-space members are their parameter tuples, and G has total
        # degree 1: a degree-1 T sees the points of {0, 1}^2 with x0 + x1 <= 1
        # and the degree check at (4, 4), then the probe
        T = Recording()
        full = FamilyDescriptor("full-space", T.space, F5)
        r = succinct_hitting_check(full, T, exhaustive=True)
        assert r.exhausted and r.examined == 25
        assert r.points_evaluated == 4
        assert T.seen[: r.points_evaluated] == [(0, 0), (0, 1), (1, 0), (4, 4)]

    def test_exhaustive_walk_row_major_and_refused_unbuilt(self, monkeypatch):
        sp = PolySpace(2, 1, True)
        desc = FamilyDescriptor("full-space", sp, F5)
        # the first member in row-major order with a nonzero coordinate i
        for i, params, examined in ((0, (1, 0), 6), (1, (0, 1), 2)):
            r = succinct_hitting_check(desc, coordinate_meta(sp, F5, i), exhaustive=True)
            assert (r.witness_params, r.examined) == (params, examined)
        # a grid of (2^61-1)^2 members is refused before any member is built
        F = PrimeField(2**61 - 1)
        big = FamilyDescriptor("squares", PolySpace(2, 2, True), F)
        builds = count_member_builds(monkeypatch)
        with pytest.raises(EnumerationBudgetExceeded):
            succinct_hitting_check(big, discriminant(F), exhaustive=True, enum_budget=3)
        assert builds == []

    def test_member_from_params_matches_iteration(self):
        # every reported witness is the member its params name
        sp = PolySpace(2, 2, True)
        desc = FamilyDescriptor("sparse", sp, F5, sparsity=1)
        for i in range(sp.dimension):
            r = succinct_hitting_check(desc, coordinate_meta(sp, F5, i), exhaustive=True)
            assert r.outcome == "witness"
            assert desc.member_from_params(r.witness_params).to_json() == r.witness_poly

    def test_descriptor_validation(self):
        sp = PolySpace(2, 2, True)
        with pytest.raises(DescriptorInvalid):
            FamilyDescriptor("no-such-class", sp, F7)
        with pytest.raises(DescriptorInvalid):
            FamilyDescriptor("det-projection", sp, F7, n=0)
        with pytest.raises(DescriptorInvalid):
            FamilyDescriptor("sps", sp, F7, top_fanin=1, product_degrees=(3,))
        with pytest.raises(DescriptorInvalid):
            FamilyDescriptor("sparse", sp, F7, sparsity=0)

    def test_descriptor_json_round_trip(self):
        for desc in self.descriptors():
            assert FamilyDescriptor.from_json(desc.to_json()) == desc

    def test_zero_members_kept(self):
        desc = FamilyDescriptor("squares", PolySpace(2, 2, True), F5)
        zero = desc.member_from_params((0, 0))
        assert zero.is_zero
        assert validate_member(desc, zero)
        sparse = FamilyDescriptor("sparse", PolySpace(2, 2, True), F5, sparsity=2)
        zero = sparse.member_from_params((0, 1, 0, 0))
        assert zero.is_zero
        assert validate_member(sparse, zero)


class TestSeedDerivation:
    def test_xor_structure(self):
        assert derive_seed(5, 0) == 5
        assert derive_seed(5, 3) != derive_seed(5, 4)
        assert derive_seed(derive_seed(7, 9), 9) == 7

    def test_disjoint_streams(self):
        derived = {derive_seed(1234, t) for t in range(100)}
        assert len(derived) == 100


def family_sympy(desc, a, xs):
    """G(a) as a sympy expression in the symbolic parameters a, built from
    the documented parameter layout of each class, not from npl's builders."""
    import sympy

    sp = desc.space
    cid = desc.class_id

    def lin(coeffs):
        return sum(c * x for c, x in zip(coeffs, xs))

    def chunks(width):
        return [a[i : i + width] for i in range(0, len(a), width)]

    if cid == "squares":
        return lin(a) ** 2
    if cid == "full-space":
        return sum(c * sympy.prod([x**k for x, k in zip(xs, sp.unrank(r))])
                   for r, c in enumerate(a))
    if cid == "det-projection":
        # entry-major: per entry its v coefficients, then an affine constant
        width = sp.v if sp.homogeneous else sp.v + 1
        cells = [lin(ch) + (0 if sp.homogeneous else ch[-1]) for ch in chunks(width)]
        return sympy.Matrix(desc.n, desc.n, cells).det(method="laplace")
    assert cid == "sps"
    forms, out = [lin(ch) for ch in chunks(sp.v)], 0
    for deg in desc.product_degrees:
        out += sympy.prod(forms[:deg])
        forms = forms[deg:]
    return out


class TestParamDegree:
    CASES = [
        FamilyDescriptor("squares", PolySpace(3, 2, True), F5),
        FamilyDescriptor("det-projection", PolySpace(2, 2, True), F7, n=2),
        FamilyDescriptor("det-projection", PolySpace(2, 2, False), F5, n=2),
        FamilyDescriptor("sps", PolySpace(2, 3, False), F7, top_fanin=2,
                         product_degrees=(3, 1)),
        FamilyDescriptor("full-space", PolySpace(2, 2, False), F5),
    ]

    @pytest.mark.parametrize("desc", CASES, ids=lambda d: d.class_id)
    def test_sound_and_tight(self, desc):
        # every coefficient of G has degree <= param_degree in the
        # parameters, and some coefficient has exactly that degree
        sympy = pytest.importorskip("sympy")
        p = desc.field.p
        xs = sympy.symbols(f"x0:{desc.space.v}")
        a = sympy.symbols(f"a0:{len(desc.param_ranges())}")
        G = sympy.Poly(sympy.expand(family_sympy(desc, a, xs)), *xs)
        degrees = [sympy.Poly(c, *a, modulus=p).total_degree() for c in G.coeffs()]
        assert max(degrees) == desc.param_degree
        # the symbolic map is the library's: compare them at random parameters
        rng = random.Random(p)
        for _ in range(5):
            params = tuple(rng.randrange(r) for r in desc.param_ranges())
            want = sympy_terms(G.as_expr().subs(dict(zip(a, params))), xs, p)
            assert dict(desc.member_from_params(params).terms) == want

    @pytest.mark.parametrize("desc", CASES, ids=lambda d: d.class_id)
    def test_param_degrees_sound_and_tight(self, desc):
        # in each slot alone, every coefficient of G has degree <= c_i in
        # that parameter, and some coefficient has exactly c_i
        sympy = pytest.importorskip("sympy")
        xs = sympy.symbols(f"x0:{desc.space.v}")
        a = sympy.symbols(f"a0:{len(desc.param_ranges())}")
        G = sympy.Poly(sympy.expand(family_sympy(desc, a, xs)), *xs)
        coeffs = [sympy.Poly(c, *a, modulus=desc.field.p) for c in G.coeffs()]
        assert len(desc.param_degrees) == len(a)
        for ai, ci in zip(a, desc.param_degrees):
            assert max(c.degree(ai) for c in coeffs) == ci, ai

    def test_sparse_has_none(self):
        sparse = FamilyDescriptor("sparse", PolySpace(2, 2, True), F5, sparsity=2)
        assert sparse.param_degree is None
        # rank slots are not polynomial; each coefficient slot is linear
        assert sparse.param_degrees == (None, None, 1, 1)
        for ranks in itertools.product(range(3), repeat=2):
            for slot in (2, 3):
                line = [sparse.member_from_params(ranks + tuple(
                    t if i == slot else 1 for i in (2, 3))).coeff_vector(sparse.space)
                    for t in range(3)]
                assert line[1] != line[0]
                assert all((x - 2 * y + z) % 5 == 0 for x, y, z in zip(*line))


class TestVariableDegrees:
    def test_worked(self):
        b = CircuitBuilder(F7, 4)
        x, y = b.inp(0), b.inp(2)
        c = b.build(b.add(b.mul(b.mul(x, x), y), b.mul(b.const(3), x)))
        assert c.variable_degrees == {0: 2, 2: 1}
        assert c.formal_degree == 3
        # syntactic, like formal_degree: x - x keeps degree 1 in x
        b = CircuitBuilder(F7, 2)
        assert b.build(b.sub(b.inp(1), b.inp(1))).variable_degrees == {1: 1}
        b = CircuitBuilder(F7, 2)
        assert b.build(b.mul(b.const(2), b.const(3))).variable_degrees == {}

    def test_dead_gates_and_the_program(self):
        # gates the output does not depend on add nothing to the degrees and
        # are left out of the program, which computes the value of a walk of
        # every gate at points of arbitrary integers, canonical or not
        rng = random.Random(2024)
        for _ in range(100):
            v = rng.randrange(1, 6)
            c, live = dead_cone_circuit(rng, F7, v, 6, 4)
            assert c.variable_degrees == live.variable_degrees
            assert c.support == tuple(sorted(live.variable_degrees))
            assert c._program == live._program
            assert len(c._program) <= len(live.gates)
            for _ in range(5):
                point = [rng.randrange(-10**6, 10**6) for _ in range(v)]
                assert c.evaluate(point) == reference_value(c, point)

    def test_bounds_every_expansion(self):
        # the exhaustive identity test is a proof only if these bounds hold
        sympy = pytest.importorskip("sympy")
        rng = random.Random(1999)
        circuits = [random_circuit(rng, F, rng.randrange(1, 5), 10, 5)
                    for F in (F5, F7, F13) for _ in range(100)]
        circuits += [distributivity_circuit(rng, PrimeField(p), v, identity)
                     for v, p in ((3, 47), (4, 17)) for identity in (True, False)]
        for c in circuits:
            bound = [c.variable_degrees.get(i, 0) for i in range(c.v)]
            xs = sympy.symbols(f"x0:{c.v}")
            for e in sympy_terms(sympy_value(c, xs), xs, c.field.p):
                assert all(a <= d for a, d in zip(e, bound)), (c, e)
            poly = sympy.Poly(sympy_value(c, xs), *xs, modulus=c.field.p)
            assert all(poly.degree(x) <= d for x, d in zip(xs, bound)), c


STAGED_PRIMES = (13, 2**31 - 1, 2**61 - 1, 2**64 - 59)


def full_point(c, x, rng):
    """x at the support coordinates of c, arbitrary residues elsewhere."""
    point = [rng.randrange(c.field.p) for _ in range(c.v)]
    for i, xi in zip(c.support, x):
        point[i] = xi
    return point


class TestStagedEvaluator:
    """The walk's evaluator against ``evaluate`` on point sequences that are
    not row-major: a stage recomputed late or skipped would leave a stale
    gate, and a vanishing walk would then be an unsound proven-zero."""

    @given(seed=st.integers(0, 2**32), p=st.sampled_from(STAGED_PRIMES),
           v=st.integers(1, 5), moves=st.lists(
               st.sampled_from(("fresh", "repeat", "first", "last", "one")),
               min_size=1, max_size=12))
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_matches_evaluate(self, seed, p, v, moves):
        rng = random.Random(seed)
        field = PrimeField(p)
        # the output is any gate, so constant-only and input-only outputs
        # and zero-support outputs all occur
        c = random_circuit(rng, field, v, 14, 6)
        n = len(c.support)
        value = c.staged_evaluator()
        x = [rng.randrange(p) for _ in range(n)]
        for move in moves:
            if move == "fresh":
                x = [rng.randrange(p) for _ in range(n)]
            elif n and move != "repeat":
                j = 0 if move == "first" else n - 1 if move == "last" else rng.randrange(n)
                # small residues make equal neighbours and repeats likely too
                x[j] = rng.choice((0, 1, p - 1, rng.randrange(p)))
            assert value(tuple(x)) == c.evaluate(full_point(c, x, rng)), (c, x, move)

    @pytest.mark.parametrize("p", STAGED_PRIMES)
    def test_folded_constants_and_every_stage_order(self, p):
        F = PrimeField(p)
        b = CircuitBuilder(F, 4)
        k = b.mul(b.add(b.const(p - 1), b.const(3)), b.const(p - 2))  # -4, folded
        x1, x3 = b.inp(1), b.inp(3)
        u = b.add(b.mul(k, x1), b.inp(1))  # stage 0, a second gate on x1
        w = b.mul(b.add(u, x3), b.mul(x3, x3))  # stage 1
        c = b.build(b.add(w, k))
        assert c.support == (1, 3)
        value = c.staged_evaluator()
        rng = random.Random(p)
        # changes at the first coordinate only, at the last only, repeats,
        # and both, in an order no row-major walk takes
        for x in ((0, 0), (5, 0), (5, 0), (5, 7), (2, 7), (2, 7), (0, 0), (p - 1, 1),
                  (p - 1, p - 1), (1, p - 1), (1, 2)):
            assert value(x) == c.evaluate(full_point(c, x, rng)), x
        with pytest.raises(ArityMismatch):
            value((1,))

    @pytest.mark.parametrize("p", STAGED_PRIMES)
    def test_zero_support_and_input_outputs(self, p):
        F = PrimeField(p)
        b = CircuitBuilder(F, 3)
        x = b.inp(2)
        k = b.mul(b.const(p - 1), b.add(b.const(p - 1), b.const(p - 2)))
        folded = b.build(k)  # (-1) * (-3): no input, folded before any call
        assert folded.support == () and folded.staged_evaluator()(()) == 3
        assert folded.evaluate((1, 2, 3)) == 3
        ident = b.build(x)
        value = ident.staged_evaluator()
        assert [value((t,)) for t in (4, 4, 0, p - 1)] == [4, 4, 0, p - 1]
        b = CircuitBuilder(F, 0)
        const = b.build(b.const(7 % p))
        assert const.staged_evaluator()(()) == const.evaluate(()) == 7 % p


@pytest.mark.parametrize("p", (13, 2**61 - 1, 2**64 - 59))
class TestAgainstSympy:
    def test_det_projection(self, p):
        sympy = pytest.importorskip("sympy")
        F = PrimeField(p)
        rng = random.Random(p)
        xs = sympy.symbols("x0:3")
        for n in (3, 4):
            forms = [
                [(tuple(rng.randrange(p) for _ in xs), rng.randrange(p)) for _ in range(n)]
                for _ in range(n)
            ]
            got = det_projection(F, PolySpace(3, n, False), n, affine_params(forms))
            M = sympy.Matrix(n, n, lambda i, j: sum(
                c * x for c, x in zip(forms[i][j][0], xs)) + forms[i][j][1])
            assert dict(got.terms) == sympy_terms(M.det(method="laplace"), xs, p)
