import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npl.algebra import PolySpace, PrimeField, SparsePoly, is_prime
from npl.errors import (
    ArityMismatch,
    FieldMismatch,
    SpaceMismatch,
    TermCapExceeded,
)

from helpers import affine_poly, exponents_of_degree, poly_value, unit_form

F2 = PrimeField(2)
F3 = PrimeField(3)
F7 = PrimeField(7)
F13 = PrimeField(13)

PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051,
       3825123056546413051, 3825123056546413051, 318665857834031151167461,
       3317044064679887385961981)


class TestPrimeField:
    def test_composite_modulus_rejected(self):
        for bad in (0, 1, 4, 6, 9, 15, 341):
            with pytest.raises(ValueError):
                PrimeField(bad)

    def test_is_prime_spot(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
        ]
        assert is_prime(2**31 - 1)
        assert not is_prime(2**32 - 1)

    def test_strong_pseudoprimes_rejected(self):
        import sympy

        # A014233: psi_k is the least strong pseudoprime to the first k prime bases
        for n in PSI:
            assert not sympy.isprime(n)
            with pytest.raises(ValueError):
                PrimeField(n)
        assert not any(is_prime(n) for n in PSI[:-1])
        with pytest.raises(ValueError, match="bound of exact primality"):
            is_prime(PSI[-1])

    def test_agrees_with_sympy_below_psi_13(self):
        import sympy

        bound = PSI[-1]
        rng = random.Random(2017)
        samples = [sympy.prevprime(bound), bound - 1, 2**61 - 1, 2**64 - 59, 2**64 - 1,
                   561, 41041, 3215031751, 399165290221 * 798330580441]
        samples += [n + d for n in PSI[:-1] for d in (-2, -1, 1, 2)]
        samples += [rng.randrange(2, bound) for _ in range(300)]
        samples += [sympy.nextprime(rng.randrange(2, bound >> 1)) for _ in range(40)]
        samples += [sympy.nextprime(rng.randrange(2, 10**12)) *
                    sympy.nextprime(rng.randrange(2, 10**12)) for _ in range(40)]
        for n in samples:
            assert is_prime(n) == sympy.isprime(n), n


class TestMonomialIndex:
    """A PolySpace is its own monomial index: rank, unrank and monomials."""

    def test_worked_ranks(self):
        hom22 = PolySpace(2, 2, True)
        assert hom22.rank((2, 0)) == 0
        assert hom22.rank((1, 1)) == 1
        assert hom22.rank((0, 2)) == 2
        hom13 = PolySpace(3, 1, True)
        assert hom13.rank((0, 0, 1)) == 2

    def test_at_most_block_order(self):
        sp = PolySpace(2, 2, False)
        assert list(sp.monomials()) == [
            (2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0),
        ]

    def test_dimension_closed_forms(self):
        for v in range(1, 6):
            for d in range(0, 7):
                assert PolySpace(v, d, True).dimension == comb(v + d - 1, d)
                assert PolySpace(v, d, False).dimension == comb(v + d, d)
        assert PolySpace(2, 2, True).dimension == 3

    def test_round_trip_all_small_spaces(self):
        for v in range(1, 6):
            for d in range(0, 7):
                for homogeneous in (True, False):
                    sp = PolySpace(v, d, homogeneous)
                    seen = set()
                    for i in range(sp.dimension):
                        e = sp.unrank(i)
                        assert sp.rank(e) == i
                        seen.add(e)
                    assert len(seen) == sp.dimension
                    for e in seen:
                        assert sum(e) == d or (not homogeneous and sum(e) <= d)

    def test_rank_rejects_foreign_exponents(self):
        sp = PolySpace(2, 2, True)
        with pytest.raises(SpaceMismatch):
            sp.rank((1, 0))
        with pytest.raises(IndexError):
            sp.unrank(3)

    def test_monomials_enumeration_matches_oracle(self):
        for v in range(1, 5):
            for d in range(0, 5):
                sp = PolySpace(v, d, True)
                assert list(sp.monomials()) == exponents_of_degree(v, d)

    def test_monomials_follow_unrank(self):
        # the direct enumeration is the rank order, in both modes, down to a
        # single variable and degree 0
        for v in range(1, 6):
            for d in range(0, 7):
                for homogeneous in (True, False):
                    sp = PolySpace(v, d, homogeneous)
                    want = [sp.unrank(i) for i in range(sp.dimension)]
                    assert list(sp.monomials()) == want, (v, d, homogeneous)
        for v, d in ((7, 6), (9, 4)):
            sp = PolySpace(v, d, False)
            assert list(sp.monomials()) == [sp.unrank(i) for i in range(sp.dimension)]


class TestPolySpace:
    def test_validation(self):
        with pytest.raises(ValueError):
            PolySpace(0, 2, True)
        with pytest.raises(ValueError):
            PolySpace(2, -1, True)

    def test_json_round_trip(self):
        for sp in (PolySpace(2, 2, True), PolySpace(3, 4, False)):
            assert PolySpace.from_json(sp.to_json()) == sp

    def test_contains(self):
        sp = PolySpace(2, 2, True)
        assert sp.contains_exponents((1, 1))
        assert not sp.contains_exponents((1, 0))
        assert PolySpace(2, 2, False).contains_exponents((1, 0))


class TestCoeffVectors:
    def test_worked_vectors(self):
        sp = PolySpace(2, 2, True)
        f = SparsePoly(F7, 2, {(2, 0): 1, (1, 1): 4})
        assert f.coeff_vector(sp) == [1, 4, 0]
        xy = SparsePoly(F7, 2, {(1, 1): 1})
        assert xy.coeff_vector(sp) == [0, 1, 0]
        assert SparsePoly.zero(F7, 2).coeff_vector(sp) == [0, 0, 0]

    def test_round_trip_exhaustive_f3(self):
        sp = PolySpace(2, 2, True)
        for vec in itertools.product(range(3), repeat=3):
            f = SparsePoly.from_coeff_vector(F3, sp, vec)
            assert f.coeff_vector(sp) == list(vec)

    def test_space_mismatch(self):
        sp = PolySpace(2, 2, True)
        with pytest.raises(SpaceMismatch):
            SparsePoly(F7, 2, {(1, 0): 1}).coeff_vector(sp)


class TestEvaluation:
    """Evaluation is a ring map, so values at points check the packed
    arithmetic against the naive term-by-term evaluator of the helpers."""

    def test_worked_values(self):
        f = SparsePoly(F7, 2, {(2, 0): 1, (1, 1): 4})
        assert poly_value(f, (1, 1)) == 5
        xy = SparsePoly(F7, 2, {(1, 1): 1})
        assert poly_value(xy, (2, 3)) == 6

    def test_at_origin_gives_constant_term(self):
        rng = random.Random(0)
        for _ in range(20):
            terms = {
                tuple(rng.randrange(3) for _ in range(3)): rng.randrange(1, 7)
                for _ in range(rng.randrange(1, 6))
            }
            f = SparsePoly(F7, 3, terms)
            assert poly_value(f, (0, 0, 0)) == f.terms.get((0, 0, 0), 0)

    @given(
        st.integers(0, 6), st.integers(0, 6),
        st.integers(0, 6), st.integers(0, 6),
        st.integers(0, 6), st.integers(0, 6),
    )
    @settings(max_examples=60)
    def test_linearity_and_multiplicativity(self, a, b, c, d, x, y):
        f = SparsePoly(F7, 2, {(2, 0): a, (1, 1): b})
        g = SparsePoly(F7, 2, {(1, 1): c, (0, 2): d})
        pt = (x, y)
        assert poly_value(f + g, pt) == (poly_value(f, pt) + poly_value(g, pt)) % 7
        assert poly_value(f * g, pt) == poly_value(f, pt) * poly_value(g, pt) % 7


class TestArithmetic:
    def test_worked_products(self):
        x = unit_form(F7, 2, 0)
        y = unit_form(F7, 2, 1)
        assert (x + y) * (x - y) == x * x - y * y

    def test_characteristic(self):
        x2 = unit_form(F2, 1, 0)
        assert (x2 + x2).is_zero
        x7 = unit_form(F7, 1, 0)
        assert (x7 + x7) == x7.mul(SparsePoly.constant(F7, 1, 2))

    def test_degree_conventions(self):
        assert SparsePoly.zero(F7, 2).degree == -1
        assert SparsePoly.constant(F7, 2, 3).degree == 0
        assert SparsePoly(F7, 2, {(2, 1): 1}).degree == 3

    def test_is_homogeneous(self):
        f = SparsePoly(F7, 2, {(2, 0): 1, (1, 1): 1})
        assert f.is_homogeneous() and f.degree == 2
        assert not (f + SparsePoly.constant(F7, 2, 1)).is_homogeneous()
        # the zero polynomial is homogeneous, with no degree
        zero = SparsePoly.zero(F7, 2)
        assert zero.is_homogeneous() and zero.degree == -1

    def test_term_cap(self):
        # each factor doubles the term count; 40 of them overflow any 2^20 cap
        F = PrimeField(2**31 - 1)
        f = SparsePoly.constant(F, 40, 1)
        with pytest.raises(TermCapExceeded):
            for i in range(40):
                xi = unit_form(F, 40, i)
                f = f * (xi + SparsePoly.constant(F, 40, 1))

    def test_pow(self):
        x = unit_form(F7, 1, 0)
        assert (x + SparsePoly.constant(F7, 1, 1)).pow(2) == SparsePoly(
            F7, 1, {(2,): 1, (1,): 2, (0,): 1}
        )
        assert x.pow(0) == SparsePoly.constant(F7, 1, 1)

    def test_cross_field_rejected(self):
        with pytest.raises(FieldMismatch):
            unit_form(F7, 1, 0) + unit_form(F13, 1, 0)
        with pytest.raises(ArityMismatch):
            unit_form(F7, 1, 0) + unit_form(F7, 2, 0)


class TestLinear:
    """``SparsePoly.linear`` builds through the trusted ``_make``, so it must
    pack exactly as the validating constructor does."""

    @pytest.mark.parametrize("p", [7, 2**64 - 59])
    def test_matches_validating_constructor(self, p):
        field = PrimeField(p)
        rng = random.Random(p)
        cases = [
            ((2, 3), 1),
            ((p + 2, -3, 2 * p), -1),  # unreduced and negative coefficients
            ((0, 0, 0), p),  # the zero form
            ((0, 0), 5 * p + 4),  # constant only
            ((-1,), 0), ((3,), 2), ((p,), 0),  # v = 1
            ((), 3),
        ]
        cases += [(tuple(rng.randrange(-p, 2 * p) * rng.randrange(2) for _ in range(v)),
                   rng.randrange(-p, 2 * p) * rng.randrange(2))
                  for v in range(1, 13) for _ in range(4)]
        for coeffs, const in cases:
            got = SparsePoly.linear(field, coeffs, const)
            want = affine_poly(field, coeffs, const)
            assert got == want and hash(got) == hash(want)
            assert (got.v, got._terms, got._d, got._w, got._span) == (
                want.v, want._terms, want._d, want._w, want._span)
            assert got.to_json() == want.to_json()
        assert SparsePoly.linear(F7, (2, 3), 1) == SparsePoly(
            F7, 2, {(1, 0): 2, (0, 1): 3, (0, 0): 1})
        assert SparsePoly.linear(F7, (1, 5)) == SparsePoly.linear(F7, (1, 5), 0)


class TestSerialization:
    def test_poly_json_round_trip(self):
        f = SparsePoly(F7, 2, {(2, 0): 3, (1, 1): 5, (0, 2): 2})
        assert SparsePoly.from_json(f.to_json()) == f
        assert SparsePoly.from_json(SparsePoly.zero(F7, 2).to_json()).is_zero

    def test_json_terms_sorted_for_determinism(self):
        f = SparsePoly(F7, 2, {(0, 2): 2, (2, 0): 3, (1, 1): 5})
        exps = [tuple(t["e"]) for t in f.to_json()["terms"]]
        assert exps == sorted(exps, reverse=True)

    def test_semantic_equality_and_hash(self):
        a = SparsePoly(F7, 2, {(1, 1): 8})
        b = SparsePoly(F7, 2, {(1, 1): 1})
        assert a == b and hash(a) == hash(b)
        assert SparsePoly(F7, 2, {(1, 1): 7}).is_zero


def _sympy_poly(f, gens):
    import sympy

    return sympy.Poly.from_dict(dict(f.terms) or {(0,) * f.v: 0}, *gens, modulus=f.field.p)


def _terms_of(g, p):
    """{exponents: coefficient in [0, p)} of a sympy Poly over GF(p), which
    reports symmetric residues."""
    return {e: c % p for e, c in g.terms() if c % p}


class TestPackedCoreAgainstSympy:
    """SparsePoly stores a monomial as one int with a bit field per variable;
    sympy's Poly over GF(p) is the independent oracle for its arithmetic."""

    @pytest.mark.parametrize("p", [2, 7, 2**31 - 1, 2**64 - 59])
    @pytest.mark.parametrize("v", [1, 3, 16, 40])
    def test_random_arithmetic(self, p, v):
        import sympy

        field = PrimeField(p)
        gens = sympy.symbols(f"x0:{v}")
        rng = random.Random(p * 1000 + v)

        def rand_poly(max_terms, max_exp):
            return SparsePoly(field, v, {
                tuple(rng.randrange(max_exp + 1) for _ in range(v)): rng.randrange(p)
                for _ in range(rng.randrange(max_terms + 1))
            })

        for _ in range(6):
            f, g = rand_poly(6, 3), rand_poly(6, 3)
            F, G = _sympy_poly(f, gens), _sympy_poly(g, gens)
            c = rng.randrange(-p, 2 * p)
            e = rng.randrange(4)
            for got, want in ((f + g, F + G), (f - g, F - G), (f.mul(g), F * G),
                              (f.mul(SparsePoly.constant(field, v, c)), F * c), (f.pow(e), F**e)):
                assert dict(got.terms) == _terms_of(want, p)
                assert got.degree == (want.total_degree() if not want.is_zero else -1)

    @pytest.mark.parametrize("p", [2, 7, 2**31 - 1, 2**64 - 59])
    def test_products_across_the_width_boundary(self, p):
        import sympy

        field = PrimeField(p)
        x0, x1, x2 = gens = sympy.symbols("x0:3")
        x = [unit_form(field, 3, i) for i in range(3)]
        # 255 is the largest exponent of the narrowest field, 256 needs a wider one
        for i in range(3):
            high = x[i].pow(255)
            assert dict((high * x[i]).terms) == {tuple(256 if j == i else 0 for j in range(3)): 1}
            assert dict((high * x[(i + 1) % 3]).terms) == {
                tuple(255 if j == i else int(j == (i + 1) % 3) for j in range(3)): 1}
        got = (x[0] + x[1]).pow(300)
        assert dict(got.terms) == _terms_of(sympy.Poly((x0 + x1) ** 300, *gens, modulus=p), p)
        got = (x[0] * x[1] + x[2].pow(200)) * (x[0].pow(100) + x[1] + x[2])
        want = sympy.Poly((x0 * x1 + x2**200) * (x0**100 + x1 + x2), *gens, modulus=p)
        assert dict(got.terms) == _terms_of(want, p)
        assert got.degree == 300 and not got.is_homogeneous()

    def test_equal_polynomials_from_different_widths(self):
        field = PrimeField(2**31 - 1)
        x = [unit_form(field, 3, i) for i in range(3)]
        narrow = x[0].mul(x[1]) + x[2].pow(2).mul(SparsePoly.constant(field, 3, 5))
        # the same polynomial after a detour through degree 300 (a wider field)
        detour = (narrow + x[0].pow(300)) - x[0].pow(300)
        built = SparsePoly(field, 3, {(1, 1, 0): 1, (0, 0, 2): 5})
        loaded = SparsePoly.from_json(detour.to_json())
        space = PolySpace(3, 2, True)
        for f in (detour, built, loaded):
            assert f == narrow and narrow == f
            assert hash(f) == hash(narrow)
            assert dict(f.terms) == dict(narrow.terms) == {(1, 1, 0): 1, (0, 0, 2): 5}
            assert f.terms[(0, 0, 2)] == 5 and (2, 0, 0) not in f.terms
            assert f.terms.get((0, 0, 2), 0) == 5 and f.terms.get((300, 0, 0), 0) == 0
            assert f.to_json() == narrow.to_json()
            assert str(f) == str(narrow)
            assert f.coeff_vector(space) == narrow.coeff_vector(space)
            assert f.is_homogeneous() and f.degree == 2
            assert f.fits_space(space)
            assert f.mul(f) == narrow.mul(narrow)
        assert detour != narrow + x[0].pow(300)

    def test_term_cap_message_says_how_far_the_product_got(self, monkeypatch):
        import npl.algebra

        monkeypatch.setattr(npl.algebra, "DEFAULT_TERM_CAP", 10)
        x = [unit_form(F7, 10, i) for i in range(10)]
        a = x[0] + x[1] + x[2] + x[3] + x[4]
        assert len(a.mul(x[5] + x[6]).terms) == 10
        # 5 x 3 products may pass the cap: one row per term of a, 3 new
        # monomials each, so the support passes 10 after the fourth row
        with pytest.raises(TermCapExceeded) as err:
            a.mul(x[5] + x[6] + x[7])
        assert "product of 5 by 3 terms passed 10 monomials" in str(err.value)
        assert "support reached 12 after 4 of 5 rows" in str(err.value)
        # the cap counts nonzero monomials: over F_2 the 10 cross terms of
        # (x0 + ... + x4)^2 cancel, and only the 5 squares remain
        F2x = [unit_form(F2, 10, i) for i in range(5)]
        s = F2x[0] + F2x[1] + F2x[2] + F2x[3] + F2x[4]
        assert s.mul(s) == sum((y.mul(y) for y in F2x[1:]), F2x[0].mul(F2x[0]))
