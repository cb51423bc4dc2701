import itertools
import math
import random
from math import comb

import pytest

from npl.algebra import PolySpace, PrimeField, SparsePoly, is_prime
from npl.circuits import CircuitBuilder, FamilyDescriptor, sample_family_with_params
from npl.meta import (
    CircuitMeta,
    MinorMeta,
    MinorSelection,
    RankMethodSpec,
    coordinate_meta,
    discriminant,
    matrix_det,
    matrix_rank,
    partials_matrix,
    rank_mod_p,
)
from npl.meta import _derivative_cell, _eliminate
from npl.errors import (
    ArityMismatch,
    CharacteristicTooSmall,
    DimensionCapExceeded,
    MinorOutOfRange,
    OrderOutOfRange,
)

from helpers import (
    compose_linear,
    exponents_of_degree,
    int_cofactor_det,
    linear_meta,
    poly_derivative_order,
    random_dense_poly,
    random_linear_form,
    random_product_of_linear_forms,
    row_rank,
    symbolic_value_at,
)

F2 = PrimeField(2)
F5 = PrimeField(5)
F7 = PrimeField(7)
F101 = PrimeField(101)

SP22 = PolySpace(2, 2, True)


def quad(field, a, b, c):
    return SparsePoly(field, 2, {(2, 0): a, (1, 1): b, (0, 2): c})


class TestDiscriminant:
    def test_worked_values(self):
        disc = discriminant(F7)
        assert disc.eval_at([0, 1, 0]) == 1
        assert disc.eval_at([1, 2, 1]) == 0
        assert disc.eval_at([1, 0, 1]) == 3

    def test_matches_closed_form_everywhere(self):
        disc = discriminant(F7)
        for a, b, c in itertools.product(range(7), repeat=3):
            assert disc.eval_at([a, b, c]) == (b * b - 4 * a * c) % 7

    def test_degree_bound(self):
        assert discriminant(F7).degree_bound == 2


class TestPartialsMatrix:
    def test_worked_xy(self):
        f = SparsePoly(F7, 2, {(1, 1): 1})
        m = partials_matrix(f, 1)
        assert m.entries == ((0, 1), (1, 0))
        assert rank_mod_p(m) == 2

    def test_worked_x_squared(self):
        f = SparsePoly(F7, 2, {(2, 0): 1})
        m = partials_matrix(f, 1, space=SP22)
        assert m.entries == ((2, 0), (0, 0))
        assert rank_mod_p(m) == 1

    def test_symbolic_generic_quadratic(self):
        # the k=1 matrix of a x^2 + b xy + c y^2 is [[2a, b], [b, 2c]]
        for a, b, c in itertools.product(range(0, 7, 2), repeat=3):
            m = partials_matrix(quad(F7, a, b, c), 1, space=SP22)
            assert m.entries == (
                ((2 * a) % 7, b % 7),
                (b % 7, (2 * c) % 7),
            )

    def test_symbolic_forms_agree_with_numeric(self):
        f = quad(F7, 3, 5, 2)
        m = partials_matrix(f, 1, space=SP22)
        assert m.symbolic is not None
        assert symbolic_value_at(m, f.coeff_vector(SP22)) == m.entries
        assert m.entries == ((6, 5), (5, 4))

    def test_entries_against_derivative_oracle(self):
        rng = random.Random(3)
        for _ in range(15):
            v = rng.randrange(2, 4)
            d = rng.randrange(2, 5)
            f = random_dense_poly(rng, F101, v, d)
            k = rng.randrange(0, d + 1)
            m = partials_matrix(f, k)
            for r, (beta, alpha) in enumerate(m.row_labels):
                # a plain row is the one-block case x^0 * d^alpha
                assert beta == (0,) * v
                g = poly_derivative_order(f, alpha)
                for c, mono in enumerate(m.col_labels):
                    assert m.entries[r][c] == g.terms.get(mono, 0) % 101

    def test_preconditions(self):
        f = SparsePoly(F2, 1, {(2,): 1})
        with pytest.raises(CharacteristicTooSmall):
            partials_matrix(f, 1)
        g = quad(F7, 1, 0, 0)
        with pytest.raises(OrderOutOfRange):
            partials_matrix(g, 3, space=SP22)
        with pytest.raises(OrderOutOfRange):
            partials_matrix(g, -1, space=SP22)

    def test_size_cap(self, monkeypatch):
        monkeypatch.setattr("npl.meta.DIMENSION_CAP", 10)
        f = random_dense_poly(random.Random(0), F101, 4, 4)
        with pytest.raises(DimensionCapExceeded):
            partials_matrix(f, 2, 3)

    def test_linearity_and_scaling(self):
        rng = random.Random(17)
        for _ in range(10):
            d = rng.randrange(2, 5)
            f = random_dense_poly(rng, F101, 3, d)
            g = random_dense_poly(rng, F101, 3, d)
            s = rng.randrange(1, 101)
            for k in range(0, d + 1):
                mf = partials_matrix(f, k).entries
                mg = partials_matrix(g, k).entries
                mfg = partials_matrix(f + g, k).entries
                msf = partials_matrix(f.mul(SparsePoly.constant(F101, 3, s)), k).entries
                for r in range(len(mf)):
                    for c in range(len(mf[0])):
                        assert mfg[r][c] == (mf[r][c] + mg[r][c]) % 101
                        assert msf[r][c] == (s * mf[r][c]) % 101

    def test_rank_transposition_exhaustive_small(self):
        # p > d makes M_k and M_{d-k} ranks equal
        for a, b, c in itertools.product(range(7), repeat=3):
            f = quad(F7, a, b, c)
            r0 = matrix_rank(partials_matrix(f, 0, space=SP22).entries, 7)
            r2 = matrix_rank(partials_matrix(f, 2, space=SP22).entries, 7)
            r1a = matrix_rank(partials_matrix(f, 1, space=SP22).entries, 7)
            assert r0 == r2
            assert r1a == r1a  # symmetric slot, k = d-k

    def test_rank_transposition_random(self):
        rng = random.Random(23)
        for _ in range(10):
            f = random_dense_poly(rng, F101, 3, 4)
            for k in range(0, 5):
                rk = matrix_rank(partials_matrix(f, k).entries, 101)
                rdk = matrix_rank(partials_matrix(f, 4 - k).entries, 101)
                assert rk == rdk

    def test_product_of_linear_forms_bound(self):
        rng = random.Random(31)
        for _ in range(20):
            v = rng.randrange(2, 5)
            d = rng.randrange(1, 6)
            f = random_product_of_linear_forms(rng, F101, v, d)
            if f.is_zero:
                continue
            for k in range(0, d + 1):
                r = matrix_rank(partials_matrix(f, k).entries, 101)
                assert r <= comb(d, k)

    def test_power_extremal_rank_one(self):
        for v in (1, 2, 3):
            for d in (1, 2, 3, 4):
                f = SparsePoly(F101, v, {tuple([d] + [0] * (v - 1)): 1})
                for k in range(0, d + 1):
                    assert matrix_rank(partials_matrix(f, k).entries, 101) == 1

    def test_rank_agrees_with_oracle(self):
        rng = random.Random(41)
        for _ in range(15):
            f = random_dense_poly(rng, F101, 3, 3)
            k = rng.randrange(0, 4)
            m = partials_matrix(f, k)
            assert rank_mod_p(m) == row_rank(m.entries, 101)


LARGE_PRIMES = (2**31 - 1, 2**61 - 1, 2**64 - 59)


class TestRankFactsAtLargePrimes:
    """Facts about derivative ranks that need no oracle, checked at primes
    too large for the tests that enumerate the field."""

    SHAPES = ((2, 4), (3, 3), (4, 2), (4, 4))

    @staticmethod
    def _ranks(f, space, d):
        return [rank_mod_p(partials_matrix(f, k, shift, space=space))
                for k in range(d + 1) for shift in (0, 1, 2)]

    @pytest.mark.parametrize("p", LARGE_PRIMES)
    def test_invertible_change_of_variables_keeps_ranks(self, p):
        # x -> A x maps the span of x^beta * d^alpha f onto that of f o A; a
        # two-term f has low ranks, which a dense-looking f o A must keep
        field, rng = PrimeField(p), random.Random(f"compose/{p}")
        for v, d in self.SHAPES:
            space = PolySpace(v, d, True)
            while True:
                A = [[rng.randrange(p) for _ in range(v)] for _ in range(v)]
                if matrix_rank(A, p) == v:
                    break
            monos = exponents_of_degree(v, d)
            sparse = SparsePoly(field, v, {m: rng.randrange(1, p)
                                           for m in rng.sample(monos, 2)})
            for f in (sparse, random_dense_poly(rng, field, v, d)):
                g = compose_linear(f, A)
                assert g.fits_space(space)
                assert self._ranks(g, space, d) == self._ranks(f, space, d), (v, d)

    @pytest.mark.parametrize("p", LARGE_PRIMES)
    def test_rank_bounds_of_powers_and_products(self, p):
        # d^alpha of l^d is a multiple of l^(d-k), and d^alpha of a product
        # of d forms is a sum over the k-subsets of the forms it removes
        field, rng = PrimeField(p), random.Random(f"bounds/{p}")
        for v, d in self.SHAPES:
            for r in (1, 2, 3):
                f = SparsePoly.zero(field, v)
                for _ in range(r):
                    f = f + random_linear_form(rng, field, v).pow(d)
                for k in range(d + 1):
                    assert rank_mod_p(partials_matrix(f, k)) <= r, (v, d, r, k)
            f = random_product_of_linear_forms(rng, field, v, d)
            for k in range(d + 1):
                assert rank_mod_p(partials_matrix(f, k)) <= comb(d, k), (v, d, k)

    @pytest.mark.parametrize("p", LARGE_PRIMES)
    def test_rank_bounds_of_family_members(self, p):
        # an order-k partial of a product of d forms lies in the span of the
        # C(d, k) products of d - k of them, so a sum of t products has rank
        # at most t C(d, k); one of det(L(x)), L affine, is a combination of
        # the C(n, k)^2 minors of order n - k; a square l^2 has the partials
        # a_i l, all multiples of one form
        field = PrimeField(p)
        cut = set()  # the bounds below the matrix's smaller side, which bite

        def check(desc, seed, k, bound):
            f = sample_family_with_params(desc, seed)[1]
            matrix = partials_matrix(f, k)
            assert rank_mod_p(matrix) <= bound, (desc.class_id, seed, desc.space, k)
            if bound < min(matrix.shape):
                cut.add(desc.class_id)

        for seed in range(2):
            for v, d in ((4, 3), (5, 3), (4, 4), (6, 4)):
                for t in (1, 2, 3):
                    desc = FamilyDescriptor("sps", PolySpace(v, d, True), field, top_fanin=t)
                    for k in range(d + 1):
                        check(desc, seed, k, t * comb(d, k))
            for v, n in ((2, 2), (5, 2), (3, 3), (10, 3)):
                desc = FamilyDescriptor("det-projection", PolySpace(v, n, True), field, n=n)
                for k in range(n + 1):
                    check(desc, seed, k, comb(n, k) ** 2)
            for v in (2, 3, 4):
                desc = FamilyDescriptor("squares", PolySpace(v, 2, True), field)
                f = sample_family_with_params(desc, seed)[1]
                assert rank_mod_p(partials_matrix(f, 1)) == 1, (seed, v)
        assert cut == {"sps", "det-projection"}


class TestShiftedPartials:
    def test_zero_shift_equals_partials(self):
        # d/dx (xy) = y and d/dy (xy) = x, over the columns (x, y)
        xy = SparsePoly(F7, 2, {(1, 1): 1})
        assert partials_matrix(xy, 1, 0).entries == ((0, 1), (1, 0))

    def test_worked_xy(self):
        f = SparsePoly(F7, 2, {(1, 1): 1})
        m = partials_matrix(f, 1, 1)
        assert m.shape == (4, 3)
        assert matrix_rank(m.entries, 7) == 3

    def test_worked_cube(self):
        f = SparsePoly(F101, 2, {(3, 0): 1})
        m = partials_matrix(f, 1, 1)
        assert matrix_rank(m.entries, 101) == 2

    def test_entries_against_multiplication_oracle(self):
        rng = random.Random(5)
        for _ in range(10):
            f = random_dense_poly(rng, F101, 2, 3)
            m = partials_matrix(f, 1, 1)
            for r, (beta, alpha) in enumerate(m.row_labels):
                shift_mono = SparsePoly(F101, 2, {tuple(beta): 1})
                g = shift_mono * poly_derivative_order(f, alpha)
                for c, mono in enumerate(m.col_labels):
                    assert m.entries[r][c] == g.terms.get(mono, 0)


def _next_prime(n):
    n += 1
    while not is_prime(n):
        n += 1
    return n


def _kernel_polys(rng, field, v, d):
    """A dense and a sparse random f in Poly^d(v); the sparse one may be 0."""
    exps = exponents_of_degree(v, d)
    dense = SparsePoly(field, v, {e: rng.randrange(field.p) for e in exps})
    sparse = SparsePoly(
        field, v, {e: rng.randrange(field.p) for e in exps if rng.random() < 0.3}
    )
    return dense, sparse


def _all_matrices(f, space):
    for k in range(space.d + 1):
        for shift in (0, 1, 2):
            yield shift, partials_matrix(f, k, shift, space=space)


def _cell_rule_entries(f, m):
    p = f.field.p
    out = []
    for label in m.row_labels:
        row = []
        for mono in m.col_labels:
            cell = _derivative_cell(label, mono, p)
            row.append(0 if cell is None else cell[1] * f.terms.get(cell[0], 0) % p)
        out.append(tuple(row))
    return tuple(out)


# (v, d) pairs with v in 1..5 and d <= 6; with every k and shift 0..2 they
# make about 70000 cells per polynomial and prime
KERNEL_SPACES = ((1, 6), (2, 6), (3, 6), (4, 3), (4, 4), (5, 2), (5, 3))


class TestShiftedRankFromBasis:
    """rank_mod_p ranks a shifted matrix from the rows whose derivative is in a
    basis of the derivatives; that must be the rank of all its rows."""

    # (v, d) pairs small enough that every k and shift 1, 2 stays cheap
    SPACES = ((1, 5), (2, 5), (3, 4), (4, 3))

    @staticmethod
    def _polys(rng, field, v, d):
        dense, sparse = _kernel_polys(rng, field, v, d)
        ell = random_linear_form(rng, field, v)
        power = SparsePoly.constant(field, v, 1)
        for _ in range(d):
            power = power * ell
        product = random_product_of_linear_forms(rng, field, v, d)
        return {"dense": dense, "product": product, "sparse": sparse, "power": power}

    @pytest.mark.parametrize("p", (7, 101, 2**31 - 1, 2**64 - 59))
    def test_rank_equals_full_elimination(self, p):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        K = sympy.GF(p)
        field = PrimeField(p)
        rng = random.Random(p)
        for v, d in self.SPACES:
            space = PolySpace(v, d, True)
            for kind, f in self._polys(rng, field, v, d).items():
                for k in range(d + 1):
                    for shift in (1, 2):
                        m = partials_matrix(f, k, shift, space=space)
                        got = rank_mod_p(m)
                        assert got == matrix_rank(m.entries, p), (kind, v, d, k, shift)
                        n, c = m.shape
                        if n * c <= 400:
                            dm = DomainMatrix(
                                [[K(x) for x in row] for row in m.entries], (n, c), K
                            )
                            assert got == dm.rank(), (kind, v, d, k, shift)

    def test_zero_polynomial_has_rank_zero(self):
        space = PolySpace(3, 4, True)
        zero = SparsePoly.zero(F101, 3)
        for k in range(5):
            for shift in (1, 2):
                m = partials_matrix(zero, k, shift, space=space)
                # no derivative is nonzero, so the basis is empty
                assert _eliminate(m.entries, 101, False)[0] == []
                assert rank_mod_p(m) == 0


class TestBuildKernel:
    """The packed-key build of derivative matrices against the single-cell
    rule and, independently, against sympy's derivatives."""

    @pytest.mark.parametrize("prime", ("next", 101, 2**61 - 1))
    def test_cells_match_derivative_cell_rule(self, prime):
        rng = random.Random(str(prime))
        for v, d in KERNEL_SPACES:
            field = PrimeField(_next_prime(d) if prime == "next" else prime)
            space = PolySpace(v, d, True)
            for f in _kernel_polys(rng, field, v, d):
                for _, m in _all_matrices(f, space):
                    assert m.entries == _cell_rule_entries(f, m)

    @pytest.mark.parametrize("prime", ("next", 101, 2**61 - 1))
    def test_rows_match_sympy_derivatives(self, prime):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(f"sympy/{prime}")
        for v, d in ((1, 4), (2, 4), (3, 3)):
            p = _next_prime(d) if prime == "next" else prime
            xs = sympy.symbols(f"x0:{v}")
            space = PolySpace(v, d, True)
            for f in _kernel_polys(rng, PrimeField(p), v, d):
                P = sympy.Poly(
                    sum(c * sympy.prod(x**e for x, e in zip(xs, mono))
                        for mono, c in f.terms.items()),
                    *xs,
                )
                for _, m in _all_matrices(f, space):
                    for r, (beta, alpha) in enumerate(m.row_labels):
                        specs = [(x, a) for x, a in zip(xs, alpha) if a]
                        g = P.diff(*specs) if specs else P
                        g = g * sympy.Poly(
                            sympy.prod(x**b for x, b in zip(xs, beta)), *xs
                        )
                        want = {e: c % p for e, c in g.terms() if c % p}
                        for c, mono in enumerate(m.col_labels):
                            assert m.entries[r][c] == want.get(mono, 0)

    def test_maximal_exponent_in_a_key(self):
        # x1^d with shift 2: the column x1^(d+2) puts the largest exponent
        # any key holds in one digit
        for v in (1, 2, 3):
            for d in (1, 3, 6):
                f = SparsePoly(F101, v, {(d,) + (0,) * (v - 1): 1})
                for k in range(d + 1):
                    m = partials_matrix(f, k, 2)
                    assert m.entries == _cell_rule_entries(f, m)
                    zeros = (0,) * (v - 1)
                    r = m.row_labels.index(((2,) + zeros, (k,) + zeros))
                    c = m.col_labels.index((d - k + 2,) + zeros)
                    assert m.entries[r][c] == comb(d, k) * math.factorial(k) % 101

    def test_high_powers_against_perm(self):
        # x0^d: the entry at (d^alpha, m) is d!/(d-k)! mod p where
        # alpha + m = d*e0, else 0; the falling factors run up to t + a = d
        p = 2**61 - 1
        for v in (1, 2):
            for d in (300, 1500):
                f = SparsePoly(PrimeField(p), v, {(d,) + (0,) * (v - 1): 1})
                # at v = 2 the middle order would build a (d/2+1)-square matrix
                for k in (1, d // 2, d - 1) if v == 1 else (1, d - 1):
                    m = partials_matrix(f, k)
                    want = tuple(
                        tuple(math.perm(d, k) % p if alpha[0] + mono[0] == d else 0
                              for mono in m.col_labels)
                        for _, alpha in m.row_labels
                    )
                    assert m.entries == want, (v, d, k)

    def test_zero_polynomial_with_explicit_space(self):
        space = PolySpace(3, 4, True)
        zero = SparsePoly.zero(F101, 3)
        other = random_dense_poly(random.Random(2), F101, 3, 4)
        for shift in (0, 1, 2):
            for k in range(5):
                m = partials_matrix(zero, k, shift, space=space)
                ref = partials_matrix(other, k, shift, space=space)
                assert (m.row_labels, m.col_labels) == (ref.row_labels, ref.col_labels)
                assert all(x == 0 for row in m.entries for x in row)
                assert m.shape == (len(m.entries), len(m.entries[0]))

    def test_size_cap_before_any_row(self, monkeypatch):
        def no_labels(self):
            raise AssertionError("labels enumerated before the dimension check")

        monkeypatch.setattr(PolySpace, "monomials", no_labels)
        f = random_dense_poly(random.Random(0), F101, 4, 4)
        monkeypatch.setattr("npl.meta.DIMENSION_CAP", 10)
        with pytest.raises(DimensionCapExceeded):
            partials_matrix(f, 2, 3)
        monkeypatch.setattr("npl.meta.DIMENSION_CAP", 9)
        with pytest.raises(DimensionCapExceeded):
            partials_matrix(f, 2)


class TestLazySymbolic:
    def test_built_on_first_access_and_matches_cells(self):
        rng = random.Random(11)
        for v, d, shift in ((2, 2, 0), (3, 4, 1), (4, 3, 2), (6, 5, 0), (5, 6, 0)):
            space = PolySpace(v, d, True)
            assert space.dimension <= 512
            f = random_dense_poly(rng, F101, v, d)
            for k in range(d + 1):
                m = partials_matrix(f, k, shift, space=space)
                assert "symbolic" not in m.__dict__
                want = tuple(
                    tuple(
                        None
                        if (cell := _derivative_cell(label, mono, 101)) is None
                        else (space.rank(cell[0]), cell[1])
                        for mono in m.col_labels
                    )
                    for label in m.row_labels
                )
                assert m.symbolic == want
                assert "symbolic" in m.__dict__
                assert symbolic_value_at(m, f.coeff_vector(space)) == m.entries

    def test_none_above_cap(self):
        f = SparsePoly(F101, 7, {(6,) + (0,) * 6: 1})
        m = partials_matrix(f, 3)
        assert PolySpace(7, 6, True).dimension > 512
        assert "symbolic" not in m.__dict__
        assert m.symbolic is None
        with pytest.raises(ValueError):
            symbolic_value_at(m, [0] * 924)


class TestMatrixKernels:
    def test_rank_worked(self):
        assert matrix_rank(((1, 2), (2, 4)), 5) == 1
        assert matrix_rank(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 5) == 3
        assert matrix_rank(((2, 0), (0, 2)), 2) == 0
        assert matrix_rank((), 5) == 0

    def test_det_against_cofactor(self):
        rng = random.Random(77)
        for n in (1, 2, 3, 4):
            for _ in range(10):
                rows = [[rng.randrange(101) for _ in range(n)] for _ in range(n)]
                assert matrix_det(rows, 101) == int_cofactor_det(rows, 101)

    def test_det_permutation_sign(self):
        assert matrix_det(((0, 1), (1, 0)), 7) == 6
        assert matrix_det(((1, 0), (0, 1)), 7) == 1

    def test_rank_against_oracle_random(self):
        rng = random.Random(78)
        for _ in range(30):
            rows = [
                [rng.randrange(7) for _ in range(rng.randrange(1, 5))]
            ]
            cols = len(rows[0])
            for _ in range(rng.randrange(1, 5)):
                rows.append([rng.randrange(7) for _ in range(cols)])
            assert matrix_rank(rows, 7) == row_rank(rows, 7)

    @pytest.mark.parametrize("p", (13, 2**61 - 1, 2**64 - 59))
    def test_rank_against_sympy(self, p):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        K = sympy.GF(p)
        rng = random.Random(p)
        for _ in range(10):
            # B*C with B of shape (n, r) and C of shape (r, m) has rank <= r
            n, m = rng.randrange(2, 7), rng.randrange(2, 7)
            r = rng.randrange(1, min(n, m))
            B = [[rng.randrange(p) for _ in range(r)] for _ in range(n)]
            C = [[rng.randrange(p) for _ in range(m)] for _ in range(r)]
            A = [
                [sum(B[i][k] * C[k][j] for k in range(r)) % p for j in range(m)]
                for i in range(n)
            ]
            want = DomainMatrix([[K(x) for x in row] for row in A], (n, m), K).rank()
            assert matrix_rank(A, p) == want <= r


class TestEliminationKernel:
    """The packed-row kernel behind matrix_rank and matrix_det: slots must
    not carry into each other for any prime, and det signs must follow the
    row order."""

    @pytest.mark.parametrize("p", (2, 13, 2**61 - 1, 2**64 - 59))
    def test_carry_stress_all_entries_p_minus_one(self, p):
        # every multiplier and pivot-row entry is p - 1, the largest a slot
        # can gain per update
        for n_rows, n_cols in ((300, 4), (4, 300)):
            ones = [[p - 1] * n_cols for _ in range(n_rows)]
            assert matrix_rank(ones, p) == row_rank(ones, p) == 1
            # p - 2 on the diagonal: the leading block is -(J + I), of
            # determinant (-1)^k (k + 1), a unit mod every p used here
            full = [
                [p - 2 if i == j else p - 1 for j in range(n_cols)]
                for i in range(n_rows)
            ]
            assert matrix_rank(full, p) == row_rank(full, p) == 4
        n = 40
        square = [[p - 2 if i == j else p - 1 for j in range(n)] for i in range(n)]
        assert matrix_rank(square, p) == row_rank(square, p)

    @pytest.mark.parametrize("p", (2**31 - 1, 2**61 - 1, 2**64 - 59))
    def test_slots_at_their_widest(self, p):
        # M = L U mod p, L the all-ones unit lower-triangular matrix and U
        # unit upper-triangular with p - 1 above the diagonal: det M = 1, and
        # each elimination step adds (p - 1)^2 to the slots of every row below
        # it, so the last row's slots take n - 1 such updates.  A slot two
        # bits narrower carries into its neighbour here.
        n = 127
        M = [[(1 - j if j <= i else -(i + 1)) % p for j in range(n)] for i in range(n)]
        assert matrix_det(M, p) == 1
        assert matrix_rank(M, p) == n

    @pytest.mark.parametrize("p", (13, 2**61 - 1, 2**64 - 59))
    def test_det_against_sympy(self, p):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        K = sympy.GF(p)
        rng = random.Random(p + 1)

        def want(rows):
            n = len(rows)
            return int(DomainMatrix([[K(x) for x in r] for r in rows], (n, n), K).det()) % p

        for n in range(1, 8):
            for _ in range(4):
                rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
                assert matrix_det(rows, p) == want(rows), (n, rows)
            # rows of an upper-triangular matrix in shuffled order: each
            # column has one candidate pivot, found at whatever position the
            # shuffle put it, odd ones included
            for _ in range(4):
                upper = [
                    [rng.randrange(1, p) if j == i else rng.randrange(p) if j > i else 0
                     for j in range(n)]
                    for i in range(n)
                ]
                rng.shuffle(upper)
                assert matrix_det(upper, p) == want(upper), (n, upper)
            singular = [[rng.randrange(p) for _ in range(n)] for _ in range(n - 1)]
            singular.insert(rng.randrange(n), [0] * n)
            assert matrix_det(singular, p) == 0 == want(singular)

    @pytest.mark.parametrize("p", (13, 2**64 - 59))
    def test_pivot_rows_are_a_basis(self, p):
        rng = random.Random(p + 2)
        for _ in range(40):
            n, m = rng.randrange(1, 12), rng.randrange(1, 12)
            r = rng.randrange(0, min(n, m) + 1)
            # B*C with B of shape (n, r) and C of shape (r, m) has rank <= r;
            # zero and repeated rows are mixed in
            B = [[rng.randrange(p) for _ in range(r)] for _ in range(n)]
            C = [[rng.randrange(p) for _ in range(m)] for _ in range(r)]
            rows = [
                [sum(B[i][k] * C[k][j] for k in range(r)) % p for j in range(m)]
                for i in range(n)
            ]
            rows.insert(rng.randrange(n + 1), [0] * m)
            rows.append(list(rows[rng.randrange(len(rows))]))
            pivots = _eliminate(rows, p, False)[0]
            rank = row_rank(rows, p)
            assert len(pivots) == len(set(pivots)) == rank <= r
            assert all(0 <= i < len(rows) for i in pivots)
            assert row_rank([rows[i] for i in pivots], p) == rank

    def test_edge_cases(self):
        p = 7
        # entries are taken mod p, whatever their sign or size
        assert matrix_rank([[-1, -2], [2, 4]], p) == 1
        assert matrix_rank([[7, 14, -21]], p) == 0
        assert matrix_det([[-1, 0], [0, -1]], p) == 1
        for rows in ([[8, 1], [15, 2**80 + 1]], [[-6, 2**90], [3 - 7 * 10**30, 5]]):
            assert matrix_det(rows, p) == int_cofactor_det(rows, p)
        # zero-width rows and single rows
        assert matrix_rank([(), ()], p) == 0
        assert matrix_rank([[0, 0, 3]], p) == 1
        assert matrix_rank([[0, 0, 0]], p) == 0
        assert matrix_det([[3]], p) == 3
        assert matrix_det([[-3]], p) == 4
        assert matrix_det((), p) == 1
        with pytest.raises(ValueError):
            matrix_det([[1, 2]], p)


class TestMinorMeta:
    def full_minor(self, field=F7):
        spec = RankMethodSpec("partials", 1, 0, MinorSelection("leading", 2))
        return MinorMeta(spec, SP22, field)

    def test_worked_values(self):
        T = self.full_minor()
        assert T.eval_at([1, 2, 1]) == 0
        assert T.eval_at([0, 1, 0]) == 6
        lead1 = MinorMeta(
            RankMethodSpec("partials", 1, 0, MinorSelection("leading", 1)),
            SP22,
            F7,
        )
        assert lead1.eval_at([1, 0, 0]) == 2

    def test_equals_negated_discriminant_everywhere(self):
        T = self.full_minor()
        disc = discriminant(F7)
        for cv in itertools.product(range(7), repeat=3):
            assert T.eval_at(cv) == (-disc.eval_at(cv)) % 7

    def test_degree_bound_is_minor_size(self):
        assert self.full_minor().degree_bound == 2
        spec = RankMethodSpec("partials", 1, 0, MinorSelection("leading", 1))
        assert MinorMeta(spec, SP22, F7).degree_bound == 1

    def test_degree_bound_honest_univariate_restriction(self):
        # along a random line the minor must interpolate as degree <= size
        rng = random.Random(6)
        T = self.full_minor(F101)
        base = [rng.randrange(101) for _ in range(3)]
        direction = [rng.randrange(101) for _ in range(3)]
        pts = []
        for t in range(T.degree_bound + 1):
            cv = [(b + t * d) % 101 for b, d in zip(base, direction)]
            pts.append((t, T.eval_at(cv)))
        # Lagrange-extend to t = size+1 and compare
        t_next = T.degree_bound + 1
        cv = [(b + t_next * d) % 101 for b, d in zip(base, direction)]
        want = T.eval_at(cv)
        acc = 0
        for i, (ti, yi) in enumerate(pts):
            num, den = yi, 1
            for j, (tj, _) in enumerate(pts):
                if i == j:
                    continue
                num = (num * (t_next - tj)) % 101
                den = (den * (ti - tj)) % 101
            acc = (acc + num * pow(den, 99, 101)) % 101
        assert acc == want

    def test_explicit_and_random_selection(self):
        ex = MinorMeta(
            RankMethodSpec(
                "partials", 1, 0,
                MinorSelection("explicit", 1, rows=(1,), cols=(0,)),
            ),
            SP22,
            F7,
        )
        # row d/dy, col x^2 of [[2a, b], [b, 2c]] is b
        assert ex.eval_at([0, 3, 0]) == 3
        r1 = MinorMeta(
            RankMethodSpec("partials", 1, 0, MinorSelection("random", 2, seed=4)),
            SP22,
            F7,
        )
        r2 = MinorMeta(
            RankMethodSpec("partials", 1, 0, MinorSelection("random", 2, seed=4)),
            SP22,
            F7,
        )
        assert r1.meta_id == r2.meta_id
        for cv in ((1, 2, 3), (0, 1, 0), (5, 5, 5)):
            assert r1.eval_at(cv) == r2.eval_at(cv)

    def test_minor_out_of_range(self):
        with pytest.raises(MinorOutOfRange):
            MinorMeta(
                RankMethodSpec("partials", 1, 0, MinorSelection("leading", 3)),
                SP22,
                F7,
            )
        with pytest.raises(MinorOutOfRange):
            MinorMeta(
                RankMethodSpec(
                    "partials", 1, 0,
                    MinorSelection("explicit", 1, rows=(9,), cols=(0,)),
                ),
                SP22,
                F7,
            )

    def test_arity_check(self):
        with pytest.raises(ArityMismatch):
            self.full_minor().eval_at([1, 2])

    def test_shifted_minor(self):
        spec = RankMethodSpec("shifted", 1, 1, MinorSelection("leading", 3))
        T = MinorMeta(spec, SP22, F7)
        assert T.degree_bound == 3
        f = SparsePoly(F7, 2, {(1, 1): 1})
        cv = f.coeff_vector(SP22)
        m = partials_matrix(f, 1, 1)
        want = matrix_det([row[:3] for row in m.entries[:3]], 7)
        assert T.eval_at(cv) == want

    def test_spec_json_round_trip(self):
        for doc, spec in (
            ({"method": "partials", "k": 1, "shift": 0,
              "minor": {"kind": "leading", "size": 2}},
             RankMethodSpec("partials", 1, 0, MinorSelection("leading", 2))),
            ({"method": "shifted", "k": 2, "shift": 1,
              "minor": {"kind": "random", "size": 2, "seed": 9}},
             RankMethodSpec("shifted", 2, 1, MinorSelection("random", 2, seed=9))),
            ({"method": "partials", "k": 0, "shift": 0,
              "minor": {"kind": "explicit", "size": 1, "rows": [0], "cols": [0]}},
             RankMethodSpec(
                 "partials", 0, 0, MinorSelection("explicit", 1, rows=(0,), cols=(0,))
             )),
        ):
            assert RankMethodSpec.from_json(doc) == spec


class TestCircuitMeta:
    def test_custom_meta_on_coordinates(self):
        sp = PolySpace(2, 4, True)
        T = coordinate_meta(sp, F5, 3)
        cv = [0] * sp.dimension
        cv[3] = 2
        assert T.eval_at(cv) == 2
        assert T.degree_bound == 1

    def test_linear_meta(self):
        sp = PolySpace(2, 2, True)
        T = linear_meta(sp, F7, [1, 1, 1])
        assert T.eval_at([1, 2, 3]) == 6
        assert T.degree_bound == 1

    def test_circuit_meta_arity_contract(self):
        b = CircuitBuilder(F7, 2)
        c = b.build(b.mul(b.inp(0), b.inp(1)))
        with pytest.raises(ArityMismatch):
            CircuitMeta(SP22, c)
        # a coefficient vector of the wrong length is refused by the circuit
        T = discriminant(F7)
        for cv in ([1, 2], [1, 2, 3, 4]):
            with pytest.raises(ArityMismatch, match=f"circuit over 3 inputs, point of "
                                                    f"length {len(cv)}"):
                T.eval_at(cv)
