"""Meta-polynomials: polynomial functions of coefficient vectors.

The rank methods live here.  For a homogeneous f of degree d in v variables,
the order-k matrix with shift l has a row (beta, alpha), standing for
x^beta * d^alpha with |beta| = l and |alpha| = k, and a column per monomial m
of degree d-k+l; plain partials are the case l = 0, beta = 0.  The entry is
coeff(f, alpha+t) times prod_i (t_i+1)...(t_i+alpha_i) if the tail t = m - beta
is >= 0, else 0.  True derivatives carry those falling factors, so the field
characteristic must exceed d; then no factor vanishes.

Every entry is thus a scalar multiple of one coefficient of f, a linear form
in the N meta-variables: None (identically zero) or (meta-variable rank,
scalar).  Every (r+1) x (r+1) minor is a meta-polynomial of degree <= r+1.

``partials_matrix(f, k, shift)`` builds the matrix from one pass over
d^alpha f per alpha, with monomials keyed by packed ints so that adding
exponents is adding keys; the row (beta, alpha) moves the alpha row by beta.
Its falling factors come from a table of the (k+1)(d-k+1) pairs (a, t) it
reads.  The symbolic form is computed on first access; a rank never reads it.

A shifted matrix is ranked from a basis of the derivatives.  If the d^alpha f
for alpha in B are a basis of V = span{d^alpha f}, then span{x^beta d^alpha f}
over all (beta, alpha) equals span{x^beta d^alpha f : alpha in B}.  The rows
are beta-major, so the first block is x^beta0 * d^alpha f for every alpha;
multiplying by x^beta0 is injective, so the pivot rows of that block index
such a B.  This is linear algebra over any field, exact for every input, and
only |B| rows per shift are eliminated.

Ranks and determinants over F_p come from one elimination kernel on Python
ints, without numpy: each row is one int with a slot of
w = 2*bitlen(p) + bitlen(n_rows) + 1 bits per column, wide enough that the
multiply-adds of elimination never carry across slots, for any prime.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from math import perm, prod
from typing import List, Mapping, Optional, Sequence, Tuple

from .algebra import (
    Exponents,
    PolySpace,
    PrimeField,
    SparsePoly,
    _capped_num_monomials,
    _json_int,
    _num_monomials,
    _pack,
    _width,
)
from .circuits import Circuit, CircuitBuilder
from .errors import (
    ArityMismatch,
    CharacteristicTooSmall,
    DimensionCapExceeded,
    MinorOutOfRange,
    OrderOutOfRange,
    SpaceMismatch,
)

# largest row or column count of a derivative matrix
DIMENSION_CAP = 4096

# symbolic entries are materialized only for spaces this small
SYMBOLIC_SPACE_CAP = 512

# a row label (beta, alpha), and an entry as a linear form (see above)
Label = Tuple[Exponents, Exponents]
Cell = Optional[Tuple[int, int]]


def _derivative_cell(label: Label, m: Exponents, p: int) -> Optional[Tuple[Exponents, int]]:
    """Entry (label, m) of a derivative matrix is factor * coeff(f, source);
    returns (source, factor), or None where the entry is identically zero."""
    beta, alpha = label
    tail = tuple(mi - bi for mi, bi in zip(m, beta))
    if any(t < 0 for t in tail):
        return None
    # d^alpha takes x^(alpha+tail) to prod (t+a)(t+a-1)...(t+1) x^tail; each
    # t+a is at most d < p, so the factor is a unit
    factor = prod(perm(t + a, a) for a, t in zip(alpha, tail)) % p
    return tuple(a + t for a, t in zip(alpha, tail)), factor


def _symbolic_cells(
    space: PolySpace, rows: Sequence[Label], cols: Sequence[Exponents], p: int
) -> Tuple[Tuple[Cell, ...], ...]:
    """The cells of the derivative matrix on these rows and columns."""
    return tuple(
        tuple(
            None if (cell := _derivative_cell(label, m, p)) is None
            else (space.rank(cell[0]), cell[1])
            for m in cols
        )
        for label in rows
    )


@dataclass
class CoeffMatrix:
    """A matrix whose entries are linear in the coefficients of f.

    ``row_labels`` are the (beta, alpha) pairs of its rows and ``entries``
    is the numeric instantiation at a concrete f.  ``symbolic`` gives every
    entry as a Cell, from ``_symbolic_cells``; it is computed on first
    access, and is None for spaces of dimension above SYMBOLIC_SPACE_CAP.
    Instantiating it at a coefficient vector must reproduce ``entries``.
    """

    field: PrimeField
    row_labels: Tuple[Label, ...]
    col_labels: Tuple[Exponents, ...]
    entries: Tuple[Tuple[int, ...], ...]
    space: PolySpace
    shift: int

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.row_labels), len(self.col_labels))

    @cached_property
    def symbolic(self) -> Optional[Tuple[Tuple[Cell, ...], ...]]:
        if self.space.dimension > SYMBOLIC_SPACE_CAP:
            return None
        return _symbolic_cells(self.space, self.row_labels, self.col_labels, self.field.p)


def _space_for(f: SparsePoly, space: Optional[PolySpace]) -> PolySpace:
    if space is not None:
        if not f.fits_space(space):
            raise SpaceMismatch(f"polynomial does not fit {space}")
        if not space.homogeneous:
            raise SpaceMismatch("derivative matrices need a homogeneous space")
        return space
    if f.is_zero:
        raise SpaceMismatch("the zero polynomial has no degree to fix its space")
    if not f.is_homogeneous():
        raise SpaceMismatch("polynomial is not homogeneous")
    return PolySpace(f.v, f.degree, True)


def _shifted_labels(
    space: PolySpace, k: int, shift: int, p: int
) -> Tuple[Tuple[Exponents, ...], Tuple[Exponents, ...], Tuple[Exponents, ...]]:
    """(shifts, derivs, cols) of the order-k matrix with this shift over F_p:
    its rows are the pairs (beta, alpha), beta-major.  An order, shift or
    characteristic that admits no such matrix, and a shape past
    DIMENSION_CAP, is refused before any label is enumerated."""
    v, d = space.v, space.d
    if not 0 <= k <= d:
        raise OrderOutOfRange(f"derivative order {k} outside [0, {d}]")
    if shift < 0:
        raise OrderOutOfRange("negative shift")
    if p <= d:
        raise CharacteristicTooSmall(f"characteristic {p} must exceed degree {d}")
    # DIMENSION_CAP is below MAX_SPACE_DIM, so capped counts decide it exactly
    count = _capped_num_monomials
    if max(count(v, k) * count(v, shift), count(v, d - k + shift)) > DIMENSION_CAP:
        raise DimensionCapExceeded(
            f"order-{k} matrix with shift {shift} has over {DIMENSION_CAP} rows "
            "or columns"
        )
    return tuple(
        tuple(PolySpace(v, deg, True).monomials()) for deg in (shift, k, d - k + shift)
    )


def partials_matrix(
    f: SparsePoly,
    k: int,
    shift: int = 0,
    space: Optional[PolySpace] = None,
) -> CoeffMatrix:
    """Order-k shifted-partials matrix of a homogeneous polynomial; at shift 0
    it is the plain partials matrix."""
    space = _space_for(f, space)
    p = f.field.p
    shifts, derivs, cols = _shifted_labels(space, k, shift, p)
    v, d = space.v, space.d
    # monomials are keyed the way SparsePoly packs them, at a field width that
    # holds every exponent of a column, so adding keys never carries
    w = _width(d + shift)
    coef = f._packed(w)
    # fall[a][t] = (t+1)(t+2)...(t+a) mod p: d^a takes x^(t+a) to fall[a][t] x^t
    fall = [[1] * (d - k + 1)]
    for a in range(1, k + 1):
        fall.append([c * (t + a) % p for t, c in enumerate(fall[-1])])
    tails = tuple(PolySpace(v, d - k, True).monomials()) if shift else cols
    tail_keys = [_pack(t, w) for t in tails]

    # one row of d^alpha f per alpha, indexed by the tail t of its monomials
    entries = []
    for alpha in derivs:
        ka = _pack(alpha, w)
        support = [(i, fall[a]) for i, a in enumerate(alpha) if a]
        row = []
        for t, kt in zip(tails, tail_keys):
            c = coef.get(ka + kt, 0)
            for i, fa in support:
                c *= fa[t[i]]
            row.append(c % p)
        entries.append(tuple(row))
    if shift:
        # row (beta, alpha) is x^beta * d^alpha f: tail t lands in column t+beta
        col_at = {_pack(m, w): j for j, m in enumerate(cols)}
        alpha_rows, entries = entries, []
        for beta in shifts:
            kb = _pack(beta, w)
            at = [col_at[kt + kb] for kt in tail_keys]
            for arow in alpha_rows:
                row = [0] * len(cols)
                for j, c in zip(at, arow):
                    row[j] = c
                entries.append(tuple(row))
    rows = tuple((b, a) for b in shifts for a in derivs)
    return CoeffMatrix(f.field, rows, cols, tuple(entries), space, shift)


def _eliminate(
    rows: Sequence[Sequence[int]], p: int, square: bool
) -> Tuple[List[int], int]:
    """(pivots, det) of rows over F_p by Gaussian elimination.

    pivots are the indices into rows of the pivot rows, one per pivot column
    in column order, so they index a basis of the row space and the rank is
    their number.  det means something for square input only: with
    ``square`` the elimination stops at the first column without a pivot,
    where det is 0.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    # Each row is one int with a w-bit slot per column, the current column in
    # the lowest slot.  Entries are reduced into [0, p) when packed; after
    # that only pivot rows are reduced.  Eliminating adds m * P to a row, m
    # and the slots of the pivot row P below p, so a slot gains less than p^2
    # per update and takes at most n_rows updates: it stays below
    # p + n_rows * p^2 < 2^w, and no carry crosses into the next slot, for
    # every prime.
    w = 2 * p.bit_length() + n_rows.bit_length() + 1
    mask = (1 << w) - 1
    packed = []
    for row in rows:
        r = 0
        for x in reversed(row):
            r = r << w | x % p
        packed.append(r)
    # order[i] is the index into rows of packed[i]
    order = list(range(n_rows))
    pivots: List[int] = []
    det = 1
    for col in range(n_cols):
        for i, r in enumerate(packed):
            a = (r & mask) % p
            if a:
                break
        else:
            if square:
                return pivots, 0
            packed = [r >> w for r in packed]
            continue
        # moving the pivot above the i rows before it permutes with sign (-1)^i
        if i & 1:
            det = -det
        det = det * a % p
        pivots.append(order.pop(i))
        r = packed.pop(i)
        if not packed:
            break
        pivot = 0
        for j in range(n_cols - col - 1, -1, -1):
            pivot = pivot << w | (r >> j * w & mask) % p
        inv = pow(a, -1, p)
        # the lowest slot becomes c + (-c / a) * a, a multiple of p, and is dropped
        packed = [
            (r + (p - c) * inv % p * pivot if (c := (r & mask) % p) else r) >> w
            for r in packed
        ]
    return pivots, det % p


def matrix_rank(rows: Sequence[Sequence[int]], p: int) -> int:
    """Exact rank over F_p by Gaussian elimination."""
    return len(_eliminate(rows, p, False)[0])


def matrix_det(rows: Sequence[Sequence[int]], p: int) -> int:
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    return _eliminate(rows, p, True)[1]


def rank_mod_p(matrix: CoeffMatrix) -> int:
    """Rank of a derivative matrix over its field; a shifted one is ranked
    from a basis of the derivatives (see the module docstring)."""
    p = matrix.field.p
    rows = matrix.entries
    if not matrix.shift:
        return matrix_rank(rows, p)
    n_derivs = len(rows) // _num_monomials(matrix.space.v, matrix.shift)
    # the first block's pivot rows are x^beta0 * d^alpha f for alpha in a basis
    basis = sorted(_eliminate(rows[:n_derivs], p, False)[0])
    return matrix_rank(
        [rows[b + a] for b in range(0, len(rows), n_derivs) for a in basis], p
    )


@dataclass(frozen=True)
class MinorSelection:
    kind: str  # "leading" | "explicit" | "random"
    size: int
    rows: Optional[Tuple[int, ...]] = None
    cols: Optional[Tuple[int, ...]] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("leading", "explicit", "random"):
            raise ValueError(f"unknown minor kind {self.kind!r}")
        if self.size < 1:
            raise MinorOutOfRange("minor size must be positive")
        if self.kind == "explicit" and (self.rows is None or self.cols is None):
            raise ValueError("explicit minor needs row and column lists")
        if self.kind == "random" and self.seed is None:
            raise ValueError("random minor needs a seed")
        unread = {"leading": ("rows", "cols", "seed"), "explicit": ("seed",),
                  "random": ("rows", "cols")}[self.kind]
        given = [name for name in unread if getattr(self, name) is not None]
        if given:
            raise ValueError(f"{self.kind} minor takes no {', '.join(given)}")

    @classmethod
    def from_json(cls, data: Mapping) -> "MinorSelection":
        rows, cols, seed = data.get("rows"), data.get("cols"), data.get("seed")
        return cls(
            kind=data["kind"],
            size=_json_int(data["size"]),
            rows=tuple(map(_json_int, rows)) if rows is not None else None,
            cols=tuple(map(_json_int, cols)) if cols is not None else None,
            seed=_json_int(seed) if seed is not None else None,
        )


@dataclass(frozen=True)
class RankMethodSpec:
    method: str  # "partials" | "shifted"
    k: int
    shift: int
    minor: MinorSelection

    def __post_init__(self) -> None:
        if self.method not in ("partials", "shifted"):
            raise ValueError(f"unknown rank method {self.method!r}")
        if self.method == "partials" and self.shift != 0:
            raise ValueError("plain partials carries no shift")

    @classmethod
    def from_json(cls, data: Mapping) -> "RankMethodSpec":
        return cls(
            method=data["method"],
            k=_json_int(data["k"]),
            shift=_json_int(data.get("shift", 0)),
            minor=MinorSelection.from_json(data["minor"]),
        )


def _select_indices(
    sel: MinorSelection, n_rows: int, n_cols: int
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    size = sel.size
    if size > n_rows or size > n_cols:
        raise MinorOutOfRange(
            f"minor of size {size} in a ({n_rows}, {n_cols}) matrix"
        )
    if sel.kind == "leading":
        return tuple(range(size)), tuple(range(size))
    if sel.kind == "explicit":
        rows, cols = tuple(sel.rows), tuple(sel.cols)  # type: ignore[arg-type]
        if len(rows) != size or len(cols) != size:
            raise MinorOutOfRange("explicit index lists must match the minor size")
        if len(set(rows)) != size or len(set(cols)) != size:
            raise MinorOutOfRange("explicit indices must be distinct")
        if any(not 0 <= r < n_rows for r in rows) or any(
            not 0 <= c < n_cols for c in cols
        ):
            raise MinorOutOfRange("explicit index outside the matrix")
        return rows, cols
    rng = random.Random(sel.seed)
    rows = tuple(sorted(rng.sample(range(n_rows), size)))
    cols = tuple(sorted(rng.sample(range(n_cols), size)))
    return rows, cols


class MinorMeta:
    """Meta-polynomial evaluating one minor of a derivative matrix.

    The symbolic structure of the selected submatrix is precomputed, so a
    single evaluation touches only size^2 coefficients of the input vector
    and one small exact determinant.
    """

    def __init__(self, spec: RankMethodSpec, space: PolySpace, field: PrimeField):
        if not space.homogeneous:
            raise SpaceMismatch("rank methods operate on homogeneous spaces")
        shifts, derivs, cols = _shifted_labels(space, spec.k, spec.shift, field.p)
        rows = [(b, a) for b in shifts for a in derivs]
        sel_rows, sel_cols = _select_indices(spec.minor, len(rows), len(cols))
        self.spec = spec
        self.space = space
        self.field = field
        self._cells = _symbolic_cells(
            space, [rows[r] for r in sel_rows], [cols[c] for c in sel_cols], field.p
        )
        self.meta_id = (
            f"{spec.method}-minor:k={spec.k},shift={spec.shift},size={spec.minor.size},"
            f"rows={list(sel_rows)},cols={list(sel_cols)}"
        )

    @property
    def degree_bound(self) -> int:
        return self.spec.minor.size

    def eval_at(self, cv: Sequence[int]) -> int:
        N = self.space.dimension
        if len(cv) != N:
            raise ArityMismatch(f"expected {N} coefficients, got {len(cv)}")
        p = self.field.p
        rows = [
            [0 if cell is None else cell[1] * cv[cell[0]] % p for cell in row]
            for row in self._cells
        ]
        return matrix_det(rows, p)


class CircuitMeta:
    """Meta-polynomial given by a circuit over the N meta-variables."""

    def __init__(self, space: PolySpace, circuit: Circuit, meta_id: str = ""):
        if circuit.v != space.dimension:
            raise ArityMismatch(
                f"circuit over {circuit.v} inputs against dimension {space.dimension}"
            )
        self.space = space
        self.circuit = circuit
        self.field = circuit.field
        self.meta_id = meta_id or f"circuit:{circuit.size}g"

    @property
    def degree_bound(self) -> int:
        return self.circuit.formal_degree

    def eval_at(self, cv: Sequence[int]) -> int:
        # the circuit has the space's dimension as its v, so evaluate checks cv
        return self.circuit.evaluate(cv)


def discriminant(field: PrimeField) -> CircuitMeta:
    """b^2 - 4ac on the homogeneous quadratics in two variables.

    Coefficient order (a, b, c) follows the monomial index on that space:
    a at x^2, b at x*y, c at y^2.
    """
    space = PolySpace(2, 2, True)
    b = CircuitBuilder(field, 3)
    a_in, b_in, c_in = b.inp(0), b.inp(1), b.inp(2)
    b_sq = b.mul(b_in, b_in)
    ac = b.mul(a_in, c_in)
    neg4 = b.const(-4)
    out = b.add(b_sq, b.mul(neg4, ac))
    return CircuitMeta(space, b.build(out), meta_id="disc")


def coordinate_meta(space: PolySpace, field: PrimeField, i: int) -> CircuitMeta:
    if not 0 <= i < space.dimension:
        raise ArityMismatch(f"coordinate {i} outside [0, {space.dimension})")
    b = CircuitBuilder(field, space.dimension)
    out = b.inp(i)
    return CircuitMeta(space, b.build(out), meta_id=f"coord:{i}")

