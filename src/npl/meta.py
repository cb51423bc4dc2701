"""Meta-polynomials: polynomial functions of coefficient vectors.

The rank methods live here.  For a homogeneous f of degree d in v variables,
the order-k matrix with shift l has a row (beta, alpha), standing for
x^beta * d^alpha with |beta| = l and |alpha| = k, and a column per monomial m
of degree d-k+l; plain partials are the case l = 0, beta = 0.  d^alpha takes
x^(alpha+t) to (alpha+t)!/t! x^t (t! is the product of the t_i!), so with
g(m) = m! coeff(f, m) the entry is g(alpha+t) / t! where the tail t = m - beta
is >= 0, else 0.  The characteristic must exceed d; then t! is a unit.  Every
entry is a linear form in the N meta-variables, None (zero) or (meta-variable
rank, scalar), and every (r+1) x (r+1) minor has degree <= r+1 in them.

``partials_matrix(f, k, shift)`` keeps a matrix as its labels and g on packed
monomials (adding exponents is adding keys); a rank reads no entry.  Scaling
columns by units keeps the rank and the pivot rows, so the plain matrix has
the rank of H[alpha][t] = g(alpha+t).  H is symmetric in its two roles and is
eliminated with one row per derivative or, when the tails outnumber them,
one row per tail; each row is one join of slot bytes encoded per term of g.

A shifted matrix is ranked from a basis of the derivatives.  If the d^alpha f
for alpha in B are a basis of V = span{d^alpha f}, then span{x^beta d^alpha f}
over all (beta, alpha) equals span{x^beta d^alpha f : alpha in B}, and the
pivot rows of H index such a B.  This is linear algebra over any field, exact
for every input, and only |B| rows per shift are packed, in one join each.

Ranks and determinants over F_p come from one elimination kernel on Python
ints, without numpy: each row is one int with a slot of whole bytes per
column, at least 2*bitlen(p) + bitlen(n_rows) + 1 bits, so that elimination
never carries across slots, for any prime.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import perm, prod
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .algebra import (
    Exponents,
    PolySpace,
    PrimeField,
    SparsePoly,
    _capped_num_monomials,
    _int_fields,
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
    """A derivative matrix of a concrete f: ``row_labels`` are the (beta,
    alpha) pairs of its rows, beta-major over the shifts and ``derivs``, the
    ``tails`` are the monomials of the d^alpha f, and ``g`` maps each monomial
    m of f, packed at ``_width(d + shift)``, to m! coeff(f, m) mod p.  The
    numeric ``entries`` and their Cells, ``symbolic`` (None for spaces of
    dimension above SYMBOLIC_SPACE_CAP), are computed on first access;
    instantiating ``symbolic`` at a coefficient vector must give ``entries``.
    """

    field: PrimeField
    row_labels: Tuple[Label, ...]
    col_labels: Tuple[Exponents, ...]
    derivs: Tuple[Exponents, ...]
    tails: Tuple[Exponents, ...]
    g: Dict[int, int]
    space: PolySpace
    shift: int

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.row_labels), len(self.col_labels))

    @cached_property
    def entries(self) -> Tuple[Tuple[int, ...], ...]:
        rows, w = self._rows(range(len(self.derivs)))
        size = w // 8
        slots = range(0, len(self.col_labels) * size, size)
        return tuple(tuple(int.from_bytes(b[i:i + size], "little") for i in slots)
                     for b in (r.to_bytes(len(slots) * size, "little") for r in rows))

    @cached_property
    def symbolic(self) -> Optional[Tuple[Tuple[Cell, ...], ...]]:
        if self.space.dimension > SYMBOLIC_SPACE_CAP:
            return None
        return _symbolic_cells(self.space, self.row_labels, self.col_labels, self.field.p)

    def _keys(self, labels: Sequence[Exponents]) -> List[int]:
        w = _width(self.space.d + self.shift)
        return [_pack(e, w) for e in labels]

    def _rows(self, alphas: Sequence[int]) -> Tuple[List[int], int]:
        """The rows (beta, derivs[a]) for a in alphas, beta-major, packed for
        ``_reduce``, and their slot width: x^beta d^alpha f has g(alpha + t) / t!
        in the column of t + beta."""
        p, g, fact = self.field.p, self.g, _factorials(self.space.d, self.field.p)
        tails, derivs = self._keys(self.tails), self._keys(self.derivs)
        scale = [pow(prod(map(fact.__getitem__, t)), -1, p) for t in self.tails]
        betas = self._keys([b for b, _ in self.row_labels[::len(derivs)]])
        size = _slot_width(p, len(betas) * len(alphas)) // 8
        # the slot bytes of each d^alpha f by tail, then a zero slot at index -1
        slots = [[(g.get(derivs[a] + kt, 0) * s % p).to_bytes(size, "little")
                  for kt, s in zip(tails, scale)] + [bytes(size)] for a in alphas]
        col_at = {k: j for j, k in enumerate(self._keys(self.col_labels))}
        rows = []
        for kb in betas:
            at = [-1] * len(col_at)
            for i, kt in enumerate(tails):
                at[col_at[kt + kb]] = i
            rows += [int.from_bytes(b"".join([row[i] for i in at]), "little") for row in slots]
        return rows, 8 * size


def _factorials(n: int, p: int) -> List[int]:
    """i! mod p for i in [0, n]."""
    return list(accumulate(range(1, n + 1), lambda f, i: f * i % p, initial=1))


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
    # monomials are packed into ints at a field width that holds every
    # exponent of a column, so multiplying monomials is adding keys, which
    # never carries
    w = _width(space.d + shift)
    fact = _factorials(space.d, p)
    g = {_pack(e, w): c * prod(map(fact.__getitem__, e)) % p for e, c in f.terms.items()}
    tails = tuple(PolySpace(space.v, space.d - k, True).monomials()) if shift else cols
    rows = tuple((b, a) for b in shifts for a in derivs)
    return CoeffMatrix(f.field, rows, cols, derivs, tails, g, space, shift)


def _slot_width(p: int, n_rows: int) -> int:
    """Bits per slot of n_rows rows packed for ``_reduce``, in whole bytes."""
    return -(-(2 * p.bit_length() + n_rows.bit_length() + 1) // 8) * 8


def _reduce(packed: List[int], n_cols: int, w: int, p: int, square: bool) -> Tuple[List[int], int]:
    """(pivots, det) over F_p of packed rows by Gaussian elimination.

    Each row is one int with a w-bit slot per column, column 0 in the lowest
    slot, every slot in [0, p), and w is ``_slot_width(p, len(packed))``.
    pivots are the indices of the pivot rows, one per pivot column in column
    order, so they index a basis of the row space and the rank is their
    number.  det means something for square input only: with ``square`` the
    elimination stops at the first column without a pivot, where det is 0.
    """
    # The current column is in the lowest slot.  Only pivot rows are reduced.
    # Eliminating adds m * P to a row, m and the slots of the pivot row P below
    # p, so a slot gains less than p^2 per update and takes at most n_rows
    # updates: it stays below p + n_rows * p^2 < 2^w, and no carry crosses
    # into the next slot, for every prime.
    mask = (1 << w) - 1
    # a copy of the rows, and order[i] the index of the row packed[i]
    packed, order = list(packed), list(range(len(packed)))
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


def _eliminate(rows: Sequence[Sequence[int]], p: int, square: bool) -> Tuple[List[int], int]:
    """``_reduce`` on rows of entries, each reduced into [0, p) as it is packed."""
    w = _slot_width(p, len(rows))
    packed = []
    for row in rows:
        r = 0
        for x in reversed(row):
            r = r << w | x % p
        packed.append(r)
    return _reduce(packed, len(rows[0]) if rows else 0, w, p, square)


def _hankel_rows(g: Mapping[int, int], row_keys, col_keys, p: int) -> Tuple[List[int], int]:
    """The rows of H[r][c] = g(r + c) over packed keys, packed for ``_reduce``,
    and their slot width: a row joins slot bytes encoded once per value of g."""
    size = _slot_width(p, len(row_keys)) // 8
    slot = {k: c.to_bytes(size, "little") for k, c in g.items()}
    get, zero = slot.get, bytes(size)
    return [int.from_bytes(b"".join([get(kr + kc, zero) for kc in col_keys]), "little")
            for kr in row_keys], 8 * size


def matrix_rank(rows: Sequence[Sequence[int]], p: int) -> int:
    """Exact rank over F_p by Gaussian elimination."""
    return len(_eliminate(rows, p, False)[0])


def matrix_det(rows: Sequence[Sequence[int]], p: int) -> int:
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    return _eliminate(rows, p, True)[1]


def rank_mod_p(matrix: CoeffMatrix) -> Tuple[int, int]:
    """(rank, rows eliminated) of a derivative matrix over its field, from H
    and, if shifted, from a basis of the derivatives (see the module docstring)."""
    p = matrix.field.p
    derivs, tails = matrix._keys(matrix.derivs), matrix._keys(matrix.tails)
    if not matrix.shift and len(tails) > len(derivs):
        derivs, tails = tails, derivs  # H is symmetric: one row per tail
    packed, w = _hankel_rows(matrix.g, derivs, tails, p)
    pivots = _reduce(packed, len(tails), w, p, False)[0]
    if not matrix.shift:
        return len(pivots), len(derivs)
    # the pivot rows of H are the d^alpha f for alpha in a basis
    final, w = matrix._rows(sorted(pivots))
    return len(_reduce(final, len(matrix.col_labels), w, p, False)[0]), len(derivs) + len(final)


@dataclass(frozen=True)
class MinorSelection:
    kind: str  # "leading" | "explicit" | "random"
    size: int
    rows: Optional[Tuple[int, ...]] = None
    cols: Optional[Tuple[int, ...]] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        _int_fields(self, "size", optional=("seed",), tuples=("rows", "cols"))
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
        return cls(data["kind"], data["size"], rows, cols, seed)


@dataclass(frozen=True)
class RankMethodSpec:
    method: str  # "partials" | "shifted"
    k: int
    shift: int
    minor: MinorSelection

    def __post_init__(self) -> None:
        _int_fields(self, "k", "shift")
        if self.method not in ("partials", "shifted"):
            raise ValueError(f"unknown rank method {self.method!r}")
        if self.method == "partials" and self.shift != 0:
            raise ValueError("plain partials carries no shift")

    @classmethod
    def from_json(cls, data: Mapping) -> "RankMethodSpec":
        return cls(data["method"], data["k"], data.get("shift", 0),
                   MinorSelection.from_json(data["minor"]))


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
        rows, cols = sel.rows, sel.cols
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

