"""Exact arithmetic over prime fields and sparse multivariate polynomials.

Representation notes:

* Field values are canonical integers in ``[0, p)``; polynomial and matrix
  internals stay on raw ints for speed, with the field carried alongside.
* A monomial is a tuple of non-negative exponents, one per variable.  A
  polynomial is a map from monomial to nonzero canonical coefficient; the
  zero polynomial is the empty map and has degree -1.
* ``MonomialIndex`` fixes the coordinate order used everywhere: monomials of
  one degree are ranked in descending lexicographic order on the exponent
  tuple, and at-most-degree spaces list the degree blocks d, d-1, ..., 0.
  So on the homogeneous quadratics in x, y the coordinates are
  (x^2, x*y, y^2) and a*x^2 + b*x*y + c*y^2 has coefficient vector (a, b, c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import ArityMismatch, FieldMismatch, SpaceMismatch, TermCapExceeded

Exponents = Tuple[int, ...]

# every product that grows past this many monomials raises TermCapExceeded
DEFAULT_TERM_CAP = 1 << 20

# Refuse to build index spaces whose dense dimension cannot be addressed.
MAX_SPACE_DIM = 1 << 26


def _json_int(value) -> int:
    """An integer field of a JSON input.  A float, bool or string there is
    malformed input, not a value to round or parse."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below 3.3e24."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field of integers modulo a prime p."""

    p: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def __repr__(self) -> str:
        return f"F_{self.p}"


def _num_monomials(v: int, d: int) -> int:
    """Count of degree-d monomials in v variables."""
    if v == 0:
        return 1 if d == 0 else 0
    return math.comb(v + d - 1, d)


@dataclass(frozen=True)
class PolySpace:
    """Polynomials in v variables of degree exactly d (homogeneous) or at most d."""

    v: int
    d: int
    homogeneous: bool = True

    def __post_init__(self) -> None:
        if self.v < 1:
            raise ValueError("space needs at least one variable")
        if self.d < 0:
            raise ValueError("degree bound must be non-negative")
        if self.dimension > MAX_SPACE_DIM:
            raise ValueError(
                f"space dimension {self.dimension} exceeds cap {MAX_SPACE_DIM}"
            )

    @property
    def dimension(self) -> int:
        if self.homogeneous:
            return math.comb(self.v + self.d - 1, self.d)
        return math.comb(self.v + self.d, self.d)

    def contains_exponents(self, e: Exponents) -> bool:
        if len(e) != self.v or any(x < 0 for x in e):
            return False
        deg = sum(e)
        return deg == self.d if self.homogeneous else deg <= self.d

    def mode(self) -> str:
        return "homogeneous" if self.homogeneous else "at-most"

    def to_json(self) -> dict:
        return {"v": self.v, "d": self.d, "mode": self.mode()}

    @classmethod
    def from_json(cls, data: Mapping) -> "PolySpace":
        mode = data.get("mode", "homogeneous")
        if mode not in ("homogeneous", "at-most"):
            raise ValueError(f"unknown space mode {mode!r}")
        return cls(_json_int(data["v"]), _json_int(data["d"]), mode == "homogeneous")

    def __repr__(self) -> str:
        cmp = "" if self.homogeneous else "<="
        return f"Poly^{cmp}{self.d}({self.v})"


def _hom_rank(e: Exponents, d: int) -> int:
    # Number of degree-d monomials strictly greater in descending lex order.
    v = len(e)
    r = 0
    rem = d
    for i in range(v - 1):
        gap = rem - e[i] - 1
        if gap >= 0:
            # hockey-stick sum over all larger exponents at position i
            r += _num_monomials(v - i, gap)
        rem -= e[i]
    return r


def _hom_unrank(r: int, v: int, d: int) -> Exponents:
    e: List[int] = []
    rem = d
    for i in range(v - 1):
        for t in range(rem, -1, -1):
            block = _num_monomials(v - i - 1, rem - t)
            if r < block:
                e.append(t)
                rem -= t
                break
            r -= block
    e.append(rem)
    return tuple(e)


@dataclass(frozen=True)
class MonomialIndex:
    """Rank/unrank bijection between a space's monomials and [0, N).

    Rank 0 is the first monomial in the declared order: descending lex within
    one degree, higher degree blocks first for at-most spaces.  The bijection
    is what ties coefficient vectors to positions, so it is the single
    ordering authority for the whole package.
    """

    space: PolySpace

    @property
    def dimension(self) -> int:
        return self.space.dimension

    def rank(self, e: Exponents) -> int:
        sp = self.space
        if not sp.contains_exponents(e):
            raise SpaceMismatch(f"monomial {e} not in {sp}")
        deg = sum(e)
        r = _hom_rank(e, deg)
        if not sp.homogeneous:
            # blocks of degree d, d-1, ..., deg+1 precede this one
            for dd in range(sp.d, deg, -1):
                r += _num_monomials(sp.v, dd)
        return r

    def unrank(self, i: int) -> Exponents:
        sp = self.space
        if not 0 <= i < sp.dimension:
            raise IndexError(f"rank {i} outside [0, {sp.dimension})")
        if sp.homogeneous:
            return _hom_unrank(i, sp.v, sp.d)
        for dd in range(sp.d, -1, -1):
            block = _num_monomials(sp.v, dd)
            if i < block:
                return _hom_unrank(i, sp.v, dd)
            i -= block
        raise AssertionError("unreachable")

    def monomials(self) -> Iterator[Exponents]:
        for i in range(self.dimension):
            yield self.unrank(i)


@dataclass(frozen=True)
class AffineForm:
    """An affine form c_0*x_0 + ... + c_{v-1}*x_{v-1} + const."""

    field: PrimeField
    coeffs: Tuple[int, ...]
    const: int = 0

    def __post_init__(self) -> None:
        p = self.field.p
        object.__setattr__(self, "coeffs", tuple(c % p for c in self.coeffs))
        object.__setattr__(self, "const", self.const % p)

    @property
    def arity(self) -> int:
        return len(self.coeffs)

    def evaluate(self, point: Sequence[int]) -> int:
        if len(point) != len(self.coeffs):
            raise ArityMismatch(
                f"form over {len(self.coeffs)} variables, point of length {len(point)}"
            )
        p = self.field.p
        acc = self.const
        for c, x in zip(self.coeffs, point):
            acc += c * (x % p)
        return acc % p

    def to_poly(self) -> "SparsePoly":
        v = len(self.coeffs)
        terms: Dict[Exponents, int] = {}
        for i, c in enumerate(self.coeffs):
            if c:
                e = [0] * v
                e[i] = 1
                terms[tuple(e)] = c
        if self.const:
            terms[(0,) * v] = self.const
        return SparsePoly(self.field, v, terms)


class SparsePoly:
    """Sparse multivariate polynomial over a prime field.

    Instances behave as immutable values: all arithmetic returns new objects
    and the term map is exposed read-only, which is what makes polynomials
    safe to share across threads and to reuse as dict keys.
    """

    __slots__ = ("field", "v", "_terms", "_hash")

    def __init__(self, field: PrimeField, v: int, terms: Mapping[Exponents, int]):
        if v < 0:
            raise ValueError("negative variable count")
        p = field.p
        clean: Dict[Exponents, int] = {}
        for e, c in terms.items():
            e = tuple(e)
            if len(e) != v or any(x < 0 for x in e):
                raise ValueError(f"bad exponent tuple {e} for {v} variables")
            c %= p
            if c:
                clean[e] = c
        self.field = field
        self.v = v
        self._terms = clean
        self._hash: Optional[int] = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field: PrimeField, v: int) -> "SparsePoly":
        return cls(field, v, {})

    @classmethod
    def constant(cls, field: PrimeField, v: int, c: int) -> "SparsePoly":
        return cls(field, v, {(0,) * v: c})

    @classmethod
    def variable(cls, field: PrimeField, v: int, i: int) -> "SparsePoly":
        if not 0 <= i < v:
            raise ValueError(f"variable index {i} outside [0, {v})")
        e = [0] * v
        e[i] = 1
        return cls(field, v, {tuple(e): 1})

    @classmethod
    def from_coeff_vector(
        cls, field: PrimeField, index: MonomialIndex, vec: Sequence[int]
    ) -> "SparsePoly":
        if len(vec) != index.dimension:
            raise ArityMismatch(
                f"vector of length {len(vec)} against dimension {index.dimension}"
            )
        terms = {index.unrank(i): c for i, c in enumerate(vec)}
        return cls(field, index.space.v, terms)

    # -- inspection ----------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponents, int]:
        return MappingProxyType(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def is_homogeneous(self, d: Optional[int] = None) -> bool:
        if not self._terms:
            return True
        degs = {sum(e) for e in self._terms}
        if len(degs) != 1:
            return False
        return True if d is None else degs == {d}

    def fits_space(self, space: PolySpace) -> bool:
        if self.v != space.v:
            return False
        return all(space.contains_exponents(e) for e in self._terms)

    def coefficient(self, e: Exponents) -> int:
        return self._terms.get(tuple(e), 0)

    def coeff_vector(self, index: MonomialIndex) -> List[int]:
        if not self.fits_space(index.space):
            raise SpaceMismatch(f"polynomial does not fit {index.space}")
        vec = [0] * index.dimension
        for e, c in self._terms.items():
            vec[index.rank(e)] = c
        return vec

    # -- arithmetic ----------------------------------------------------

    def _check_compatible(self, other: "SparsePoly") -> None:
        if self.field.p != other.field.p:
            raise FieldMismatch(
                f"mixed fields F_{self.field.p} and F_{other.field.p}"
            )
        if self.v != other.v:
            raise ArityMismatch(
                f"mixed variable counts {self.v} and {other.v}"
            )

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._check_compatible(other)
        p = self.field.p
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = (out.get(e, 0) + c) % p
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return SparsePoly(self.field, self.v, out)

    def __neg__(self) -> "SparsePoly":
        p = self.field.p
        return SparsePoly(self.field, self.v, {e: p - c for e, c in self._terms.items()})

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def scale(self, c: int) -> "SparsePoly":
        c %= self.field.p
        return SparsePoly(
            self.field, self.v, {e: c * x for e, x in self._terms.items()}
        )

    def mul(self, other: "SparsePoly") -> "SparsePoly":
        self._check_compatible(other)
        p = self.field.p
        out: Dict[Exponents, int] = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = (out.get(e, 0) + ca * cb) % p
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
            if len(out) > DEFAULT_TERM_CAP:
                raise TermCapExceeded(
                    f"product support passed {DEFAULT_TERM_CAP} monomials"
                )
        return SparsePoly(self.field, self.v, out)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return self.mul(other)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def pow(self, e: int) -> "SparsePoly":
        if e < 0:
            raise ValueError("negative polynomial power")
        acc = SparsePoly.constant(self.field, self.v, 1)
        base = self
        while e:
            if e & 1:
                acc = acc.mul(base)
            e >>= 1
            if e:
                base = base.mul(base)
        return acc

    def __pow__(self, e: int) -> "SparsePoly":
        return self.pow(e)

    # -- evaluation -----------------------------------------------------

    def evaluate(self, point: Sequence[int]) -> int:
        if len(point) != self.v:
            raise ArityMismatch(
                f"polynomial in {self.v} variables, point of length {len(point)}"
            )
        p = self.field.p
        pt = [x % p for x in point]
        acc = 0
        for e, c in self._terms.items():
            t = c
            for x, k in zip(pt, e):
                if k:
                    t = t * pow(x, k, p) % p
            acc = (acc + t) % p
        return acc

    # -- serialization and dunder plumbing -------------------------------

    def to_json(self) -> dict:
        terms = sorted(self._terms.items(), reverse=True)
        return {
            "p": self.field.p,
            "v": self.v,
            "terms": [{"e": list(e), "c": c} for e, c in terms],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "SparsePoly":
        field = PrimeField(_json_int(data["p"]))
        v = _json_int(data["v"])
        terms: Dict[Exponents, int] = {}
        for entry in data["terms"]:
            e = tuple(_json_int(x) for x in entry["e"])
            terms[e] = terms.get(e, 0) + _json_int(entry["c"])
        return cls(field, v, terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return (
            self.field.p == other.field.p
            and self.v == other.v
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (self.field.p, self.v, frozenset(self._terms.items()))
            )
        return self._hash

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for e, c in sorted(self._terms.items(), reverse=True):
            factors = [str(c)] if c != 1 or not any(e) else []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(f"x{i}")
                elif k > 1:
                    factors.append(f"x{i}^{k}")
            bits.append("*".join(factors))
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"SparsePoly(F_{self.field.p}, v={self.v}, {self})"
