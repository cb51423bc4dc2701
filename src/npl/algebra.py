"""Exact arithmetic over prime fields and sparse multivariate polynomials.

Representation notes:

* Field values are canonical integers in ``[0, p)``; polynomial and matrix
  internals stay on raw ints for speed, with the field carried alongside.
* A monomial is a tuple of non-negative exponents, one per variable, and a
  polynomial is a map from monomial to nonzero canonical coefficient; the
  zero polynomial is the empty map and has degree -1.  The loops that add
  monomials (``SparsePoly.mul``, the derivative matrices of ``meta`` and a
  space's successor tables) pack each one into an int with a w-bit field
  per variable, variable 0 in the top field, so int order is tuple lex
  order and multiplying monomials is adding ints (the packed layout of
  Monagan & Pearce, "Parallel sparse polynomial multiplication using
  heaps", ISSAC 2009).  w is sized from the largest total degree a loop
  reaches (``_width``, at least ``_MIN_WIDTH`` bits), so no exponent sum
  carries across fields.
* Every input value is checked once, by its type's constructor, which holds
  each integer field to one rule (``_json_int``) and stores a plain int:
  ``from_json`` only reads the JSON and hands the constructor its keys, and
  arithmetic results come from the trusted ``SparsePoly._make``.
* A ``PolySpace`` is its own monomial index and fixes the coordinate order
  used everywhere: monomials of one degree are ranked in descending
  lexicographic order on the exponent tuple, and at-most-degree spaces list
  the degree blocks d, d-1, ..., 0.  So on the homogeneous quadratics in
  x, y the coordinates are (x^2, x*y, y^2) and a*x^2 + b*x*y + c*y^2 has
  coefficient vector (a, b, c).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import index, itemgetter
from types import MappingProxyType
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import ArityMismatch, FieldMismatch, SpaceMismatch, TermCapExceeded

Exponents = Tuple[int, ...]

# every product that grows past this many monomials raises TermCapExceeded
DEFAULT_TERM_CAP = 1 << 20
_TABLE_CAP = 1 << 22  # ranks in a space's successor tables, about 250 MB to build

# Refuse to build spaces whose dense dimension cannot be addressed.
MAX_SPACE_DIM = 1 << 26

# packed exponent fields are at least this wide, so degrees below 256 pack by bytes
_MIN_WIDTH = 8


def _json_int(value) -> int:
    """An integer field of an input: an int, or a value that converts to one
    exactly (``operator.index``: sympy and numpy integers).  A bool, float
    or string there is malformed input, not a value to round or parse."""
    if type(value) is not int:
        if type(value) is bool or not hasattr(type(value), "__index__"):
            raise TypeError(f"expected an integer, got {value!r}")
        value = index(value)
    return value


def _int_fields(obj, *required: str, optional=(), tuples=()) -> None:
    """Hold the named fields of a frozen dataclass to ``_json_int``, storing
    plain ints: a required field holds an integer, an optional one an integer
    or None, a tuple field None or a sequence of integers, stored as a tuple."""
    for name in (*required, *optional, *tuples):
        x = getattr(obj, name)
        if name in tuples and x is not None:
            object.__setattr__(obj, name, tuple(map(_json_int, x)))
        elif type(x) is not int and (x is not None or name in required):
            object.__setattr__(obj, name, _json_int(x))


# Miller-Rabin on the first 13 primes is exact below psi_13, the least strong
# pseudoprime to all of them (OEIS A014233; Sorenson & Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017)
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


@lru_cache(maxsize=16, typed=True)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below psi_13 ~ 3.3e24;
    larger n raise ValueError rather than get a probable answer.  Answers
    are memoized (raises are not), so a process tests each modulus once,
    however many fields it builds over it."""
    if n >= _MR_EXACT_BELOW:
        raise ValueError(
            f"modulus {n} is not below {_MR_EXACT_BELOW}, the bound of exact "
            "primality testing"
        )
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
        _int_fields(self, "p")
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def __repr__(self) -> str:
        return f"F_{self.p}"


def _num_monomials(v: int, d: int) -> int:
    """Count of degree-d monomials in v >= 1 variables."""
    return math.comb(v + d - 1, d)


def _capped_num_monomials(v: int, d: int) -> int:
    """``_num_monomials(v, d)``, or MAX_SPACE_DIM + 1 for every count past
    MAX_SPACE_DIM.  C(a + b, b) >= 2^min(a, b), so a count with min(v - 1, d)
    above log2(MAX_SPACE_DIM) passes the cap without being computed, and any
    other count takes at most that many factors."""
    if min(v - 1, d) >= MAX_SPACE_DIM.bit_length():
        return MAX_SPACE_DIM + 1
    return min(_num_monomials(v, d), MAX_SPACE_DIM + 1)


@dataclass(frozen=True)
class PolySpace:
    """Polynomials in v variables of degree exactly d (homogeneous) or at most d.

    The space is also the rank/unrank bijection between its monomials and
    [0, dimension).  Rank 0 is the first monomial in the declared order:
    descending lex within one degree, higher degree blocks first for at-most
    spaces.  The bijection is what ties coefficient vectors to positions, so
    it is the single ordering authority for the whole package.
    """

    v: int
    d: int
    homogeneous: bool = True

    def __post_init__(self) -> None:
        _int_fields(self, "v", "d")
        if type(self.homogeneous) is not bool:
            raise TypeError(f"homogeneous must be a bool, got {self.homogeneous!r}")
        if self.v < 1:
            raise ValueError("space needs at least one variable")
        if self.d < 0:
            raise ValueError("degree bound must be non-negative")
        if _capped_num_monomials(self.v + (not self.homogeneous), self.d) > MAX_SPACE_DIM:
            raise ValueError(f"space dimension exceeds cap {MAX_SPACE_DIM}")

    @cached_property
    def dimension(self) -> int:
        # the monomials of degree <= d in v variables are, by padding, those
        # of degree exactly d in v + 1
        return _num_monomials(self.v + (not self.homogeneous), self.d)

    def contains_exponents(self, e: Exponents) -> bool:
        if len(e) != self.v or any(x < 0 for x in e):
            return False
        deg = sum(e)
        return deg == self.d if self.homogeneous else deg <= self.d

    def rank(self, e: Exponents) -> int:
        if not self.contains_exponents(e):
            raise SpaceMismatch(f"monomial {e} not in {self}")
        deg = sum(e)
        r = _hom_rank(e, deg)
        if not self.homogeneous:
            # blocks of degree d, d-1, ..., deg+1 precede this one: all the
            # monomials of degree <= d but those of degree <= deg
            r += self.dimension - _num_monomials(self.v + 1, deg)
        return r

    def unrank(self, i: int) -> Exponents:
        if not 0 <= i < self.dimension:
            raise IndexError(f"rank {i} outside [0, {self.dimension})")
        if self.homogeneous:
            return _hom_unrank(i, self.v, self.d)
        for dd in range(self.d, -1, -1):
            block = _num_monomials(self.v, dd)
            if i < block:
                return _hom_unrank(i, self.v, dd)
            i -= block
        raise AssertionError("unreachable")

    def monomials(self) -> Iterator[Exponents]:
        """Every monomial of the space in rank order, without unranking."""
        v, d = self.v, self.d
        degrees = [d] if self.homogeneous else range(d, -1, -1)
        # after pass i, ends[s] lists the exponents of the last i+1 variables
        # summing to s, descending lex; the last pass keeps only the space's degrees
        ends = {s: [(s,)] for s in range(d + 1)}
        for i in range(1, v):
            ends = {s: [(t,) + e for t in range(s, -1, -1) for e in ends[s - t]]
                    for s in (degrees if i == v - 1 else range(d + 1))}
        for dd in degrees:
            yield from ends[dd]

    @cached_property
    def _successors(self) -> List[List[List[int]]]:
        """succ[r][i][m], r < d: the rank in degree r + 1 of x_i times the
        monomial of rank m in degree r.  Degree r + 1's keys at ``_width(d)``
        in rank order are degree r's plus each unit key, sorted descending.
        They hold d times the degree-d block's ranks, refused before any is
        built when that block passes the term cap or the tables _TABLE_CAP."""
        if (top := _num_monomials(self.v, self.d)) > DEFAULT_TERM_CAP or self.d * top > _TABLE_CAP:
            raise TermCapExceeded(f"the tables of {self} hold {self.d * top} ranks over {top} top "
                                  f"monomials, past a cap of {_TABLE_CAP} or {DEFAULT_TERM_CAP}")
        units = [1 << _width(self.d) * i for i in range(self.v - 1, -1, -1)]  # x_0 first
        keys = [[0]]
        for _ in range(self.d):
            keys.append(sorted({k + u for k in keys[-1] for u in units}, reverse=True))
        ranks = [{k: m for m, k in enumerate(high)} for high in keys[1:]]
        return [[[at[k + u] for k in low] for u in units] for low, at in zip(keys, ranks)]

    def mode(self) -> str:
        return "homogeneous" if self.homogeneous else "at-most"

    def to_json(self) -> dict:
        return {"v": self.v, "d": self.d, "mode": self.mode()}

    @classmethod
    def from_json(cls, data: Mapping) -> "PolySpace":
        mode = data.get("mode", "homogeneous")
        if mode not in ("homogeneous", "at-most"):
            raise ValueError(f"unknown space mode {mode!r}")
        return cls(data["v"], data["d"], mode == "homogeneous")

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
    e, rem = [0] * v, d
    for i in range(v - 1):
        if rem and r >= (held := _num_monomials(v - i, rem - 1)):
            r -= held  # past every monomial holding x_i, which come first
            continue
        for t in range(rem, 0, -1):
            block = _num_monomials(v - i - 1, rem - t)
            if r < block:
                e[i] = t
                rem -= t
                break
            r -= block
    e[-1] = rem
    return tuple(e)


def _width(d: int) -> int:
    """Bits per packed exponent field for monomials of total degree <= d."""
    return max(_MIN_WIDTH, d.bit_length())


def _pack(e: Sequence[int], w: int) -> int:
    if w == 8:
        return int.from_bytes(bytes(e), "big")
    k = 0
    for x in e:
        k = k << w | x
    return k


def _unpacker(v: int, w: int) -> Callable[[int], Exponents]:
    """The map from a key of v packed w-bit fields to its exponent tuple."""
    if w == 8:
        return lambda k: tuple(k.to_bytes(v, "big"))
    mask = (1 << w) - 1
    shifts = range(w * (v - 1), -1, -w)
    return lambda k: tuple([k >> s & mask for s in shifts])


class SparsePoly:
    """Sparse multivariate polynomial over a prime field.

    Instances behave as immutable values: all arithmetic returns new objects
    and the term map is exposed only as a read-only view, which is what makes
    polynomials safe to share across threads and to reuse as dict keys.
    """

    # _terms maps exponent tuples to coefficients in [1, p); _span is the
    # (lowest, highest) total degree of the terms once read, None before that
    # and for zero
    __slots__ = ("field", "v", "_terms", "_span")

    def __init__(self, field: PrimeField, v: int,
                 terms: Mapping[Exponents, int] | Iterable[Tuple[Exponents, int]]):
        """The polynomial sum of c * x^e over terms, a map or (e, c) pairs:
        repeated exponents add up.  This is the one check of a polynomial
        from outside: v, the exponents and the coefficients must be integers
        (``_json_int``), and each e must hold v non-negative exponents."""
        if (v := _json_int(v)) < 0:
            raise ValueError("negative variable count")
        summed: Dict[Exponents, int] = {}
        get = summed.get
        for e, c in terms.items() if isinstance(terms, Mapping) else terms:
            e = tuple(e)
            if not {*map(type, e)} <= {int}:  # bool is not int
                e = tuple(map(_json_int, e))
            if len(e) != v or e and min(e) < 0:
                raise ValueError(f"bad exponent tuple {e} for {v} variables")
            summed[e] = get(e, 0) + (c if type(c) is int else _json_int(c))
        p = field.p
        self.field, self.v, self._span = field, v, None
        self._terms = {e: r for e, c in summed.items() if (r := c % p)}

    @classmethod
    def _make(cls, field: PrimeField, v: int, terms: Dict[Exponents, int]) -> "SparsePoly":
        """Trusted constructor of arithmetic results: each key holds v
        non-negative ints, and coefficients lie in [1, p)."""
        f = object.__new__(cls)
        f.field, f.v, f._terms, f._span = field, v, terms, None
        return f

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field: PrimeField, v: int) -> "SparsePoly":
        return cls.constant(field, v, 0)

    @classmethod
    def constant(cls, field: PrimeField, v: int, c: int) -> "SparsePoly":
        if (v := _json_int(v)) < 0:
            raise ValueError("negative variable count")
        c = _json_int(c) % field.p
        return cls._make(field, v, {(0,) * v: c} if c else {})

    @classmethod
    def from_coeff_vector(cls, field: PrimeField, space: PolySpace,
                          vec: Sequence[int]) -> "SparsePoly":
        if len(vec) != space.dimension:
            raise ArityMismatch(f"vector of length {len(vec)} against dimension {space.dimension}")
        return cls(field, space.v, ((space.unrank(r), c) for r, c in enumerate(vec) if c))

    # -- inspection ----------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponents, int]:
        """A read-only view of the term map, keyed by exponent tuples."""
        return MappingProxyType(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def _degrees(self) -> Optional[Tuple[int, int]]:
        """(lowest, highest) total degree of the terms, None for zero; read
        from the terms at most once."""
        if self._span is None and self._terms:
            degs = list(map(sum, self._terms))
            self._span = (min(degs), max(degs))
        return self._span

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        span = self._degrees()
        return span[1] if span else -1

    def is_homogeneous(self) -> bool:
        """True when all terms share one degree, and for the zero polynomial."""
        span = self._degrees()
        return span is None or span[0] == span[1]

    def fits_space(self, space: PolySpace) -> bool:
        if self.v != space.v:
            return False
        span = self._degrees()
        if span is None:
            return True
        lo, hi = span
        return lo == hi == space.d if space.homogeneous else hi <= space.d

    def coeff_vector(self, space: PolySpace) -> List[int]:
        if not self.fits_space(space):
            raise SpaceMismatch(f"polynomial does not fit {space}")
        vec = [0] * space.dimension
        for e, c in self._terms.items():
            vec[space.rank(e)] = c
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
        get = out.get
        for e, c in other._terms.items():
            s = get(e, 0) + c
            if s >= p:
                s -= p
            if s:
                out[e] = s
            else:
                del out[e]
        return SparsePoly._make(self.field, self.v, out)

    def __neg__(self) -> "SparsePoly":
        p = self.field.p
        return SparsePoly._make(self.field, self.v, {e: p - c for e, c in self._terms.items()})

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def mul(self, other: "SparsePoly") -> "SparsePoly":
        self._check_compatible(other)
        # packed at a width that holds every total degree of the product
        w = _width(self.degree + other.degree)
        a, b = ({_pack(e, w): c for e, c in f._terms.items()} for f in (self, other))
        # rows run over the shorter operand, unless the product may pass the
        # cap: then over the longer one, so the check after each row stops it
        # early.  Coefficients are reduced mod p once, at the end, and the cap
        # counts the monomials whose running coefficient is nonzero mod p.
        short, long = (a, b) if len(a) <= len(b) else (b, a)
        a, b = (long, short) if len(a) * len(b) > DEFAULT_TERM_CAP else (short, long)
        p = self.field.p
        out: Dict[int, int] = {}
        get = out.get
        for row, (ka, ca) in enumerate(a.items(), 1):
            for kb, cb in b.items():
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
            if len(out) > DEFAULT_TERM_CAP:
                zeros = [k for k, c in out.items() if not c % p]
                support = len(out) - len(zeros)
                if support > DEFAULT_TERM_CAP:
                    raise TermCapExceeded(
                        f"product of {len(a)} by {len(b)} terms passed "
                        f"{DEFAULT_TERM_CAP} monomials: support reached "
                        f"{support} after {row} of {len(a)} rows"
                    )
                for k in zeros:
                    del out[k]
        unpack = _unpacker(self.v, w)
        return SparsePoly._make(self.field, self.v,
                                {unpack(k): r for k, c in out.items() if (r := c % p)})

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        return self.mul(other)

    def pow(self, e: int) -> "SparsePoly":
        if e < 0:
            raise ValueError("negative polynomial power")
        acc = None
        base = self
        while e:
            if e & 1:
                acc = base if acc is None else acc.mul(base)
            e >>= 1
            if e:
                base = base.mul(base)
        return SparsePoly.constant(self.field, self.v, 1) if acc is None else acc

    # -- serialization and dunder plumbing -------------------------------

    def _sorted_terms(self) -> List[Tuple[Exponents, int]]:
        """Terms in descending lex order of their exponent tuples."""
        return sorted(self._terms.items(), reverse=True)

    def to_json(self) -> dict:
        return {
            "p": self.field.p,
            "v": self.v,
            "terms": [{"e": list(e), "c": c} for e, c in self._sorted_terms()],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "SparsePoly":
        field, v, terms = PrimeField(data["p"]), data["v"], data["terms"]
        return cls(field, v, zip(map(itemgetter("e"), terms), map(itemgetter("c"), terms)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return (self.field.p, self.v, self._terms) == (other.field.p, other.v, other._terms)

    def __hash__(self) -> int:
        return hash((self.field.p, self.v, frozenset(self._terms.items())))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for e, c in self._sorted_terms():
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
