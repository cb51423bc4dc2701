"""Exact arithmetic over prime fields and sparse multivariate polynomials.

Representation notes:

* Field values are canonical integers in ``[0, p)``; polynomial and matrix
  internals stay on raw ints for speed, with the field carried alongside.
* A monomial is a vector of non-negative exponents, one per variable, and
  the public API speaks tuples: ``terms``, ``to_json``, ``coeff_vector`` and
  the rank and unrank of a ``PolySpace``.  Inside ``SparsePoly`` a monomial
  is one int with a w-bit field per variable, variable 0 in the top field,
  so int order is tuple lex order and multiplying monomials is adding ints
  (the packed layout of Monagan & Pearce, "Parallel sparse polynomial
  multiplication using heaps", ISSAC 2009).  Each polynomial carries a bound
  on its total degree and w is sized from it (at least ``_MIN_WIDTH`` bits):
  every monomial's total degree stays below 2^w, so no exponent sum carries
  across fields, and a product whose bound needs more bits is computed at a
  wider w.  A polynomial is a map from monomial to nonzero canonical
  coefficient; the zero polynomial is the empty map and has degree -1.
* Only external input (``SparsePoly(...)``, ``from_json``) is validated;
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
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import ArityMismatch, FieldMismatch, SpaceMismatch, TermCapExceeded

Exponents = Tuple[int, ...]

# every product that grows past this many monomials raises TermCapExceeded
DEFAULT_TERM_CAP = 1 << 20

# Refuse to build spaces whose dense dimension cannot be addressed.
MAX_SPACE_DIM = 1 << 26

# packed exponent fields are at least this wide, so degrees below 256 never repack
_MIN_WIDTH = 8


def _json_int(value) -> int:
    """An integer field of a JSON input.  A float, bool or string there is
    malformed input, not a value to round or parse."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


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
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def __repr__(self) -> str:
        return f"F_{self.p}"


def _num_monomials(v: int, d: int) -> int:
    """Count of degree-d monomials in v >= 1 variables."""
    return math.comb(v + d - 1, d)


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
        if self.v < 1:
            raise ValueError("space needs at least one variable")
        if self.d < 0:
            raise ValueError("degree bound must be non-negative")
        if self.dimension > MAX_SPACE_DIM:
            raise ValueError(
                f"space dimension {self.dimension} exceeds cap {MAX_SPACE_DIM}"
            )

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
            # blocks of degree d, d-1, ..., deg+1 precede this one
            for dd in range(self.d, deg, -1):
                r += _num_monomials(self.v, dd)
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
    def _ranks(self) -> Dict[int, int]:
        """Ranks of the monomials met so far, by packed key at the width
        ``_width(d)``; filled by ``SparsePoly.coeff_vector``."""
        return {}

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


def _degree_of(v: int, w: int) -> Callable[[int], int]:
    """The map from a packed key to its total degree.  Multiplying by a one in
    every field sums all fields into the top one; no partial sum carries,
    since every total degree is below 2^w."""
    ones = _pack((1,) * v, w)
    top = w * (v - 1) if v else 0
    mask = (1 << w) - 1
    return lambda k: k * ones >> top & mask


class _Terms(Mapping):
    """Read-only view of a polynomial's terms, keyed by exponent tuples."""

    __slots__ = ("_poly",)

    def __init__(self, poly: "SparsePoly") -> None:
        self._poly = poly

    def __len__(self) -> int:
        return len(self._poly._terms)

    def __iter__(self) -> Iterator[Exponents]:
        f = self._poly
        return map(_unpacker(f.v, f._w), f._terms)

    def __getitem__(self, e) -> int:
        f = self._poly
        limit = 1 << f._w
        if (type(e) is tuple and len(e) == f.v
                and all(isinstance(x, int) and 0 <= x < limit for x in e)):
            c = f._terms.get(_pack(e, f._w))
            if c is not None:
                return c
        raise KeyError(e)


class SparsePoly:
    """Sparse multivariate polynomial over a prime field.

    Instances behave as immutable values: all arithmetic returns new objects
    and the term map is exposed read-only, which is what makes polynomials
    safe to share across threads and to reuse as dict keys.
    """

    # _terms maps packed monomials to coefficients; _d bounds the total degree
    # and _w = _width(_d); _span is the (lowest, highest) total degree of the
    # terms once known, None before that and for zero
    __slots__ = ("field", "v", "_terms", "_d", "_w", "_span", "_hash")

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
        degs = [sum(e) for e in clean]
        d = max(degs, default=0)
        w = _width(d)
        self.field = field
        self.v = v
        self._terms = {_pack(e, w): c for e, c in clean.items()}
        self._d = d
        self._w = w
        self._span = (min(degs), d) if degs else None
        self._hash: Optional[int] = None

    @classmethod
    def _make(
        cls,
        field: PrimeField,
        v: int,
        terms: Dict[int, int],
        d: int,
        span: Optional[Tuple[int, int]] = None,
    ) -> "SparsePoly":
        """Trusted constructor of arithmetic results: terms are packed at
        _width(d), coefficients lie in [1, p), and no total degree exceeds d."""
        f = object.__new__(cls)
        f.field = field
        f.v = v
        f._terms = terms
        f._d = d
        f._w = _width(d)
        f._span = span
        f._hash = None
        return f

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field: PrimeField, v: int) -> "SparsePoly":
        return cls.constant(field, v, 0)

    @classmethod
    def constant(cls, field: PrimeField, v: int, c: int) -> "SparsePoly":
        if v < 0:
            raise ValueError("negative variable count")
        c %= field.p
        return cls._make(field, v, {0: c} if c else {}, 0, (0, 0) if c else None)

    @classmethod
    def linear(
        cls, field: PrimeField, coeffs: Sequence[int], const: int = 0
    ) -> "SparsePoly":
        """The affine form c_0*x_0 + ... + c_(v-1)*x_(v-1) + const in
        v = len(coeffs) variables, packed at the narrowest width."""
        p = field.p
        v = len(coeffs)
        terms = {1 << _MIN_WIDTH * (v - 1 - i): r
                 for i, c in enumerate(coeffs) if (r := c % p)}
        d = 1 if terms else 0
        const %= p
        if const:
            terms[0] = const
        span = (0 if const else 1, d) if terms else None
        return cls._make(field, v, terms, d, span)

    @classmethod
    def from_coeff_vector(
        cls, field: PrimeField, space: PolySpace, vec: Sequence[int]
    ) -> "SparsePoly":
        if len(vec) != space.dimension:
            raise ArityMismatch(
                f"vector of length {len(vec)} against dimension {space.dimension}"
            )
        terms = dict(zip(space.monomials(), vec))
        return cls(field, space.v, terms)

    # -- inspection ----------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponents, int]:
        return _Terms(self)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def _degrees(self) -> Optional[Tuple[int, int]]:
        """(lowest, highest) total degree of the terms, None for zero; read
        from the packed keys at most once."""
        if self._span is None and self._terms:
            degs = list(map(_degree_of(self.v, self._w), self._terms))
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
        # every degree is at most space.d, so the memo's width holds the terms
        w = _width(space.d)
        terms = self._packed(w)
        ranks = space._ranks
        vec = [0] * space.dimension
        for k, c in terms.items():
            r = ranks.get(k)
            if r is None:
                r = ranks[k] = space.rank(_unpacker(space.v, w)(k))
            vec[r] = c
        return vec

    def _packed(self, w: int) -> Dict[int, int]:
        """The term map packed at width w, which must hold every exponent."""
        if w == self._w:
            return self._terms
        unpack = _unpacker(self.v, self._w)
        return {_pack(unpack(k), w): c for k, c in self._terms.items()}

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
        w = max(self._w, other._w)
        b = other._packed(w)
        p = self.field.p
        out = dict(self._packed(w))
        get = out.get
        for k, c in b.items():
            s = get(k, 0) + c
            if s >= p:
                s -= p
            if s:
                out[k] = s
            else:
                del out[k]
        return SparsePoly._make(self.field, self.v, out, max(self._d, other._d))

    def __neg__(self) -> "SparsePoly":
        p = self.field.p
        terms = {k: p - c for k, c in self._terms.items()}
        return SparsePoly._make(self.field, self.v, terms, self._d, self._span)

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def mul(self, other: "SparsePoly") -> "SparsePoly":
        self._check_compatible(other)
        d = self._d + other._d
        w = _width(d)
        a, b = self._packed(w), other._packed(w)
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
        terms = {k: r for k, c in out.items() if (r := c % p)}
        # over a field the lowest and the highest degree parts multiply to nonzero
        sa, sb = self._span, other._span
        span = (sa[0] + sb[0], sa[1] + sb[1]) if sa and sb else None
        return SparsePoly._make(self.field, self.v, terms, d, span)

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
        """Terms in descending lex order of their exponent tuples, which is
        descending order of their packed keys."""
        unpack = _unpacker(self.v, self._w)
        return [(unpack(k), c) for k, c in sorted(self._terms.items(), reverse=True)]

    def to_json(self) -> dict:
        return {
            "p": self.field.p,
            "v": self.v,
            "terms": [{"e": list(e), "c": c} for e, c in self._sorted_terms()],
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
        if self.field.p != other.field.p or self.v != other.v:
            return False
        w = max(self._w, other._w)
        return self._packed(w) == other._packed(w)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (self.field.p, self.v, frozenset(self.terms.items()))
            )
        return self._hash

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
