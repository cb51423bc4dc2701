"""Algebraic circuits and the structured polynomial families built from them.

A circuit is a DAG of gates over a prime field: inputs, constants, fan-in-two
addition and multiplication.  Gates are stored in topological order as plain
tuples, so circuits stay hashable and cheap to serialize.  Construction
checks every gate; every later pass reads only the gates the output reads.

Formal degree is the usual syntactic bound: 1 for inputs, 0 for constants,
max for addition, sum for multiplication.  It bounds the degree of the
expanded polynomial and is what the randomized identity test keys its error
bound on.  The same rules applied to each variable bound the degree in that
variable; the exhaustive identity test walks the grid those bounds give.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .algebra import (
    Exponents,
    PolySpace,
    PrimeField,
    SparsePoly,
    _json_int,
)
from .errors import ArityMismatch, DescriptorInvalid

Gate = Tuple  # ("in", i) | ("const", c) | ("add", a, b) | ("mul", a, b)

FAMILY_CLASSES = ("det-projection", "sps", "sparse", "squares", "full-space")


def derive_seed(seed: int, index: int) -> int:
    """Per-trial seed: base seed XOR trial index.

    The trials of one run draw from distinct streams, so results do not
    depend on execution order.  The mix is a plain XOR, so trial t of seed s
    is the same stream as trial 0 of seed s ^ t: streams are disjoint within
    a run, not across seeds.
    """
    return seed ^ index


def _seeded_draws(
    ranges: Sequence[int], trials: int, seed: int, salt: int = 0
) -> Iterator[Tuple[int, ...]]:
    """The points of a randomized run, one per trial.

    Trial t draws one ``randrange(r)`` per range, in order, from its own
    stream ``random.Random(derive_seed(derive_seed(seed, salt), t))``; a
    nonzero salt gives a second set of streams under the same seed.
    """
    if trials < 1:
        raise ValueError("at least one trial required")
    base = derive_seed(seed, salt)
    for t in range(trials):
        rng = random.Random(derive_seed(base, t))
        yield tuple(rng.randrange(r) for r in ranges)


@dataclass(frozen=True)
class Circuit:
    field: PrimeField
    v: int
    gates: Tuple[Gate, ...]
    out: int

    def __post_init__(self) -> None:
        if self.v < 0:
            raise ValueError("negative input count")
        if not self.gates:
            raise ValueError("circuit needs at least one gate")
        p = self.field.p
        for idx, g in enumerate(self.gates):
            op = g[0]
            if op == "in":
                if not (len(g) == 2 and 0 <= g[1] < self.v):
                    raise ValueError(f"gate {idx}: bad input reference {g}")
            elif op == "const":
                if len(g) != 2 or not isinstance(g[1], int):
                    raise ValueError(f"gate {idx}: bad constant {g}")
                if not 0 <= g[1] < p:
                    raise ValueError(f"gate {idx}: constant not canonical mod {p}")
            elif op in ("add", "mul"):
                if len(g) != 3 or not (0 <= g[1] < idx and 0 <= g[2] < idx):
                    raise ValueError(f"gate {idx}: bad operand references {g}")
            else:
                raise ValueError(f"gate {idx}: unknown op {op!r}")
        if not 0 <= self.out < len(self.gates):
            raise ValueError(f"output index {self.out} out of range")

    @property
    def size(self) -> int:
        return len(self.gates)

    @functools.cached_property
    def _program(self) -> Tuple[Gate, ...]:
        """The gates the output depends on, in order and renumbered among
        themselves, the output last; input gates keep their x_i.  This is
        the one liveness scan, O(gates): every pass below reads only it."""
        live = [False] * (self.out + 1)
        live[self.out] = True
        for idx in range(self.out, -1, -1):
            g = self.gates[idx]
            if live[idx] and g[0] in ("add", "mul"):
                live[g[1]] = live[g[2]] = True
        kept = [idx for idx, on in enumerate(live) if on]
        pos = {idx: k for k, idx in enumerate(kept)}
        return tuple(g if len(g) == 2 else (g[0], pos[g[1]], pos[g[2]])
                     for g in (self.gates[idx] for idx in kept))

    @functools.cached_property
    def formal_degree(self) -> int:
        degs: List[int] = []
        for g in self._program:
            op = g[0]
            if op == "in":
                degs.append(1)
            elif op == "const":
                degs.append(0)
            elif op == "add":
                degs.append(max(degs[g[1]], degs[g[2]]))
            else:
                degs.append(degs[g[1]] + degs[g[2]])
        return degs[-1]

    @functools.cached_property
    def support(self) -> Tuple[int, ...]:
        """The inputs the output reaches, ascending."""
        return tuple(sorted({g[1] for g in self._program if g[0] == "in"}))

    @functools.cached_property
    def variable_degrees(self) -> Dict[int, int]:
        """Formal degree of the output in each input, by the rules of
        ``formal_degree`` applied per variable: {i: D_i >= 1} over the
        ``support``; other inputs are absent (degree 0).  Each gate of the
        program keeps only the inputs it reaches, so the pass costs
        O(gates * |support|), whatever v is."""
        maps: List[Dict[int, int]] = []
        for g in self._program:
            op = g[0]
            if op == "in":
                maps.append({g[1]: 1})
            elif op == "const":
                maps.append({})
            else:
                out = dict(maps[g[1]])
                for i, d in maps[g[2]].items():
                    e = out.get(i, 0)
                    out[i] = max(e, d) if op == "add" else e + d
                maps.append(out)
        return maps[-1]

    def evaluate(self, point: Sequence[int]) -> int:
        """The output at a point of all v inputs.  Only the gates of the
        program are visited, so a call costs those, not v; additions and
        products reduce mod p, and the output is reduced once at the end."""
        if len(point) != self.v:
            raise ArityMismatch(
                f"circuit over {self.v} inputs, point of length {len(point)}"
            )
        p = self.field.p
        vals: List[int] = []
        for g in self._program:
            op = g[0]
            if op == "in":
                vals.append(point[g[1]])
            elif op == "const":
                vals.append(g[1])
            elif op == "add":
                vals.append((vals[g[1]] + vals[g[2]]) % p)
            else:
                vals.append(vals[g[1]] * vals[g[2]] % p)
        return vals[-1] % p

    def staged_evaluator(self) -> Callable[[Sequence[int]], int]:
        """``value(x)``: the output where the inputs of ``support`` take x,
        in that order, for walks that move mostly the last coordinates.

        Each program gate has a stage, the last support position among the
        inputs it reaches; gates that reach none are folded once, here.  A
        call recomputes only the stages from the first coordinate where x
        differs from the previous call's, each after writing its input
        gates, so a row-major walk pays mostly for the gates of its last
        coordinates.  ``evaluate`` stays the plain reference path: the
        randomized engine, C(0), ``CircuitMeta.eval_at`` and the
        re-evaluation of every witness use it, so each ``proven-nonzero``
        found here is re-checked by a pass that keeps no state."""
        support = self.support
        n, p = len(support), self.field.p
        pos = {i: s for s, i in enumerate(support)}
        # per stage: the program positions of its input gates, then its
        # other gates as (position, is_mul, a, b)
        stages: List[Tuple[List[int], List[Tuple[int, bool, int, int]]]] = [
            ([], []) for _ in support]
        stage: List[int] = []
        vals: List[int] = []
        for k, g in enumerate(self._program):
            op, val = g[0], 0
            if op == "in":
                s = pos[g[1]]
                stages[s][0].append(k)
            elif op == "const":
                s, val = -1, g[1]
            else:
                a, b = g[1], g[2]
                s = max(stage[a], stage[b])
                if s >= 0:
                    stages[s][1].append((k, op == "mul", a, b))
                else:
                    val = vals[a] * vals[b] % p if op == "mul" else (vals[a] + vals[b]) % p
            stage.append(s)
            vals.append(val)
        last: List[Optional[int]] = [None] * n

        def value(x: Sequence[int]) -> int:
            if len(x) != n:
                raise ArityMismatch(f"circuit over {n} reached inputs, point of "
                                    f"length {len(x)}")
            j = 0
            while j < n and x[j] == last[j]:
                j += 1
            for s in range(j, n):
                xs = last[s] = x[s]
                ins, gates = stages[s]
                for k in ins:
                    vals[k] = xs
                for k, mul, a, b in gates:
                    vals[k] = vals[a] * vals[b] % p if mul else (vals[a] + vals[b]) % p
            return vals[-1] % p

        return value

    def to_json(self) -> dict:
        gates = []
        for g in self.gates:
            if g[0] == "in":
                gates.append({"op": "in", "i": g[1]})
            elif g[0] == "const":
                gates.append({"op": "const", "c": g[1]})
            else:
                gates.append({"op": g[0], "a": g[1], "b": g[2]})
        return {"p": self.field.p, "v": self.v, "gates": gates, "out": self.out}

    @classmethod
    def from_json(cls, data: Mapping) -> "Circuit":
        field = PrimeField(_json_int(data["p"]))
        v = _json_int(data["v"])
        gates: List[Gate] = []
        for idx, g in enumerate(data["gates"]):
            op = g["op"]
            if op == "in":
                gates.append(("in", _json_int(g["i"])))
            elif op == "const":
                gates.append(("const", _json_int(g["c"]) % field.p))
            elif op in ("add", "mul"):
                gates.append((op, _json_int(g["a"]), _json_int(g["b"])))
            else:
                raise ValueError(f"gate {idx}: unknown op {op!r}")
        return cls(field, v, tuple(gates), _json_int(data["out"]))


class CircuitBuilder:
    """Incremental construction helper; methods return gate indices."""

    def __init__(self, field: PrimeField, v: int):
        self.field = field
        self.v = v
        self.gates: List[Gate] = []

    def _push(self, gate: Gate) -> int:
        self.gates.append(gate)
        return len(self.gates) - 1

    def inp(self, i: int) -> int:
        return self._push(("in", i))

    def const(self, c: int) -> int:
        return self._push(("const", c % self.field.p))

    def add(self, a: int, b: int) -> int:
        return self._push(("add", a, b))

    def mul(self, a: int, b: int) -> int:
        return self._push(("mul", a, b))

    def sub(self, a: int, b: int) -> int:
        neg = self.mul(self.const(-1), b)
        return self.add(a, neg)

    def build(self, out: int) -> Circuit:
        return Circuit(self.field, self.v, tuple(self.gates), out)


def det_projection(
    field: PrimeField, space: PolySpace, n: int, params: Sequence[int]
) -> SparsePoly:
    """det(L(x)) for the n x n matrix L of affine forms in the space's
    variables that params lays out entry-major: per entry its v coefficients,
    then its constant when the space is not homogeneous.

    The determinant is expanded by cofactors along the rows, memoized on
    column subsets: after row r, minors[S] is the determinant of rows 0..r
    restricted to the columns in the bitmask S, |S| = r + 1.  That takes
    n * 2^(n-1) products of a linear form by a minor and no division, so it
    is exact over every prime field."""
    v = space.v
    width = v if space.homogeneous else v + 1
    if len(params) != n * n * width:
        raise ArityMismatch(f"expected {n * n * width} parameters, got {len(params)}")
    entries = [
        SparsePoly.linear(field, params[i : i + v], 0 if width == v else params[i + v])
        for i in range(0, len(params), width)
    ]
    minors = {0: SparsePoly.constant(field, v, 1)}
    for r in range(n):
        grown: Dict[int, SparsePoly] = {}
        for s, minor in minors.items():
            for j in range(n):
                if s >> j & 1:
                    continue
                term = entries[r * n + j].mul(minor)
                # the sign of entry (r, j) in the minor on S | {j}
                if (s >> j).bit_count() & 1:
                    term = -term
                t = s | 1 << j
                grown[t] = grown[t] + term if t in grown else term
        minors = grown
    return minors[(1 << n) - 1]


def sps_build(
    field: PrimeField, v: int, products: Sequence[Sequence[SparsePoly]]
) -> SparsePoly:
    """Sum over the given products of polynomials in v variables."""
    acc = SparsePoly.zero(field, v)
    for factors in products:
        term = SparsePoly.constant(field, v, 1)
        for f in factors:
            term = term.mul(f)
        acc = acc + term
    return acc


# ---------------------------------------------------------------------------
# structured families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyDescriptor:
    """A named, finitely parameterized class of polynomials in one space.

    The family is a map G from parameter tuples, one value per slot of
    ``param_ranges``, to members, each a SparsePoly: ``member_from_params``
    evaluates it.  For every class but sparse, each coefficient of G(params)
    is a polynomial of total degree ``param_degree`` in the parameters, so
    the family is also a generator, a candidate succinct hitting set.
    ``param_degrees`` gives, per slot, the degree c_i of G in that one
    parameter: 2 for squares, 1 for every slot of the other classes, and
    None for the rank slots of a sparse family.  A test polynomial T of
    degree D then has T o G of degree at most D * c_i in slot i, so an
    exhaustive hitting check decides T on the grid prod {0..D * c_i} (see
    ``npl.pit``), and the declared degrees are what its proofs rest on.
    Random sampling draws the tuple uniformly.  Degenerate draws are kept
    (the zero polynomial is a legitimate member).  Each class is defined
    once, by one branch of ``__post_init__``: its checks, seed layout,
    degrees and member map, which the accessors read.
    """

    class_id: str
    space: PolySpace
    field: PrimeField
    n: int = 0
    top_fanin: Optional[int] = None
    product_degrees: Optional[Tuple[int, ...]] = None
    sparsity: Optional[int] = None

    def __post_init__(self) -> None:
        cid, sp, p, cls = self.class_id, self.space, self.field.p, type(self)
        if cid not in FAMILY_CLASSES:
            raise DescriptorInvalid(f"unknown family class {cid!r}")
        if cid != "sps" and (self.top_fanin, self.product_degrees) != (None, None):
            raise DescriptorInvalid(f"{cid} family takes no top_fanin or product_degrees")
        if cid != "sparse" and self.sparsity is not None:
            raise DescriptorInvalid(f"{cid} family takes no sparsity")
        # one branch per class: its checks, then (n, param_ranges, param_degrees,
        # param_degree, member map); n is given for a det-projection, derived
        # (variables, fan-in or sparsity) for the others, where 0 means "derive it"
        if cid == "squares":
            if not (sp.homogeneous and sp.d == 2):
                raise DescriptorInvalid("squares family needs a homogeneous degree-2 space")
            gen = (sp.v, (p,) * sp.v, (2,) * sp.v, 2, cls._squares)
        elif cid == "full-space":
            gen = (sp.v, (p,) * sp.dimension, (1,) * sp.dimension, 1, cls._full_space)
        elif cid == "det-projection":
            if self.n < 1:
                raise DescriptorInvalid("det-projection needs matrix size n >= 1")
            if sp.d != self.n:
                raise DescriptorInvalid(f"det-projection of size {self.n} lives in "
                                        f"degree-{self.n} spaces")
            # det is linear in each entry's parameters, and reads n entries per term
            count = self.n * self.n * (sp.v if sp.homogeneous else sp.v + 1)
            gen = (self.n, (p,) * count, (1,) * count, self.n, cls._det_projection)
        elif cid == "sps":
            fanin = self.top_fanin if self.top_fanin is not None else self.n
            if fanin < 0:
                raise DescriptorInvalid("sps needs a non-negative top fan-in")
            degs = self.product_degrees
            degs = tuple(int(x) for x in (degs if degs is not None else (sp.d,) * fanin))
            if len(degs) != fanin:
                raise DescriptorInvalid("one product degree per summand required")
            if any(not 1 <= x <= sp.d for x in degs):
                raise DescriptorInvalid("product degrees must lie in [1, space degree]")
            if sp.homogeneous and any(x != sp.d for x in degs):
                raise DescriptorInvalid("homogeneous space requires every product "
                                        "degree to equal d")
            object.__setattr__(self, "top_fanin", fanin)
            object.__setattr__(self, "product_degrees", degs)
            count = sum(degs) * sp.v
            gen = (fanin, (p,) * count, (1,) * count, max(degs, default=0), cls._sps)
        else:  # sparse: a monomial rank and a coefficient per slot
            s = self.sparsity
            if s is None or s < 1:
                raise DescriptorInvalid("sparse family needs sparsity >= 1")
            gen = (s, (sp.dimension,) * s + (p,) * s, (None,) * s + (1,) * s, None,
                   cls._sparse)
        n = gen[0]
        if self.n not in (0, n):
            raise DescriptorInvalid(f"{cid} family has n = {n}, not {self.n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_generator", gen[1:])

    def param_ranges(self) -> Tuple[int, ...]:
        return self._generator[0]

    @property
    def param_degrees(self) -> Tuple[Optional[int], ...]:
        """Per parameter slot, the degree of G in that parameter alone (the
        others held fixed): None for the rank slots of a sparse family,
        which are not polynomial."""
        return self._generator[1]

    @property
    def param_degree(self) -> Optional[int]:
        """Total degree in the parameters of every coefficient of a member:
        the degree of the map G from parameters to coefficient vectors.
        None for sparse families, whose rank parameters are not polynomial."""
        return self._generator[2]

    def member_from_params(self, params: Sequence[int]) -> SparsePoly:
        """G(params): the member those parameters name, checked against the
        declared space by ``validate_member``."""
        ranges, member = self._generator[0], self._generator[3]
        if len(params) != len(ranges):
            raise ArityMismatch(f"expected {len(ranges)} parameters, got {len(params)}")
        for x, r in zip(params, ranges):
            if not 0 <= x < r:
                raise ValueError(f"parameter {x} outside its range [0, {r})")
        poly = member(self, params)
        if not validate_member(self, poly):
            raise AssertionError("sampler produced an invalid member")
        return poly

    # the member maps call det_projection and sps_build by module name (patchable)
    def _squares(self, params: Sequence[int]) -> SparsePoly:
        return SparsePoly.linear(self.field, params).pow(2)

    def _full_space(self, params: Sequence[int]) -> SparsePoly:
        return SparsePoly.from_coeff_vector(self.field, self.space, list(params))

    def _det_projection(self, params: Sequence[int]) -> SparsePoly:
        return det_projection(self.field, self.space, self.n, params)

    def _sps(self, params: Sequence[int]) -> SparsePoly:
        # a linear form per v parameters; summand i takes the next product_degrees[i]
        v = self.space.v
        forms = (SparsePoly.linear(self.field, params[i : i + v])
                 for i in range(0, len(params), v))
        return sps_build(self.field, v, [list(itertools.islice(forms, k))
                                         for k in self.product_degrees or ()])

    def _sparse(self, params: Sequence[int]) -> SparsePoly:
        # s monomial ranks, then their s coefficients
        terms: Dict[Exponents, int] = {}
        for rank, coeff in zip(params[: self.sparsity], params[self.sparsity :]):
            e = self.space.unrank(rank)
            terms[e] = terms.get(e, 0) + coeff
        return SparsePoly(self.field, self.space.v, terms)

    def to_json(self) -> dict:
        out = {
            "class": self.class_id,
            "p": self.field.p,
            "space": self.space.to_json(),
            "n": self.n,
        }
        if self.top_fanin is not None:
            out["top_fanin"] = self.top_fanin
        if self.product_degrees is not None:
            out["product_degrees"] = list(self.product_degrees)
        if self.sparsity is not None:
            out["sparsity"] = self.sparsity
        return out

    @classmethod
    def from_json(cls, data: Mapping) -> "FamilyDescriptor":
        degs = data.get("product_degrees")
        fanin, sparsity = data.get("top_fanin"), data.get("sparsity")
        return cls(
            class_id=data["class"],
            space=PolySpace.from_json(data["space"]),
            field=PrimeField(_json_int(data["p"])),
            n=_json_int(data.get("n", 0)),
            top_fanin=_json_int(fanin) if fanin is not None else None,
            product_degrees=tuple(map(_json_int, degs)) if degs is not None else None,
            sparsity=_json_int(sparsity) if sparsity is not None else None,
        )


def validate_member(desc: FamilyDescriptor, poly: SparsePoly) -> bool:
    """Structural check of a member: it lies in the declared space, and a
    sparse member has at most s terms.  ``member_from_params`` runs this on
    every member it builds."""
    if not poly.fits_space(desc.space):
        return False
    return desc.sparsity is None or len(poly.terms) <= desc.sparsity


def sample_family_with_params(
    desc: FamilyDescriptor, seed: int
) -> Tuple[Tuple[int, ...], SparsePoly]:
    """(params, member) for a uniform draw of the parameters; deterministic
    in (descriptor, seed)."""
    params = next(_seeded_draws(desc.param_ranges(), 1, seed))
    return params, desc.member_from_params(params)
