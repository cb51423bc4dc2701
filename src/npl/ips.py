"""Geometric proof certificates for systems of polynomial equations.

A certificate for the system f_1, ..., f_m is a plain Circuit C over inputs
y_1, ..., y_m, in the system's field, with two checkable conditions: C at
the all-zero input equals 1, and C(f_1(x), ..., f_m(x)) is identically
zero.  If both hold, no common zero of the system can exist, because at
such a point the composition would evaluate to C(0) = 1.

CNF formulas translate clause by clause: a clause contributes the product of
(1 - x_i) over its positive literals and x_i over its negated ones, so the
clause polynomial vanishes exactly on the Boolean assignments satisfying the
clause.  The Boolean axioms x_i^2 - x_i are always appended, pinning every
common zero to {0, 1}^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .algebra import PrimeField, _json_int
from .circuits import Circuit, CircuitBuilder
from .errors import ArityMismatch, ClauseTooWide, FieldMismatch
from .pit import (
    DEFAULT_ENUM_BUDGET,
    DEFAULT_TRIALS,
    PROVEN_NONZERO,
    PROVEN_ZERO,
    PitVerdict,
    identity_test,
)

MAX_CLAUSE_WIDTH = 3


@dataclass(frozen=True)
class Cnf:
    num_vars: int
    clauses: Tuple[Tuple[int, ...], ...]


def parse_dimacs(text: str) -> Cnf:
    """Parse DIMACS CNF.  Clauses are zero-terminated and may span lines."""
    header: Optional[Tuple[int, int]] = None
    tokens: List[str] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise ValueError("duplicate DIMACS header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"malformed header line {line!r}")
            header = (int(parts[2]), int(parts[3]))
            continue
        if header is None:
            raise ValueError("clause data before the DIMACS header")
        tokens.extend(line.split())
    if header is None:
        raise ValueError("missing DIMACS header")
    n, m = header
    if n < 0 or m < 0:
        raise ValueError("negative counts in DIMACS header")
    clauses: List[Tuple[int, ...]] = []
    current: List[int] = []
    for tok in tokens:
        try:
            lit = int(tok)
        except ValueError:
            raise ValueError(f"non-integer token {tok!r} in clause data")
        if lit == 0:
            clauses.append(tuple(current))
            current = []
            continue
        if not 1 <= abs(lit) <= n:
            raise ValueError(f"literal {lit} outside variable range 1..{n}")
        current.append(lit)
    if current:
        raise ValueError("last clause is not zero-terminated")
    if len(clauses) != m:
        raise ValueError(f"header promises {m} clauses, found {len(clauses)}")
    return Cnf(n, tuple(clauses))


def clause_circuit(clause: Sequence[int], n: int, field: PrimeField) -> Circuit:
    """Product over the clause literals; the empty clause is the constant 1."""
    b = CircuitBuilder(field, n)
    acc: Optional[int] = None
    for lit in clause:
        i = abs(lit) - 1
        if lit > 0:
            g = b.sub(b.const(1), b.inp(i))
        else:
            g = b.inp(i)
        acc = g if acc is None else b.mul(acc, g)
    if acc is None:
        acc = b.const(1)
    return b.build(acc)


def boolean_axiom_circuit(i: int, n: int, field: PrimeField) -> Circuit:
    b = CircuitBuilder(field, n)
    x = b.inp(i)
    sq = b.mul(x, x)
    out = b.sub(sq, b.inp(i))
    return b.build(out)


@dataclass(frozen=True)
class PolynomialSystem:
    field: PrimeField
    n: int
    members: Tuple[Circuit, ...]
    provenance: str = "raw"
    labels: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        for c in self.members:
            if c.field.p != self.field.p:
                raise FieldMismatch("system member in a different field")
            if c.v != self.n:
                raise ArityMismatch("system member over a different variable count")
        if self.labels is not None and len(self.labels) != len(self.members):
            raise ValueError("one label per member required")

    def to_json(self) -> dict:
        return {
            "p": self.field.p,
            "n": self.n,
            "provenance": self.provenance,
            "labels": list(self.labels) if self.labels is not None else None,
            "members": [c.to_json() for c in self.members],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "PolynomialSystem":
        field = PrimeField(_json_int(data["p"]))
        members = tuple(Circuit.from_json(c) for c in data["members"])
        provenance = data.get("provenance", "raw")
        if not isinstance(provenance, str):
            raise TypeError("provenance must be a string")
        labels = data.get("labels")
        if labels is not None and not (
            isinstance(labels, list) and all(isinstance(x, str) for x in labels)
        ):
            raise TypeError("labels must be a list of strings")
        return cls(
            field=field,
            n=_json_int(data["n"]),
            members=members,
            provenance=provenance,
            labels=tuple(labels) if labels is not None else None,
        )


def cnf_to_system(cnf: Cnf, field: PrimeField) -> PolynomialSystem:
    members: List[Circuit] = []
    labels: List[str] = []
    for idx, clause in enumerate(cnf.clauses):
        if len(clause) > MAX_CLAUSE_WIDTH:
            raise ClauseTooWide(
                f"clause {idx} has {len(clause)} literals (limit {MAX_CLAUSE_WIDTH})"
            )
        members.append(clause_circuit(clause, cnf.num_vars, field))
        labels.append(f"clause:{idx}")
    for i in range(cnf.num_vars):
        members.append(boolean_axiom_circuit(i, cnf.num_vars, field))
        labels.append(f"axiom:x{i + 1}")
    return PolynomialSystem(
        field=field,
        n=cnf.num_vars,
        members=tuple(members),
        provenance="cnf-derived",
        labels=tuple(labels),
    )


def _check_certificate(system: PolynomialSystem, cert: Circuit) -> None:
    if cert.v != len(system.members):
        raise ArityMismatch(
            f"certificate over {cert.v} inputs for a system of "
            f"{len(system.members)} members"
        )
    if cert.field.p != system.field.p:
        raise FieldMismatch("certificate and system in different fields")


def compose_system(system: PolynomialSystem, cert: Circuit) -> Circuit:
    """Splice the member circuits into the certificate's inputs.

    The result is a circuit over the x variables computing
    C(f_1(x), ..., f_m(x)).  One pass over the gates C's output depends on
    splices member j where an input gate first reads y_j, so a member C
    never reads is left out; the size is at most the sum of the part sizes
    and the formal degree at most deg(C) times the largest member degree.
    """
    _check_certificate(system, cert)
    gates: List[Tuple] = []
    member_out: Dict[int, int] = {}
    cmap: List[int] = []
    for g in cert._program:
        op = g[0]
        if op == "in":
            if g[1] not in member_out:
                member, offset = system.members[g[1]], len(gates)
                gates.extend(mg if len(mg) == 2 else (mg[0], mg[1] + offset, mg[2] + offset)
                             for mg in member.gates)
                member_out[g[1]] = member.out + offset
            cmap.append(member_out[g[1]])
        else:
            gates.append(g if op == "const" else (op, cmap[g[1]], cmap[g[2]]))
            cmap.append(len(gates) - 1)
    return Circuit(system.field, system.n, tuple(gates), cmap[-1])


@dataclass(frozen=True)
class VerificationReport:
    """The two facts a verdict rests on: C(0), and the identity test of the
    composition (None when C(0) != 1 made it moot)."""

    value_at_zero: int
    relation_verdict: Optional[PitVerdict]

    @property
    def failed_condition(self) -> Optional[int]:
        if self.value_at_zero != 1:
            return 1
        if self.relation_verdict.outcome == PROVEN_NONZERO:
            return 2
        return None

    @property
    def accepted(self) -> bool:
        return self.failed_condition is None

    @property
    def grade(self) -> Optional[str]:
        if not self.accepted:
            return None
        return "exact" if self.relation_verdict.outcome == PROVEN_ZERO else "randomized"

    @property
    def error_bound(self) -> Optional[str]:
        """(d/p)^trials for a randomized acceptance, d the degree bound."""
        if self.grade != "randomized":
            return None
        verdict = self.relation_verdict
        d, p = min(verdict.degree_bound, verdict.p), verdict.p
        g = math.gcd(d, p)  # d/g and p/g are coprime, and so are their powers
        return f"{(d // g) ** verdict.trials}/{(p // g) ** verdict.trials}"

    def to_json(self) -> dict:
        return {
            "accepted": self.accepted,
            "grade": self.grade,
            "error_bound": self.error_bound,
            "conditions": {
                "identity_at_zero": {
                    "holds": self.failed_condition != 1,
                    "value": self.value_at_zero,
                },
                "polynomial_relation": None
                if self.relation_verdict is None
                else {
                    "holds": self.failed_condition != 2,
                    "verdict": self.relation_verdict.to_json(),
                },
            },
            "failed_condition": self.failed_condition,
            "witness": None
            if self.relation_verdict is None or self.relation_verdict.witness is None
            else {
                "point": list(self.relation_verdict.witness),
                "value": self.relation_verdict.value,
            },
        }


def verify_certificate(
    system: PolynomialSystem,
    cert: Circuit,
    *,
    exhaustive: bool = False,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> VerificationReport:
    """Check both certificate conditions; the identity test of the
    composition runs in the given proof mode.  A certificate over another
    field or arity than the system's is refused before C(0) is computed."""
    _check_certificate(system, cert)
    value_at_zero = cert.evaluate([0] * len(system.members))
    verdict = None
    if value_at_zero == 1:
        verdict = identity_test(compose_system(system, cert), exhaustive=exhaustive,
                                trials=trials, seed=seed, enum_budget=enum_budget)
    return VerificationReport(value_at_zero, verdict)
