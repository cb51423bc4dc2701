"""Polynomial identity testing and coefficient-space hitting experiments.

Two engines.  The exhaustive engine is a proof either way.  Let f have
degree at most D_i < p in x_i and total degree at most D.  In the falling-
factorial basis prod (x_i)_(e_i), (x)_e = x (x - 1) ... (x - e + 1), its
support lies in the lower set {e : e_i <= D_i, sum e_i <= D}.  At the
lex-least e of the support f(e) = c_e prod e_i! != 0, and f is zero at
every point of the grid prod {0..D_i} before e in row-major order.  So a
row-major walk of the lower set alone finds the grid's first nonzero point,
and f = 0 when it vanishes there (the product-set lemma, Alon 1999, cut to
the C(v + D, D)-point hitting set of total degree D, Shpilka & Yehudayoff
2010).  The engine takes D_i and D to be the circuit's formal degrees, so it
needs only max D_i < p; ``grid_points`` counts the whole grid covered.  The
walk passes only the reached coordinates (the others take 0 alone) to the
circuit's staged evaluator, which recomputes only the gates that read a
coordinate the step changed, so a row-major step costs mostly the gates of
the last coordinates, not v.  It runs on Python integers, exact for every
prime; the library needs no numpy.
An exhaustive hitting check is the same engine on T o G, G the family's map
from parameters to coefficient vectors, of degree at most deg(T) * c_i in
parameter i (``param_degrees``) and total degree deg(T) * ``param_degree``.
It walks the lower set of prod S_i, S_i = {0..deg(T) * c_i} or the slot's
whole range when deg(T) * c_i reaches it or c_i is None (a sparse family's
rank slots; it has no ``param_degree`` and walks all of prod S_i).  Reduced
modulo x^p - x in the slots walked in full, T o G keeps degree below |S_i|
in slot i and its total degree, so the walk's first nonzero point is the
family's first nonzero member, and T vanishes on all members when there is
none.  Both walks refuse a grid past the enumeration budget before its first
point; a hitting check counts the family's p^s members there.
The randomized engine samples points; a nonzero polynomial of degree
d vanishes at a uniform point with probability at most d/p, so "probably
zero" after t independent trials carries error at most (d/p)^t.  Fields
larger than twice the degree keep the per-trial error below 1/2; smaller
fields are allowed but the verdict records the degraded bound.

Verdict witnesses are always re-evaluated before the verdict is built, so a
"proven nonzero" object cannot exist with a stale or wrong witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

from .algebra import SparsePoly
from .circuits import Circuit, FamilyDescriptor, _seeded_draws
from .errors import (
    CharacteristicTooSmall,
    EnumerationBudgetExceeded,
    FieldMismatch,
    SpaceMismatch,
)

DEFAULT_TRIALS = 25
DEFAULT_ENUM_BUDGET = 1_000_000

PROVEN_ZERO = "proven-zero"
PROVEN_NONZERO = "proven-nonzero"
PROBABLY_ZERO = "probably-zero"


@dataclass(frozen=True)
class PitVerdict:
    outcome: str
    degree_bound: int
    p: int
    witness: Optional[Tuple[int, ...]] = None
    value: Optional[int] = None
    trials: Optional[int] = None
    warnings: Tuple[str, ...] = ()
    # exhaustive verdicts only: the D_i and the size of the grid covered
    variable_degrees: Optional[Tuple[int, ...]] = None
    grid_points: Optional[int] = None
    # outside the body: circuit evaluations, the witness re-evaluation included
    points_evaluated: int = field(default=0, compare=False)

    @property
    def per_trial_error(self) -> Optional[str]:
        if self.outcome != PROBABLY_ZERO:
            return None
        return f"{min(self.degree_bound, self.p)}/{self.p}"

    def to_json(self) -> dict:
        out = {
            "outcome": self.outcome,
            "degree_bound": self.degree_bound,
            "p": self.p,
            "witness": list(self.witness) if self.witness is not None else None,
            "value": self.value,
            "trials": self.trials,
            "per_trial_error": self.per_trial_error,
            "warnings": list(self.warnings),
        }
        if self.variable_degrees is not None:
            out["variable_degrees"] = list(self.variable_degrees)
        if self.grid_points is not None:
            out["grid_points"] = self.grid_points
        return out


def _nonzero_verdict(
    circuit: Circuit,
    point: Sequence[int],
    evaluated: int,
) -> PitVerdict:
    """The verdict at a point where the last of ``evaluated`` evaluations was nonzero."""
    p = circuit.field.p
    value = circuit.evaluate(point) % p
    if not value:
        raise AssertionError("witness failed its re-evaluation")
    return PitVerdict(
        outcome=PROVEN_NONZERO,
        degree_bound=circuit.formal_degree,
        p=p,
        witness=tuple(int(x) for x in point),
        value=int(value),
        points_evaluated=evaluated + 1,
    )


def _grid_points(ranges: Sequence[int], enum_budget: int) -> int:
    """The size of the product grid prod range(r), refused past
    ``enum_budget`` and never multiplied out past it."""
    points = 1
    for r in ranges:
        points *= r
        if points > enum_budget:
            raise EnumerationBudgetExceeded(
                f"a grid over {len(ranges)} coordinates exceeds the budget of "
                f"{enum_budget} points"
            )
    return points


def _first_nonzero(
    sizes: Sequence[int], total: int, value: Callable[[Tuple[int, ...]], int],
    prefix: Tuple[int, ...] = (),
) -> Optional[Tuple[int, ...]]:
    """The first point prefix + x, x in the grid prod range(sizes) with
    sum(x) <= total, in row-major order, where ``value`` is nonzero; None
    when it vanishes on all of them."""
    if not sizes:
        return prefix if value(prefix) else None
    for x in range(min(sizes[0], total + 1)):
        found = _first_nonzero(sizes[1:], total - x, value, (*prefix, x))
        if found is not None:
            return found
    return None


def pit_exhaustive(
    circuit: Circuit, enum_budget: int = DEFAULT_ENUM_BUDGET
) -> PitVerdict:
    """Evaluate the circuit, row-major, on the lower set {x : x_i <= D_i,
    sum x_i <= D} of its formal degrees (module docstring).  Proof-grade either way.

    ``enum_budget`` caps the whole grid's points and the v coordinates that
    the verdict lists.  The walk hands each grid point's support coordinates
    to ``Circuit.staged_evaluator``, which recomputes only the stages from
    the first coordinate that changed; a witness alone becomes a point of
    all v coordinates, zero outside the support, and ``Circuit.evaluate``
    re-evaluates it there.  Refusals come before any point is evaluated."""
    p = circuit.field.p
    support = circuit.support
    # each reached input has D_i >= 1, so the grid has 2^|support| points at
    # least; refusing here bounds the degree pass by O(gates * log budget)
    if 1 << len(support) > enum_budget:
        raise EnumerationBudgetExceeded(
            f"{len(support)} reached inputs give a grid past the budget of "
            f"{enum_budget}"
        )
    degrees = circuit.variable_degrees
    for i in support:
        if degrees[i] >= p:
            raise CharacteristicTooSmall(
                f"exhaustive test needs p > the degree of every variable; "
                f"got p={p}, degree {degrees[i]} in x{i}"
            )
    # the verdict lists all v coordinates (and re-checks its witness at them)
    if circuit.v > enum_budget:
        raise EnumerationBudgetExceeded(
            f"{circuit.v} inputs exceed the budget of {enum_budget}"
        )
    sizes = [degrees[i] + 1 for i in support]
    grid = {
        "variable_degrees": tuple(degrees.get(i, 0) for i in range(circuit.v)),
        "grid_points": _grid_points(sizes, enum_budget),
    }
    staged = circuit.staged_evaluator()
    evaluated = 0

    def value(x: Tuple[int, ...]) -> int:
        nonlocal evaluated
        evaluated += 1
        return staged(x)

    found = _first_nonzero(sizes, circuit.formal_degree, value)
    if found is not None:
        point = [0] * circuit.v
        for i, xi in zip(support, found):
            point[i] = xi
        return replace(_nonzero_verdict(circuit, point, evaluated), **grid)
    return PitVerdict(outcome=PROVEN_ZERO, degree_bound=circuit.formal_degree, p=p,
                      points_evaluated=evaluated, **grid)


def pit_schwartz_zippel(
    circuit: Circuit,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> PitVerdict:
    """Randomized identity test; deterministic function of the seed.

    Each point lists all v coordinates, so v past ``enum_budget`` is refused
    before any draw."""
    if circuit.v > enum_budget:
        raise EnumerationBudgetExceeded(
            f"{circuit.v} inputs exceed the budget of {enum_budget}"
        )
    p = circuit.field.p
    deg = circuit.formal_degree
    warnings: Tuple[str, ...] = ()
    if p <= 2 * deg:
        warnings = (
            f"field size {p} is at most twice the formal degree {deg}; "
            "per-trial error bound degraded",
        )
    for t, point in enumerate(_seeded_draws((p,) * circuit.v, trials, seed)):
        if circuit.evaluate(point):
            return replace(_nonzero_verdict(circuit, point, t + 1), trials=t + 1,
                           warnings=warnings)
    return PitVerdict(outcome=PROBABLY_ZERO, degree_bound=deg, p=p, trials=trials,
                      warnings=warnings, points_evaluated=trials)


def identity_test(
    circuit: Circuit,
    *,
    exhaustive: bool = False,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> PitVerdict:
    """Identity test in the CLI's proof mode: the exhaustive engine, or
    ``trials`` seeded Schwartz-Zippel draws."""
    if exhaustive:
        return pit_exhaustive(circuit, enum_budget=enum_budget)
    return pit_schwartz_zippel(circuit, trials=trials, seed=seed, enum_budget=enum_budget)


_PROBE_TRIALS = 16
_PROBE_SEED_SALT = 0x9E3779B9


def _meta_looks_zero(T, seed: int) -> bool:
    """Randomized probe of T itself: True when T vanished at every one of
    _PROBE_TRIALS random coefficient vectors."""
    cvs = _seeded_draws(
        (T.field.p,) * T.space.dimension, _PROBE_TRIALS, seed, salt=_PROBE_SEED_SALT
    )
    return not any(T.eval_at(cv) for cv in cvs)


# ---------------------------------------------------------------------------
# hitting checks and audits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HitReport:
    meta_id: str
    family: FamilyDescriptor
    exhaustive: bool
    examined: int
    zeros: int
    # the sampling budget; to_json writes them as null in exhaustive mode
    seed: int
    trials: int
    witness_params: Optional[Tuple[int, ...]] = None
    witness_poly: Optional[dict] = None
    witness_value: Optional[int] = None
    degenerate_suspected: bool = False
    # the cost of the check, outside the body: T evaluations on members, each
    # on a member built for it, the witness rebuild and the degree check included
    points_evaluated: int = field(default=0, compare=False)

    @property
    def mode(self) -> str:
        return "exhaustive" if self.exhaustive else "random"

    @property
    def outcome(self) -> str:
        return "none-found" if self.witness_params is None else "witness"

    @property
    def exhausted(self) -> bool:
        """True when the walk covered the whole family: a proof that T
        vanishes on it."""
        return self.exhaustive and self.witness_params is None

    def to_json(self) -> dict:
        return {
            "meta": self.meta_id,
            "family": self.family.to_json(),
            "mode": self.mode,
            "outcome": self.outcome,
            "examined": self.examined,
            "zeros": self.zeros,
            "exhausted": self.exhausted,
            "seed": None if self.exhaustive else self.seed,
            "trials": None if self.exhaustive else self.trials,
            "witness": None
            if self.witness_params is None
            else {
                "params": list(self.witness_params),
                "poly": self.witness_poly,
                "value": self.witness_value,
            },
            "degenerate_suspected": self.degenerate_suspected,
        }


def _check_spaces(desc: FamilyDescriptor, T) -> None:
    if desc.space != T.space:
        raise SpaceMismatch("meta-polynomial and family target different spaces")
    if desc.field.p != T.field.p:
        raise FieldMismatch(f"family in F_{desc.field.p}, meta-polynomial in F_{T.field.p}")


def succinct_hitting_check(
    desc: FamilyDescriptor,
    T,
    *,
    exhaustive: bool = False,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
    collect_stats: bool = False,
) -> HitReport:
    """Search the family for a member on which T is nonzero.

    Random mode samples ``trials`` members from seeds derived from ``seed``.
    Exhaustive mode decides whether T vanishes on all p^s members from the
    lower set of the grid prod S_i, S_i = {0..deg(T) * c_i} or a slot's whole
    range (see the module docstring), walked in row-major order.  Its first
    nonzero point is the first nonzero member of the whole grid, the witness;
    when the walk is smaller than the whole grid and vanishes, the grid's last
    member is evaluated too, a check on the declared degrees.  ``examined``
    counts the members the verdict covers: p^s for a proof, the witness's
    row-major index + 1 otherwise.  A family of more than ``enum_budget``
    members is refused before any member is built.  The witness is rebuilt
    from its parameters and T re-evaluated on it before it is reported.
    """
    _check_spaces(desc, T)
    space = desc.space
    evaluated = 0
    last = None  # (params, coefficient vector, T-value) of the last member evaluated

    def value(params: Tuple[int, ...]) -> int:
        nonlocal evaluated, last
        evaluated += 1
        cv = desc.member_from_params(params).coeff_vector(space)
        last = (params, cv, T.eval_at(cv))
        return last[2]

    ranges = desc.param_ranges()
    # (params, coefficient vector, T-value) of the first member where T is nonzero
    witness: Optional[Tuple[Tuple[int, ...], List[int], int]] = None
    if exhaustive:
        examined = zeros = _grid_points(ranges, enum_budget)
        sizes = tuple(r if c is None else min(r, T.degree_bound * c + 1)
                      for r, c in zip(ranges, desc.param_degrees))
        full = sum(ranges) - len(ranges)
        total = full if desc.param_degree is None else T.degree_bound * desc.param_degree
        if _first_nonzero(sizes, total, value) is not None:
            witness = last
            zeros = 0
            for x, r in zip(witness[0], ranges):
                zeros = zeros * r + x
            examined = zeros + 1
        elif (sizes != ranges or total < full) and value(tuple(r - 1 for r in ranges)):
            raise AssertionError(f"T is nonzero at member {last[0]}, outside the lower "
                                 "set of the declared param_degrees and param_degree")
    else:
        examined = zeros = 0
        for params in _seeded_draws(ranges, trials, seed):
            examined += 1
            if not value(params):
                zeros += 1
                continue
            if witness is None:
                witness = last
            if not collect_stats:
                break
    degenerate = False
    witness_poly = None
    if witness is None:
        degenerate = _meta_looks_zero(T, seed)
    else:
        again = desc.member_from_params(witness[0])
        cv = again.coeff_vector(space)
        evaluated += 1
        if cv != witness[1] or T.eval_at(cv) != witness[2]:
            raise AssertionError("witness failed its rebuild and re-evaluation")
        witness_poly = again.to_json()
    return HitReport(
        meta_id=getattr(T, "meta_id", "meta"),
        family=desc,
        exhaustive=exhaustive,
        examined=examined,
        zeros=zeros,
        seed=seed,
        trials=trials,
        witness_params=None if witness is None else witness[0],
        witness_poly=witness_poly,
        witness_value=None if witness is None else witness[2],
        degenerate_suspected=degenerate,
        points_evaluated=evaluated,
    )


VALID_SEPARATION = "valid-separation-instance"
REFUTED = "refuted"
NON_SEPARATING = "non-separating"


@dataclass(frozen=True)
class AuditReport:
    evidence: HitReport
    hard_poly: dict
    hard_value: int

    @property
    def classification(self) -> str:
        """``refuted`` when some easy member has nonzero T-value (T is useless
        against the family); otherwise ``non-separating`` when T also
        vanishes at the hard candidate; otherwise the triple is a
        ``valid-separation-instance``."""
        if self.evidence.outcome == "witness":
            return REFUTED
        return NON_SEPARATING if self.hard_value == 0 else VALID_SEPARATION

    def to_json(self) -> dict:
        return {
            "classification": self.classification,
            "meta": self.evidence.meta_id,
            "family": self.evidence.family.to_json(),
            "hard": self.hard_poly,
            "hard_value": self.hard_value,
            "vanishing": {
                "zeros": self.evidence.zeros,
                "examined": self.evidence.examined,
            },
            "exhaustive_proof": self.evidence.exhausted,
            "evidence": self.evidence.to_json(),
        }


def natural_proof_audit(
    T,
    easy: FamilyDescriptor,
    hard: SparsePoly,
    *,
    exhaustive: bool = False,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> AuditReport:
    """Check whether T separates the easy family from one hard candidate;
    ``AuditReport.classification`` names the outcome."""
    _check_spaces(easy, T)
    hard_value = T.eval_at(hard.coeff_vector(easy.space))
    evidence = succinct_hitting_check(easy, T, exhaustive=exhaustive, trials=trials, seed=seed,
                                      enum_budget=enum_budget, collect_stats=True)
    return AuditReport(evidence, hard.to_json(), hard_value)
