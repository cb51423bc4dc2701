"""Command-line front end.

Every invocation builds an ExperimentPlan (defaults resolved, inputs named),
executes it, and emits one JSON report.  The report body echoes the full
plan, so the body alone is enough to rerun the experiment, and reruns with
the same plan produce byte-identical bodies.  Wall-clock time lives in the
header, outside the body, precisely so it cannot break that guarantee; so
do the counters.  ``points_evaluated`` counts the engine's evaluations (of the
circuit for ``pit`` and ``ips-verify``, none when C(0) != 1; of the test
polynomial on members for ``hit-check`` and ``audit``, each member built for
its evaluation), re-evaluations of the witness and the degree check
included.  An exhaustive engine evaluates a lower set of the points the
body's ``grid_points`` or ``examined`` count as covered.  ``rank`` counts
``rows_eliminated``, the rows it packs for elimination.

Exit codes: 0 for zero / none-found / accept, 1 for nonzero / witness /
reject, 2 for usage errors, precondition failures, running out of memory
and internal errors (a failed consistency check of the library, reported
as ``npl: internal error``).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, fields
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from . import __version__
from .algebra import DEFAULT_TERM_CAP, PolySpace, PrimeField, SparsePoly
from .circuits import Circuit, FamilyDescriptor, sample_family_with_params
from .errors import NplError, TermCapExceeded
from .ips import (
    Cnf,
    PolynomialSystem,
    cnf_to_system,
    parse_dimacs,
    verify_certificate,
)
from .meta import (
    CircuitMeta,
    MinorMeta,
    MinorSelection,
    RankMethodSpec,
    coordinate_meta,
    discriminant,
    partials_matrix,
    rank_mod_p,
)
from .pit import (
    DEFAULT_ENUM_BUDGET,
    DEFAULT_TRIALS,
    identity_test,
    natural_proof_audit,
    succinct_hitting_check,
)

DEFAULT_FIELD = 2 ** 31 - 1
FIELD_ENV_VAR = "NPL_DEFAULT_FIELD"

# what a runner returns: the result, the exit code and the header counters
Report = Tuple[dict, int, Dict[str, int]]


@dataclass(frozen=True)
class ExperimentPlan:
    command: str
    field: int
    seed: int
    # None on the commands that do not test for zero (rank, gen, ips-from-cnf)
    trials: Optional[int]
    exhaustive: Optional[bool]
    enum_budget: Optional[int]
    out: Optional[str]
    pretty: bool
    inputs: Tuple[Tuple[str, object], ...] = ()

    @property
    def proof_mode(self) -> dict:
        """The keywords every proof runner takes: identity_test,
        succinct_hitting_check, natural_proof_audit, verify_certificate."""
        return {"exhaustive": self.exhaustive, "trials": self.trials,
                "seed": self.seed, "enum_budget": self.enum_budget}

    def input(self, key: str):
        return dict(self.inputs)[key]

    def to_json(self) -> dict:
        return {**vars(self), "inputs": dict(self.inputs)}


def _add_common(sub: argparse.ArgumentParser, default_field: int) -> None:
    sub.add_argument("--field", type=int, default=default_field,
                     help=f"prime modulus (default {default_field}, or ${FIELD_ENV_VAR})")
    sub.add_argument("--seed", type=int, default=0, help="base seed for all randomness")
    sub.add_argument("--out", type=str, default=None, help="also write the report here")
    sub.add_argument("--pretty", action="store_true", help="indent the JSON report")


def _add_proof_mode(sub: argparse.ArgumentParser) -> None:
    """Flags of the commands that test for zero, by sampling or exhaustively."""
    sub.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                     help=f"randomized trial budget (default {DEFAULT_TRIALS})")
    sub.add_argument("--exhaustive", action="store_true",
                     help="use exhaustive enumeration instead of sampling")
    sub.add_argument("--enum-budget", type=int, default=DEFAULT_ENUM_BUDGET,
                     help="point budget for exhaustive enumeration")


@functools.lru_cache(maxsize=4)
def build_parser(default_field: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npl",
        description="Exact polynomial identity testing and coefficient-space experiments.",
    )
    parser.add_argument("--version", action="version", version=f"npl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pit", help="identity-test a circuit")
    p.add_argument("--circuit", required=True, help="circuit JSON file")
    _add_proof_mode(p)
    _add_common(p, default_field)

    p = sub.add_parser("hit-check", help="search a family for a meta-polynomial witness")
    p.add_argument("--meta", required=True,
                   help="disc | coord:I | partials-minor:k=K,r=R | shifted-minor:k=K,l=L,r=R | file.json")
    p.add_argument("--family", required=True,
                   help="squares | full | detproj:n=K | sps:t=K | sparse:s=K | file.json")
    p.add_argument("--space", required=True, help="DEG:VARS or DEG:VARS:le")
    _add_proof_mode(p)
    _add_common(p, default_field)

    p = sub.add_parser("audit", help="separation audit of meta vs family vs hard candidate")
    p.add_argument("--meta", required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--space", required=True, help="DEG:VARS or DEG:VARS:le")
    p.add_argument("--hard", required=True, help="polynomial JSON file")
    _add_proof_mode(p)
    _add_common(p, default_field)

    p = sub.add_parser("rank", help="derivative-matrix rank of a polynomial")
    p.add_argument("--poly", required=True, help="polynomial JSON file")
    p.add_argument("--method", choices=("partials", "shifted"), default="partials")
    p.add_argument("--k", type=int, required=True, help="derivative order")
    p.add_argument("--shift", type=int, default=0, help="shift degree (shifted method)")
    p.add_argument("--include-matrix", action="store_true",
                   help="embed the matrix entries in the report")
    _add_common(p, default_field)

    p = sub.add_parser("gen", help="determinant-generator accounting")
    p.add_argument("--n", default="2,3,4,5", help="comma list of matrix sizes")
    p.add_argument("--expand-max", type=int, default=0,
                   help="evaluate one seeded sample for each n up to this bound")
    _add_common(p, default_field)

    p = sub.add_parser("ips-verify", help="verify a geometric certificate")
    p.add_argument("--cert", required=True, help="certificate circuit JSON file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--cnf", help="DIMACS CNF file, translated on the fly")
    group.add_argument("--system", help="polynomial system JSON file")
    _add_proof_mode(p)
    _add_common(p, default_field)

    p = sub.add_parser("ips-from-cnf", help="translate a CNF into a polynomial system")
    p.add_argument("--cnf", required=True, help="DIMACS CNF file")
    p.add_argument("--system-out", default=None,
                   help="also write the bare system JSON here")
    _add_common(p, default_field)

    return parser


# the parsed options a plan holds as fields; every other option is an input
_PLAN_FIELDS = tuple(f.name for f in fields(ExperimentPlan) if f.name != "inputs")


def parse_plan(argv: Sequence[str], env: Optional[Mapping[str, str]] = None) -> ExperimentPlan:
    env = os.environ if env is None else env
    raw_default = env.get(FIELD_ENV_VAR)
    default_field = DEFAULT_FIELD
    if raw_default is not None:
        try:
            default_field = int(raw_default)
        except ValueError:
            raise ValueError(f"{FIELD_ENV_VAR} is not an integer: {raw_default!r}")
    ns = vars(build_parser(default_field).parse_args(argv))
    PrimeField(ns["field"])  # reject composite moduli up front
    for key in ("trials", "enum_budget"):
        if ns.get(key, 1) < 1:
            raise ValueError(f"--{key.replace('_', '-')} must be at least 1, got {ns[key]}")
    inputs = tuple((k, v) for k, v in ns.items() if k not in _PLAN_FIELDS)
    return ExperimentPlan(inputs=inputs, **{k: ns.get(k) for k in _PLAN_FIELDS})


def _parse_space(text: str) -> PolySpace:
    parts = text.split(":")
    if len(parts) == 2:
        d, v = parts
        return PolySpace(int(v), int(d), True)
    if len(parts) == 3 and parts[2] == "le":
        d, v, _ = parts
        return PolySpace(int(v), int(d), False)
    raise ValueError(f"space spec {text!r} is not DEG:VARS or DEG:VARS:le")


def _parse_kv(spec: str, *keys: str) -> Dict[str, int]:
    """The key=value pairs after the colon of spec, which must give every key
    in keys once and no other key."""
    out: Dict[str, int] = {}
    for part in spec.split(":", 1)[1].split(","):
        if "=" not in part:
            raise ValueError(f"spec {spec!r} expects key=value, got {part!r}")
        k, v = part.split("=", 1)
        k = k.strip()
        if k in out:
            raise ValueError(f"spec {spec!r} repeats key {k!r}")
        out[k] = int(v)
    for k in keys:
        if k not in out:
            raise ValueError(f"spec {spec!r} is missing key {k!r}")
    for k in out:
        if k not in keys:
            raise ValueError(f"spec {spec!r} has unknown key {k!r}")
    return out


def _load_json(
    path: str,
    parse: Callable,
    field: Optional[int] = None,
    space: Optional[PolySpace] = None,
):
    """Read the JSON file at path and build an object from it with parse.

    Text that is not JSON, and valid JSON of the wrong shape, is an input
    error that names the file, not a crash.  Given a field, the object must
    live in F_field; given a space, the polynomial must fit it.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: malformed input: nested too deeply") from None
        except ValueError as exc:  # bad UTF-8 or bad JSON
            raise ValueError(f"{path}: malformed input: {exc}") from None
    if type(data) is not dict:
        kind = {bool: "boolean", int: "number", float: "number", str: "string", list: "array"}
        raise ValueError(f"{path}: malformed input: expected a JSON object, got "
                         f"{kind.get(type(data), 'null')}")
    try:
        obj = parse(data)
    except KeyError as exc:
        raise ValueError(f"{path}: malformed input: missing key {exc}") from None
    except (TypeError, AttributeError, IndexError, ValueError, OverflowError,
            NplError) as exc:
        raise ValueError(f"{path}: malformed input: {exc}") from None
    if field is not None and obj.field.p != field:
        raise ValueError(f"{path}: field {obj.field.p} differs from plan field {field}")
    if space is not None and not obj.fits_space(space):
        raise ValueError(f"{path}: polynomial does not fit {space}")
    return obj


@contextlib.contextmanager
def _about(*paths: str):
    """An input error raised inside names the files at paths, which it
    concerns together with the options."""
    try:
        yield
    except (ValueError, OverflowError, NplError) as exc:
        raise ValueError(f"{', '.join(paths)}: {exc}") from None


def _load_cnf(path: str, field: PrimeField) -> Tuple[Cnf, PolynomialSystem]:
    """Read the DIMACS file at path and translate it over field; an input
    error names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cnf = parse_dimacs(fh.read())
            return cnf, cnf_to_system(cnf, field)
        except (ValueError, OverflowError, NplError) as exc:  # bad UTF-8 too
            raise ValueError(f"{path}: malformed input: {exc}") from None


def _resolve_meta(spec: str, space: PolySpace, field: PrimeField):
    if spec == "disc":
        return discriminant(field)
    if spec.startswith("coord:"):
        return coordinate_meta(space, field, int(spec.split(":", 1)[1]))
    if spec.startswith(("partials-minor:", "shifted-minor:")):
        method = spec.split("-", 1)[0]
        kv = _parse_kv(spec, *(("k", "l", "r") if method == "shifted" else ("k", "r")))
        rms = RankMethodSpec(
            method=method,
            k=kv["k"],
            shift=kv["l"] if method == "shifted" else 0,
            minor=MinorSelection(kind="leading", size=kv["r"] + 1),
        )
        return MinorMeta(rms, space, field)
    if spec.endswith(".json"):
        return _load_json(spec, lambda data: _meta_from_json(data, space, field), field.p)
    raise ValueError(f"unknown meta spec {spec!r}")


def _meta_from_json(data, space: PolySpace, field: PrimeField):
    if "method" in data:
        return MinorMeta(RankMethodSpec.from_json(data), space, field)
    if "gates" in data:
        return CircuitMeta(space, Circuit.from_json(data))
    raise ValueError("missing key 'method' (a rank spec) or 'gates' (a circuit)")


def _resolve_family(spec: str, space: PolySpace, field: PrimeField) -> FamilyDescriptor:
    if spec == "squares":
        return FamilyDescriptor("squares", space, field)
    if spec == "full":
        return FamilyDescriptor("full-space", space, field)
    if spec.startswith("detproj:"):
        kv = _parse_kv(spec, "n")
        return FamilyDescriptor("det-projection", space, field, n=kv["n"])
    if spec.startswith("sps:"):
        kv = _parse_kv(spec, "t")
        return FamilyDescriptor("sps", space, field, top_fanin=kv["t"])
    if spec.startswith("sparse:"):
        kv = _parse_kv(spec, "s")
        return FamilyDescriptor("sparse", space, field, sparsity=kv["s"])
    if spec.endswith(".json"):
        return _load_json(spec, FamilyDescriptor.from_json, field.p)
    raise ValueError(f"unknown family spec {spec!r}")


def _run_pit(plan: ExperimentPlan) -> Report:
    path = plan.input("circuit")
    circuit = _load_json(path, Circuit.from_json, plan.field)
    with _about(path):
        verdict = identity_test(circuit, **plan.proof_mode)
    code = 1 if verdict.outcome == "proven-nonzero" else 0
    return {"verdict": verdict.to_json()}, code, {"points_evaluated": verdict.points_evaluated}


def _run_hit_check(plan: ExperimentPlan) -> Report:
    field = PrimeField(plan.field)
    space = _parse_space(plan.input("space"))
    T = _resolve_meta(plan.input("meta"), space, field)
    desc = _resolve_family(plan.input("family"), space, field)
    report = succinct_hitting_check(desc, T, **plan.proof_mode)
    code = 1 if report.outcome == "witness" else 0
    return {"hit_report": report.to_json()}, code, {"points_evaluated": report.points_evaluated}


def _run_audit(plan: ExperimentPlan) -> Report:
    field = PrimeField(plan.field)
    space = _parse_space(plan.input("space"))
    T = _resolve_meta(plan.input("meta"), space, field)
    desc = _resolve_family(plan.input("family"), space, field)
    hard = _load_json(plan.input("hard"), SparsePoly.from_json, plan.field, space)
    report = natural_proof_audit(T, desc, hard, **plan.proof_mode)
    code = 1 if report.classification == "refuted" else 0
    counters = {"points_evaluated": report.evidence.points_evaluated}
    return {"audit": report.to_json()}, code, counters


def _run_rank(plan: ExperimentPlan) -> Report:
    path = plan.input("poly")
    poly = _load_json(path, SparsePoly.from_json, plan.field)
    k = plan.input("k")
    shift = plan.input("shift")
    if plan.input("method") == "partials" and shift:
        raise ValueError("plain partials carries no shift")
    with _about(path):
        matrix = partials_matrix(poly, k, shift)
    rank, rows_eliminated = rank_mod_p(matrix)
    result = {
        "rank": rank,
        "shape": list(matrix.shape),
        "method": plan.input("method"),
        "k": k,
        "shift": shift,
    }
    if plan.input("include_matrix"):
        result["matrix"] = [list(row) for row in matrix.entries]
    return result, 0, {"rows_eliminated": rows_eliminated}


def _run_gen(plan: ExperimentPlan) -> Report:
    """Seed-length accounting of the determinant generator, which is the
    homogeneous det-projection family on n^2 variables."""
    field = PrimeField(plan.field)
    sizes = [int(x) for x in str(plan.input("n")).split(",")]
    expand_max = plan.input("expand_max")
    rows = []
    for n in sizes:
        if not 1 <= n <= 6:
            raise ValueError("determinant generator supported for 1 <= n <= 6")
        desc = FamilyDescriptor("det-projection", PolySpace(n * n, n, True), field, n=n)
        row: dict = {"n": n, "seed_length": len(desc.param_ranges()),
                     "dimension": desc.space.dimension}
        if n <= expand_max:
            if desc.space.dimension > DEFAULT_TERM_CAP:
                raise TermCapExceeded(
                    f"cannot expand det_{n}: its space has {desc.space.dimension} "
                    f"monomials, more than the term cap of {DEFAULT_TERM_CAP}"
                )
            member = sample_family_with_params(desc, plan.seed)[1]
            row["sample_nonzero_coords"] = len(member) - member.count(0)
        rows.append(row)
    return {"generators": rows}, 0, {}


def _run_ips_verify(plan: ExperimentPlan) -> Report:
    field = PrimeField(plan.field)
    if plan.input("cnf") is not None:
        system_path = plan.input("cnf")
        system = _load_cnf(system_path, field)[1]
    else:
        system_path = plan.input("system")
        system = _load_json(system_path, PolynomialSystem.from_json, plan.field)
    cert = _load_json(plan.input("cert"), Circuit.from_json)
    with _about(system_path, plan.input("cert")):
        report = verify_certificate(system, cert, **plan.proof_mode)
    counters = {"points_evaluated": getattr(report.relation_verdict, "points_evaluated", 0)}
    return {"verification": report.to_json()}, 0 if report.accepted else 1, counters


def _run_ips_from_cnf(plan: ExperimentPlan) -> Report:
    cnf, system = _load_cnf(plan.input("cnf"), PrimeField(plan.field))
    doc = system.to_json()
    if plan.input("system_out"):
        with open(plan.input("system_out"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    return {
        "system": doc,
        "num_vars": cnf.num_vars,
        "num_clauses": len(cnf.clauses),
        "num_members": len(system.members),
    }, 0, {}


_RUNNERS = {
    "pit": _run_pit,
    "hit-check": _run_hit_check,
    "audit": _run_audit,
    "rank": _run_rank,
    "gen": _run_gen,
    "ips-verify": _run_ips_verify,
    "ips-from-cnf": _run_ips_from_cnf,
}


def execute_plan(plan: ExperimentPlan) -> Report:
    """(body, exit code, header counters) of the plan's report."""
    result, code, counters = _RUNNERS[plan.command](plan)
    body = {"plan": plan.to_json(), "version": __version__, "result": result}
    return body, code, counters


def render_report(
    body: dict, wall_clock_ms: float, pretty: bool, counters: Mapping[str, int]
) -> str:
    header = {"wall_clock_ms": round(wall_clock_ms, 3), **counters}
    doc = {"header": header, "body": body}
    if pretty:
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    start = time.perf_counter()
    try:
        plan = parse_plan(argv)
        body, code, counters = execute_plan(plan)
        wall_ms = (time.perf_counter() - start) * 1000.0
        text = render_report(body, wall_ms, plan.pretty, counters)
        if plan.out:
            # written first, so that a failure leaves stdout empty
            with open(plan.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except SystemExit as exc:
        # argparse usage failures (including --help, which exits 0)
        return int(exc.code or 0)
    except (NplError, ValueError, KeyError, OSError, OverflowError) as exc:
        print(f"npl: error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"npl: internal error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("npl: error: out of memory", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
