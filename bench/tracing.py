"""Span tracing of npl's layers, installed from outside the program.

``install`` wraps every public function and method of the six modules (and
the CLI's file loader) in place, so calls between modules go through the
wrappers too.  Each call is a span with a name, start, end and parent; a
module's self time is its spans' duration minus the time of the spans they
enclose.  Spans of the first round are kept in compact arrays and written
out at the end of the run; the per-layer totals accumulate over all rounds.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional

MODULES = ("algebra", "circuits", "meta", "pit", "ips", "cli")

# operator methods of SparsePoly that do arithmetic; other dunders are not traced
POLY_DUNDERS = ("__init__", "__add__", "__sub__", "__neg__", "__mul__",
                "__rmul__", "__pow__", "__eq__")

# outermost time in these spans, by metric; a nested call of the same kind
# (Circuit.from_json inside PolynomialSystem.from_json) is not counted twice
TIMED = {
    "cli.parse_ms": ("cli.parse_plan",),
    "cli.load_ms": ("cli._load_json", "algebra.SparsePoly.from_json",
                    "circuits.Circuit.from_json", "circuits.FamilyDescriptor.from_json",
                    "meta.RankMethodSpec.from_json", "ips.PolynomialSystem.from_json",
                    "ips.GeometricCertificate.from_json"),
    "cli.render_ms": ("cli.render_report",),
    "algebra.mul_ms": ("algebra.SparsePoly.mul",),
    "algebra.coeff_vector_ms": ("algebra.SparsePoly.coeff_vector",),
    "circuits.member_ms": ("circuits.FamilyDescriptor.member_from_params",),
    "circuits.validate_ms": ("circuits.validate_member",),
    "circuits.det_projection_ms": ("circuits.det_projection",),
    "circuits.sps_build_ms": ("circuits.sps_build",),
    "circuits.evaluate_ms": ("circuits.Circuit.evaluate",),
    "meta.build_ms": ("meta.partials_matrix", "meta.shifted_partials_matrix"),
    "meta.rank_ms": ("meta.matrix_rank",),
    "meta.minor_eval_ms": ("meta.MinorMeta.eval_at",),
    "meta.det_ms": ("meta.matrix_det",),
    "pit.grid_ms": ("pit.pit_exhaustive",),
    "pit.sz_ms": ("pit.pit_schwartz_zippel",),
    "ips.parse_ms": ("ips.parse_dimacs",),
    "ips.translate_ms": ("ips.cnf_to_system",),
    "ips.compose_ms": ("ips.compose_system",),
    "ips.verify_ms": ("ips.verify_certificate",),
}

# per-layer metrics in the order BENCHMARK.json lists them
LAYER_METRICS = (
    "cli.import_ms", "cli.parse_ms", "cli.load_ms", "cli.render_ms",
    "algebra.mul_calls", "algebra.mul_ms", "algebra.mul_terms_out",
    "algebra.poly_new_calls", "algebra.coeff_vector_ms",
    "algebra.index_rank_calls", "algebra.index_unrank_calls", "algebra.self_ms",
    "circuits.member_calls", "circuits.member_ms", "circuits.validate_ms",
    "circuits.validate_share", "circuits.det_projection_ms", "circuits.sps_build_ms",
    "circuits.evaluate_calls", "circuits.evaluate_gates", "circuits.evaluate_ms",
    "circuits.self_ms",
    "meta.build_ms", "meta.build_cells", "meta.symbolic_cells", "meta.rank_ms",
    "meta.rank_cells", "meta.rank_pivots", "meta.minor_eval_calls",
    "meta.minor_eval_ms", "meta.det_ms", "meta.self_ms",
    "pit.grid_points", "pit.grid_gate_evals", "pit.grid_ms", "pit.grid_needed_ratio",
    "pit.walk_members", "pit.walk_ms", "pit.sampled_members", "pit.hit_check_ms",
    "pit.sz_trials", "pit.sz_ms", "pit.self_ms",
    "ips.parse_ms", "ips.translate_ms", "ips.compose_ms", "ips.composed_gates",
    "ips.verify_ms", "ips.self_ms",
)


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.recording = True
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: List[list] = []  # [span index, time of enclosed spans]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.timed_s: Dict[str, float] = defaultdict(float)
        self.depth: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.root_ids: Dict[str, int] = {}

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _open(self, nid: int) -> list:
        """Push a frame [span index or -1, time of enclosed spans]."""
        idx = -1
        if self.recording:
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(self.stack[-1][0] if self.stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        frame = [idx, 0.0]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, t0: float, t1: float) -> None:
        self.stack.pop()
        if self.stack:
            self.stack[-1][1] += t1 - t0
        if frame[0] >= 0:
            self.span_start[frame[0]] = t0
            self.span_end[frame[0]] = t1

    def wrap(self, fn: Callable, name: str, hook: Optional[Callable] = None) -> Callable:
        nid = self.name_id(name)
        module = name.split(".", 1)[0]
        metric = next((m for m, names in TIMED.items() if name in names), None)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open(nid)
            if metric:
                tracer.depth[metric] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._close(frame, t0, t1)
                d = t1 - t0
                tracer.self_s[module] += d - frame[1]
                if metric:
                    tracer.depth[metric] -= 1
                    if not tracer.depth[metric]:
                        tracer.timed_s[metric] += d
            if hook is not None:
                hook(tracer.counts, args, kwargs, result, d)
            return result

        return traced

    @contextlib.contextmanager
    def root(self, label: str):
        """A span enclosing one report; it belongs to no layer."""
        if label not in self.root_ids:
            self.root_ids[label] = self.name_id(label)
        frame = self._open(self.root_ids[label])
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, t0, time.perf_counter())

    def layer_metrics(self, rounds: int, import_ms: float) -> Dict[str, float]:
        """Per-round totals; counts repeat exactly from round to round."""
        c = self.counts
        ms = {k: v * 1e3 / rounds for k, v in self.timed_s.items()}
        out: Dict[str, float] = {"cli.import_ms": import_ms}
        for m in LAYER_METRICS:
            if m in TIMED:
                out[m] = ms.get(m, 0.0)
            elif m.endswith(".self_ms"):
                out[m] = self.self_s.get(m.split(".")[0], 0.0) * 1e3 / rounds
            elif m in c:
                out[m] = c[m] / rounds
        out["pit.walk_ms"] = c["pit.walk_s"] * 1e3 / rounds
        out["pit.hit_check_ms"] = c["pit.hit_check_s"] * 1e3 / rounds
        member = out["circuits.member_ms"]
        out["circuits.validate_share"] = out["circuits.validate_ms"] / member if member else 0.0
        points = c["pit.grid_points"]
        out["pit.grid_needed_ratio"] = c["pit.grid_needed"] / points if points else 0.0
        return {m: out.get(m, 0.0) for m in LAYER_METRICS}

    def dump(self, path: str, meta: Dict) -> None:
        base = self.span_start[0] if len(self.span_start) else 0.0
        us = lambda t: round((t - base) * 1e6, 1)  # noqa: E731
        doc = dict(meta)
        doc["names"] = self.names
        doc["spans"] = [
            [self.span_name[i], self.span_parent[i], us(self.span_start[i]), us(self.span_end[i])]
            for i in range(len(self.span_name))
        ]
        doc["span_fields"] = ["name", "parent", "start_us", "end_us"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# -- counts taken at the layer boundaries ---------------------------------------------


def _count(name: str):
    def hook(c, args, kwargs, result, d):
        c[name] += 1
    return hook


def _mul(c, args, kwargs, result, d):
    c["algebra.mul_calls"] += 1
    c["algebra.mul_terms_out"] += len(result.terms)


def _evaluate(c, args, kwargs, result, d):
    c["circuits.evaluate_calls"] += 1
    c["circuits.evaluate_gates"] += len(args[0].gates)


def _build(c, args, kwargs, result, d):
    rows, cols = result.shape
    c["meta.build_cells"] += rows * cols
    if result.symbolic is not None:
        c["meta.symbolic_cells"] += rows * cols


def _rank(c, args, kwargs, result, d):
    rows = args[0]
    c["meta.rank_cells"] += len(rows) * (len(rows[0]) if len(rows) else 0)
    c["meta.rank_pivots"] += result


def _grid(c, args, kwargs, result, d):
    circuit = args[0]
    points = circuit.field.p ** circuit.v
    c["pit.grid_points"] += points
    c["pit.grid_gate_evals"] += points * len(circuit.gates)
    c["pit.grid_needed"] += (circuit.formal_degree + 1) ** circuit.v


def _hit_check(c, args, kwargs, result, d):
    if result.mode == "exhaustive":
        c["pit.walk_members"] += result.examined
        c["pit.walk_s"] += d
    else:
        c["pit.sampled_members"] += result.examined
        c["pit.hit_check_s"] += d


def _sz(c, args, kwargs, result, d):
    c["pit.sz_trials"] += result.trials


def _compose(c, args, kwargs, result, d):
    c["ips.composed_gates"] += len(result.gates)


HOOKS = {
    "algebra.SparsePoly.__init__": _count("algebra.poly_new_calls"),
    "algebra.SparsePoly.mul": _mul,
    "algebra.MonomialIndex.rank": _count("algebra.index_rank_calls"),
    "algebra.MonomialIndex.unrank": _count("algebra.index_unrank_calls"),
    "circuits.FamilyDescriptor.member_from_params": _count("circuits.member_calls"),
    "circuits.Circuit.evaluate": _evaluate,
    "meta.partials_matrix": _build,
    "meta.shifted_partials_matrix": _build,
    "meta.matrix_rank": _rank,
    "meta.MinorMeta.eval_at": _count("meta.minor_eval_calls"),
    "pit.pit_exhaustive": _grid,
    "pit.succinct_hitting_check": _hit_check,
    "pit.pit_schwartz_zippel": _sz,
    "ips.compose_system": _compose,
}


def _targets(mod):
    """(owner, attribute, qualified name, function, kind) for each public
    function and method defined in the module."""
    short = mod.__name__.rsplit(".", 1)[1]
    for attr, obj in list(vars(mod).items()):
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj) and (not attr.startswith("_") or attr == "_load_json"):
            yield mod, attr, f"{short}.{attr}", obj, None
        elif inspect.isclass(obj):
            for name, member in list(vars(obj).items()):
                public = not name.startswith("_") or (
                    obj.__name__ == "SparsePoly" and name in POLY_DUNDERS)
                if not public:
                    continue
                qual = f"{short}.{obj.__name__}.{name}"
                if isinstance(member, (classmethod, staticmethod)):
                    yield obj, name, qual, member.__func__, type(member)
                elif inspect.isfunction(member):
                    yield obj, name, qual, member, None


def install() -> Tracer:
    """Wrap npl's layers in place; returns the tracer that records them."""
    tracer = Tracer()
    mods = [importlib.import_module(f"npl.{m}") for m in MODULES]
    everywhere = [importlib.import_module("npl")] + mods
    for mod in mods:
        for owner, attr, qual, fn, kind in list(_targets(mod)):
            wrapped = tracer.wrap(fn, qual, HOOKS.get(qual))
            setattr(owner, attr, kind(wrapped) if kind else wrapped)
            if owner is mod:
                # modules that imported the function by name call their own binding
                for other in everywhere:
                    if vars(other).get(attr) is fn:
                        setattr(other, attr, wrapped)
    return tracer
