"""The experiment scripts of the README run with their README arguments, and
the benchmark's tracer names only functions npl defines."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# (script and README arguments, its final summary line)
SCRIPTS = [
    (["rank_profile.py", "--vars", "3", "--degree", "2", "--samples", "25"],
     "  dense    max  : [1, 3, 1]   within bound 0/25"),
    (["generator_accounting.py", "--max-n", "6", "--expand-max", "4"],
     "generic det_4 expands to 24 terms (expected 24): ok"),
    (["discriminant_audit.py", "--field", "7"],
     "full-space  -> refuted (witness params (0, 1, 0), value 1)"),
]


def test_readme_lists_these_commands():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for argv, _ in SCRIPTS:
        assert "python3 scripts/" + " ".join(argv) in readme


@pytest.mark.parametrize("argv, last_line", SCRIPTS, ids=[a[0] for a, _ in SCRIPTS])
def test_script_runs(argv, last_line):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == last_line


# names bench/tracing.py times or hooks that npl does not define; a tracer
# that names them records nothing for them, so mending it empties this set
STALE_TRACER_NAMES = {
    "algebra.MonomialIndex.rank",
    "algebra.MonomialIndex.unrank",
    "meta.shifted_partials_matrix",
    "ips.GeometricCertificate.from_json",
}


def test_tracer_names_resolve():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = set(tracing.HOOKS).union(*tracing.TIMED.values())
    unresolved = set()
    for name in names:
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"npl.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None:
            unresolved.add(name)
    assert "circuits.Circuit.evaluate" in names and "ips.compose_system" in names
    assert unresolved == STALE_TRACER_NAMES


def test_mutants_name_texts_of_the_source():
    # each mutant's old text occurs exactly once in src/npl, so a refactor
    # that moves a listed line must move its mutant; each names a test that
    # kills it or, equivalent, a proof instead
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in (ROOT / "src" / "npl").glob("*.py")}
    assert len(mutants.MUTANTS) == 50
    for m in mutants.MUTANTS:
        assert m.old != m.new and m.old in sources[m.path], m.name
        assert sum(text.count(m.old) for text in sources.values()) == 1, m.name
        assert (m.killed_by is None) != (m.equivalent is None), m.name
        if m.killed_by is not None:
            path, *names = m.killed_by.split("::")
            test_file = (ROOT / path).read_text(encoding="utf-8")
            assert all(f" {name}" in test_file for name in names), m.name
