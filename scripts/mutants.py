#!/usr/bin/env python3
"""Mutation runner: tier-1 must fail whenever a proof-bearing line is broken.

Each mutant replaces one exact text of a module of ``src/npl`` by another.
For each mutant the runner copies ``src/npl`` into a temporary directory,
applies the mutant to the copy (the checkout is never edited) and runs
tier-1 with ``-x`` against it, writing no pytest cache or bytecode.  A
mutant is killed when tier-1 fails; the runner names the first failing test
and checks it against the one listed.  An equivalent mutant cannot change
any result; it carries its proof instead of a test and must survive.

    python3 scripts/mutants.py    # every mutant, about 20 s each

Prints one table row per mutant and exits 0 when every mutant is killed by
its listed test or, if equivalent, survives.  A tier-1 run past TIMEOUT
seconds is reported as a hang, which names no test and so fails the run.
The tests that run a script under ``scripts/`` in a subprocess still import
the checkout's ``src``.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 600


class Mutant(NamedTuple):
    name: str
    path: str  # under src/npl
    old: str  # occurs exactly once in src/npl
    new: str
    killed_by: Optional[str]  # the first test tier-1 fails, in collection order
    equivalent: Optional[str] = None  # why no test can kill it


SLOT_WIDTH = "return -(-(2 * p.bit_length() + n_rows.bit_length() + 1) // 8) * 8"

MUTANTS = [
    Mutant("slot-one-byte-narrower", "meta.py", SLOT_WIDTH, SLOT_WIDTH + " - 8",
           "tests/test_meta.py::TestPartialsMatrix::test_rank_transposition_exhaustive_small"),
    Mutant("slot-one-bit-narrower", "meta.py", SLOT_WIDTH,
           "return -(-(2 * p.bit_length() + n_rows.bit_length()) // 8) * 8", None,
           "a slot never exceeds (p-1) + (n_rows-1)(p-1)^2 <= n_rows (p-1)^2, "
           "which is below 2^(2 bitlen(p) + bitlen(n_rows)), and rounding up to "
           "whole bytes only widens the slot"),
    Mutant("slot-without-row-term", "meta.py", SLOT_WIDTH,
           "return -(-(2 * p.bit_length() + 1) // 8) * 8",
           "tests/test_meta.py::TestRankFactsAtLargePrimes::"
           "test_invertible_change_of_variables_keeps_ranks"),
    Mutant("unreduced-pivot-row", "meta.py",
           "pivot = pivot << w | (r >> j * w & mask) % p",
           "pivot = pivot << w | (r >> j * w & mask)",
           "tests/test_acceptance.py::test_criterion_03_rank_method_shape"),
    Mutant("shifted-rank-drops-a-basis-row", "meta.py",
           "final, w = matrix._rows(sorted(pivots))",
           "final, w = matrix._rows(sorted(pivots)[1:])",
           "tests/test_cli.py::TestReports::test_rank_counts_rows_eliminated_in_header"),
    Mutant("entries-scaled-by-t-factorial", "meta.py",
           "scale = [pow(prod(map(fact.__getitem__, t)), -1, p)",
           "scale = [pow(prod(map(fact.__getitem__, t)), 1, p)",
           "tests/test_golden.py::test_golden_body"),
    Mutant("g-without-m-factorial", "meta.py",
           "g = {_pack(e, w): c * prod(map(fact.__getitem__, e)) % p",
           "g = {_pack(e, w): c % p", "tests/test_acceptance.py::test_criterion_03_rank_method_shape"),
    Mutant("rank-in-the-wide-orientation", "meta.py",
           "if not matrix.shift and len(tails) > len(derivs):",
           "if not matrix.shift and len(tails) < len(derivs):",
           "tests/test_cli.py::TestReports::test_rank_counts_rows_eliminated_in_header"),
    Mutant("minor-rows-skip-the-rule", "meta.py", 'tuples=("rows", "cols")', 'tuples=("cols",)',
           "tests/test_cli.py::TestExitCodes::test_malformed_inputs_exit_two"),
    Mutant("minor-size-and-seed-skip-the-rule", "meta.py",
           '_int_fields(self, "size", optional=("seed",), ', "_int_fields(self, ",
           "tests/test_cli.py::TestExitCodes::test_malformed_inputs_exit_two"),
    Mutant("rank-spec-skips-the-rule", "meta.py", '_int_fields(self, "k", "shift")', "pass",
           "tests/test_meta.py::TestMinorMeta::test_spec_json_round_trip"),
    Mutant("sz-warning-one-short", "pit.py", "if p <= 2 * deg:", "if p < 2 * deg:",
           "tests/test_pit.py::TestSchwartzZippel::test_degree_one_over_f2_warns"),
    Mutant("pit-witness-not-reevaluated", "pit.py", "if not value:", "if False:",
           "tests/test_pit.py::TestExhaustiveEngine::"
           "test_witness_failing_reevaluation_is_an_internal_error"),
    Mutant("pit-lower-set-loses-top-layer", "pit.py",
           "_lower_set(sizes, circuit.formal_degree)",
           "_lower_set(sizes, circuit.formal_degree - 1)",
           "tests/test_acceptance.py::test_criterion_04_pit_cross_validation"),
    Mutant("hit-slot-grid-one-short", "pit.py", "min(r, T.degree_bound * c + 1)",
           "min(r, T.degree_bound * c)",
           "tests/test_circuits.py::TestFamilies::test_exhaustive_walk_covers_grid"),
    Mutant("hit-degree-check-removed", "pit.py", "elif sizes != ranges or total < full:",
           "elif False:",
           "tests/test_circuits.py::TestFamilies::test_exhaustive_walk_covers_grid"),
    Mutant("hit-witness-not-rebuilt", "pit.py",
           "if again != cv or T.eval_at(again) != witness_value:", "if False:",
           "tests/test_pit.py::TestHittingCheck::test_witness_that_does_not_rebuild_raises"),
    Mutant("scan-stops-at-witness-under-every", "pit.py", "if not every:", "if True:",
           "tests/test_golden.py::test_golden_body"),
    Mutant("scan-keeps-last-witness", "pit.py", "elif witness is None:", "else:",
           "tests/test_golden.py::test_golden_body"),
    Mutant("degeneracy-probe-skipped", "pit.py",
           "degenerate = _scan(T.eval_at, probe)[0] is None", "degenerate = False",
           "tests/test_pit.py::TestGenerator::test_degenerate_meta_flagged"),
    Mutant("walk-total-one-short", "pit.py", "x, left = [0] * len(sizes), total",
           "x, left = [0] * len(sizes), total - 1",
           "tests/test_acceptance.py::test_criterion_04_pit_cross_validation"),
    Mutant("walk-slot-one-short", "pit.py", "x[i] + 1 < sizes[i]", "x[i] + 2 < sizes[i]",
           "tests/test_acceptance.py::test_criterion_04_pit_cross_validation"),
    Mutant("repeated-exponents-overwrite", "algebra.py",
           "summed[e] = get(e, 0) + (c if type(c) is int else _json_int(c))",
           "summed[e] = (c if type(c) is int else _json_int(c))",
           "tests/test_algebra.py::TestSerialization::test_constructor_adds_up_repeated_exponents"),
    Mutant("coefficient-not-an-integer", "algebra.py",
           "(c if type(c) is int else _json_int(c))", "c",
           "tests/test_algebra.py::TestSerialization::test_load_refuses_what_is_not_an_integer"),
    Mutant("constant-skips-the-rule", "algebra.py", "c = _json_int(c) % field.p",
           "c %= field.p",
           "tests/test_algebra.py::TestSerialization::test_load_refuses_what_is_not_an_integer"),
    Mutant("prime-field-skips-the-rule", "algebra.py", '_int_fields(self, "p")', "pass",
           "tests/test_algebra.py::TestPolySpace::test_json_round_trip"),
    Mutant("space-skips-the-rule", "algebra.py", '_int_fields(self, "v", "d")', "pass",
           "tests/test_algebra.py::TestPolySpace::test_json_round_trip"),
    Mutant("homogeneous-not-held-to-bool", "algebra.py",
           "if type(self.homogeneous) is not bool:", "if False:",
           "tests/test_algebra.py::TestPolySpace::test_json_round_trip"),
    Mutant("operand-type-unchecked", "circuits.py",
           "len(g) == 3 and type(g[1]) is int and type(g[2]) is int", "len(g) == 3",
           "tests/test_circuits.py::TestCircuitBasics::test_validation"),
    Mutant("sps-degrees-truncated", "circuits.py", ', tuples=("product_degrees",))',
           '); object.__setattr__(self, "product_degrees", self.product_degrees and '
           'tuple(int(x) for x in self.product_degrees))',
           "tests/test_circuits.py::TestFamilies::test_descriptor_json_round_trip"),
    Mutant("family-scalars-skip-the-rule", "circuits.py",
           '_int_fields(self, "n", optional=("top_fanin", "sparsity"), ', "_int_fields(self, ",
           "tests/test_circuits.py::TestFamilies::test_descriptor_json_round_trip"),
    Mutant("add-degree-as-minimum", "circuits.py",
           "degs.append(max(degs[g[1]], degs[g[2]]))",
           "degs.append(min(degs[g[1]], degs[g[2]]))",
           "tests/test_acceptance.py::test_criterion_04_pit_cross_validation"),
    Mutant("squares-total-degree-under", "circuits.py",
           "(2,) * sp.v, 2, cls._squares)", "(2,) * sp.v, 1, cls._squares)",
           "tests/test_acceptance.py::test_criterion_08_toy_equivalence"),
    Mutant("det-projection-total-degree-under", "circuits.py",
           "self.n, cls._det_projection)", "self.n - 1, cls._det_projection)",
           "tests/test_circuits.py::TestParamDegree::test_sound_and_tight"),
    Mutant("sps-total-degree-under", "circuits.py",
           "max(degs, default=0), cls._sps)", "max(degs, default=0) - 1, cls._sps)",
           "tests/test_circuits.py::TestParamDegree::test_sound_and_tight"),
    Mutant("cofactor-sign-dropped", "circuits.py",
           "sign = -1 if (s >> j).bit_count() & 1 else 1", "sign = 1",
           "tests/test_circuits.py::TestDeterminant::test_generic_2x2"),
    Mutant("affine-constant-dropped", "circuits.py",
           "sign * params[i + v] if width > v else 0", "0",
           "tests/test_circuits.py::TestDeterminant::test_diagonal_and_wheel"),
    Mutant("successor-column-of-another-variable", "algebra.py",
           "for k in low] for u in units]", "for k in low] for u in units[::-1]]",
           "tests/test_algebra.py::TestProductTables::test_successors_against_rank"),
    Mutant("unrank-skips-by-a-short-count", "algebra.py",
           "r >= (held := _num_monomials(v - i, rem - 1))",
           "r >= (held := _num_monomials(v - i - 1, rem - 1))",
           "tests/test_acceptance.py::test_criterion_01_monomial_indexing"),
    Mutant("product-width-one-degree-short", "algebra.py",
           "w = _width(self.degree + other.degree)", "w = _width(self.degree + other.degree - 1)",
           "tests/test_algebra.py::TestPackedCoreAgainstSympy::"
           "test_products_across_the_width_boundary"),
    Mutant("at-most-rank-one-block-short", "algebra.py",
           "r += self.dimension - _num_monomials(self.v + 1, deg)",
           "r += self.dimension - _num_monomials(self.v + 1, deg + 1)",
           "tests/test_acceptance.py::test_criterion_01_monomial_indexing"),
    Mutant("table-cap-dropped", "algebra.py", " or self.d * top > _TABLE_CAP:", ":",
           "tests/test_algebra.py::TestProductTables::"
           "test_tables_belong_to_the_instance_and_are_capped"),
    Mutant("staged-evaluator-restarts-late", "circuits.py", "for s in range(j, n):",
           "for s in range(j + 1, n):",
           "tests/test_acceptance.py::test_criterion_04_pit_cross_validation"),
    Mutant("ips-accepts-c0-two", "ips.py", "if self.value_at_zero != 1:",
           "if self.value_at_zero not in (1, 2):",
           "tests/test_acceptance.py::test_criterion_09_ips_verification"),
    Mutant("ips-grades-every-acceptance-exact", "ips.py",
           'return "exact" if self.relation_verdict.outcome == PROVEN_ZERO else "randomized"',
           'return "exact"', "tests/test_golden.py::test_golden_body"),
    Mutant("system-count-skips-the-rule", "ips.py", '_int_fields(self, "n")', "pass",
           "tests/test_ips.py::TestTranslation::test_system_json_round_trip"),
    Mutant("negative-variable-count-accepted", "ips.py", "if self.n < 0:", "if False:",
           "tests/test_cli.py::TestExitCodes::test_family_and_system_fields_are_checked"),
    Mutant("provenance-type-unchecked", "ips.py",
           "if not isinstance(self.provenance, str):", "if False:",
           "tests/test_cli.py::TestExitCodes::test_family_and_system_fields_are_checked"),
    Mutant("labels-type-unchecked", "ips.py",
           "if type(self.labels) not in (list, tuple) or not {*map(type, self.labels)} <= {str}:",
           "if False:",
           "tests/test_cli.py::TestExitCodes::test_family_and_system_fields_are_checked"),
    Mutant("non-object-root-parsed", "cli.py", "if type(data) is not dict:", "if False:",
           "tests/test_cli.py::TestExitCodes::test_malformed_inputs_exit_two"),
]


def first_failure(stdout: str) -> Optional[str]:
    """The id of the first test pytest's short summary lists as failed, its
    path from the root of the repository."""
    for line in stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            path, sep, rest = line.split()[1].partition("::")
            return path[path.rindex("tests/"):] + sep + rest
    return None


def run(mutant: Mutant) -> Tuple[str, Optional[str]]:
    """('killed', 'hang' or 'survived'; the first failing test)."""
    with tempfile.TemporaryDirectory(prefix="npl-mutant-") as tmp:
        copy = Path(tmp) / "src" / "npl"
        shutil.copytree(ROOT / "src" / "npl", copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = copy / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: old text not found once in {mutant.path}")
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy.parent), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--rootdir", str(ROOT), "-c", str(ROOT / "pyproject.toml"),
               str(ROOT / "tests")]
        try:
            proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "hang", None
    if proc.returncode == 0:
        return "survived", None
    return "killed", first_failure(proc.stdout) or f"pytest exit {proc.returncode}"


def main() -> int:
    print("| mutant | file | old → new | result | first failing test |")
    print("|---|---|---|---|---|")
    ok = True
    for m in MUTANTS:
        result, test = run(m)
        if m.equivalent is not None:
            good = result == "survived"
            note = f"equivalent: {m.equivalent}"
        else:
            good = result == "killed" and test.startswith(m.killed_by)
            note = test or "-"
        ok &= good
        change = f"`{m.old}` → `{m.new}`".replace("|", "\\|")
        print(f"| {m.name} | {m.path} | {change} | {result}{'' if good else ' (UNEXPECTED)'} "
              f"| {note} |", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
