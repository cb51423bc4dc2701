import ast
import copy
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from npl.algebra import PrimeField, SparsePoly, is_prime
from npl.circuits import CircuitBuilder, FamilyDescriptor
from npl.ips import Cnf, cnf_to_system
from npl.cli import DEFAULT_FIELD, build_parser, main, parse_plan
from npl.meta import discriminant

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

F7 = PrimeField(7)
F13 = PrimeField(13)


@pytest.fixture()
def workdir(tmp_path):
    b = CircuitBuilder(F13, 2)
    nonzero = b.build(b.add(b.mul(b.inp(0), b.inp(1)), b.inp(0)))
    (tmp_path / "circ.json").write_text(json.dumps(nonzero.to_json()))

    b = CircuitBuilder(F13, 2)
    zero = b.build(
        b.sub(b.add(b.inp(0), b.inp(1)), b.add(b.inp(1), b.inp(0)))
    )
    (tmp_path / "zero.json").write_text(json.dumps(zero.to_json()))

    poly = SparsePoly(F7, 2, {(2, 0): 3, (1, 1): 5, (0, 2): 2})
    (tmp_path / "poly7.json").write_text(json.dumps(poly.to_json()))

    xy = SparsePoly(F7, 2, {(1, 1): 1})
    (tmp_path / "xy7.json").write_text(json.dumps(xy.to_json()))

    (tmp_path / "phi.cnf").write_text("p cnf 1 2\n1 0\n-1 0\n")

    b = CircuitBuilder(F13, 3)
    cert = b.build(b.sub(b.sub(b.const(1), b.inp(0)), b.inp(1)))
    (tmp_path / "cert.json").write_text(json.dumps(cert.to_json()))

    system = cnf_to_system(Cnf(1, ((1,), (-1,))), F13)
    (tmp_path / "sys.json").write_text(json.dumps(system.to_json()))

    sat_system = cnf_to_system(Cnf(1, ((1,),)), F13)
    (tmp_path / "sat.json").write_text(json.dumps(sat_system.to_json()))
    b = CircuitBuilder(F13, 2)
    bad_cert = b.build(b.const(1))
    (tmp_path / "bad_cert.json").write_text(json.dumps(bad_cert.to_json()))
    return tmp_path


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPlanParsing:
    def test_pit_plan(self):
        plan = parse_plan(
            ["pit", "--circuit", "c.json", "--field", "13",
             "--trials", "25", "--seed", "7"]
        )
        assert plan.command == "pit"
        assert plan.field == 13
        assert plan.trials == 25
        assert plan.seed == 7
        assert plan.input("circuit") == "c.json"

    def test_hit_check_plan(self):
        plan = parse_plan(
            ["hit-check", "--meta", "disc", "--family", "squares",
             "--space", "2:2", "--exhaustive", "--field", "7"]
        )
        assert plan.command == "hit-check"
        assert plan.exhaustive is True
        assert plan.field == 7
        assert plan.input("meta") == "disc"
        assert plan.input("family") == "squares"

    def test_ips_verify_plan(self):
        plan = parse_plan(
            ["ips-verify", "--cnf", "phi.cnf", "--cert", "c.json",
             "--field", "101"]
        )
        assert plan.command == "ips-verify"
        assert plan.field == 101
        assert plan.input("cnf") == "phi.cnf"
        assert plan.input("cert") == "c.json"

    def test_default_field(self):
        plan = parse_plan(["gen", "--n", "2"])
        assert plan.field == DEFAULT_FIELD == 2**31 - 1

    def test_env_var_field(self, monkeypatch):
        monkeypatch.setenv("NPL_DEFAULT_FIELD", "7")
        plan = parse_plan(["gen", "--n", "2"])
        assert plan.field == 7
        plan = parse_plan(["gen", "--n", "2", "--field", "13"])
        assert plan.field == 13

    def test_composite_field_rejected(self):
        with pytest.raises(ValueError):
            parse_plan(["gen", "--n", "2", "--field", "9"])

    def test_strong_pseudoprime_field_rejected(self, tmp_path, capsys):
        # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin on the first
        # 12 prime bases; over it the product of its factors is zero
        psi12, psi13 = 318665857834031151167461, 3317044064679887385961981
        gates = [{"op": "const", "c": 399165290221}, {"op": "const", "c": 798330580441},
                 {"op": "mul", "a": 0, "b": 1}]
        for p in (psi12, psi13):
            path = tmp_path / f"psi{p}.json"
            path.write_text(json.dumps({"p": p, "v": 0, "gates": gates, "out": 2}))
            code, out, err = run_cli(capsys, "pit", "--exhaustive", "--field", p,
                                     "--circuit", path)
            assert (code, out) == (2, "")
            lines = err.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("npl: error: "), err

    def test_successive_plans_share_no_values(self):
        # the parser is built once per default field and reused
        assert build_parser(DEFAULT_FIELD) is build_parser(DEFAULT_FIELD)
        argvs = [
            ["pit", "--circuit", "a.json", "--field", "13", "--trials", "9",
             "--seed", "5", "--out", "r.json", "--pretty"],
            ["pit", "--circuit", "b.json", "--exhaustive", "--enum-budget", "77"],
            ["rank", "--poly", "f.json", "--k", "2", "--method", "shifted",
             "--shift", "1", "--include-matrix"],
            ["hit-check", "--meta", "disc", "--family", "full", "--space", "2:2"],
            ["rank", "--poly", "g.json", "--k", "1"],
            ["gen", "--n", "3"],
            ["pit", "--circuit", "a.json"],
        ]
        plans = [parse_plan(argv, env={}) for argv in argvs]
        a, b, rank1, hit, rank2, gen, a_again = plans
        assert (a.trials, a.seed, a.out, a.pretty, a.exhaustive) == (9, 5, "r.json", True, False)
        assert (b.trials, b.seed, b.out, b.pretty, b.field) == (25, 0, None, False, DEFAULT_FIELD)
        assert (b.exhaustive, b.enum_budget) == (True, 77)
        assert dict(rank1.inputs)["include_matrix"] is True
        assert dict(rank2.inputs) == {"poly": "g.json", "method": "partials", "k": 1,
                                      "shift": 0, "include_matrix": False}
        assert (hit.exhaustive, hit.enum_budget, hit.trials) == (False, 1_000_000, 25)
        assert dict(gen.inputs) == {"n": "3", "expand_max": 0}
        assert a_again == parse_plan(["pit", "--circuit", "a.json"], env={})
        assert (a_again.trials, a_again.seed, a_again.out, a_again.pretty) == (25, 0, None, False)

    def test_proof_flags_only_where_read(self, workdir, capsys):
        # --trials, --exhaustive and --enum-budget belong to the commands
        # that test for zero; the others reject them and echo null
        poly = workdir / "poly7.json"
        cnf = workdir / "phi.cnf"
        rejected = [
            ("rank", "--poly", poly, "--k", "1", "--field", "7",
             "--trials", "0", "--enum-budget", "-5"),
            ("rank", "--poly", poly, "--k", "1", "--field", "7", "--exhaustive"),
            ("gen", "--n", "2", "--trials", "3"),
            ("ips-from-cnf", "--cnf", cnf, "--field", "13", "--trials", "-1"),
        ]
        for argv in rejected:
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert "unrecognized arguments" in err
        for argv in (("rank", "--poly", poly, "--k", "1", "--field", "7", "--seed", "4"),
                     ("gen", "--n", "2", "--seed", "4"),
                     ("ips-from-cnf", "--cnf", cnf, "--field", "13", "--seed", "4")):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0, argv
            plan = json.loads(out)["body"]["plan"]
            assert plan["seed"] == 4
            assert plan["trials"] is plan["exhaustive"] is plan["enum_budget"] is None

    def test_parser_covers_all_commands(self):
        parser = build_parser(DEFAULT_FIELD)
        text = parser.format_help()
        for cmd in ("pit", "hit-check", "audit", "rank", "gen",
                    "ips-verify", "ips-from-cnf"):
            assert cmd in text


class TestExitCodes:
    def test_pit(self, workdir, capsys):
        code, out, _ = run_cli(
            capsys, "pit", "--circuit", workdir / "circ.json",
            "--field", "13", "--exhaustive",
        )
        assert code == 1
        assert json.loads(out)["body"]["result"]["verdict"]["outcome"] == \
            "proven-nonzero"
        code, out, _ = run_cli(
            capsys, "pit", "--circuit", workdir / "zero.json",
            "--field", "13", "--exhaustive",
        )
        assert code == 0
        assert json.loads(out)["body"]["result"]["verdict"]["outcome"] == \
            "proven-zero"

    def test_hit_check(self, workdir, capsys):
        code, out, _ = run_cli(
            capsys, "hit-check", "--meta", "disc", "--family", "squares",
            "--space", "2:2", "--field", "7", "--exhaustive",
        )
        assert code == 0
        body = json.loads(out)["body"]
        assert body["result"]["hit_report"]["outcome"] == "none-found"
        assert body["result"]["hit_report"]["exhausted"] is True
        code, out, _ = run_cli(
            capsys, "hit-check", "--meta", "disc", "--family", "full",
            "--space", "2:2", "--field", "7", "--exhaustive",
        )
        assert code == 1
        assert json.loads(out)["body"]["result"]["hit_report"]["outcome"] == \
            "witness"

    def test_audit(self, workdir, capsys):
        code, out, _ = run_cli(
            capsys, "audit", "--meta", "disc", "--family", "squares",
            "--space", "2:2", "--field", "7", "--hard", workdir / "xy7.json",
            "--exhaustive",
        )
        assert code == 0
        assert json.loads(out)["body"]["result"]["audit"]["classification"] == \
            "valid-separation-instance"
        code, out, _ = run_cli(
            capsys, "audit", "--meta", "disc", "--family", "full",
            "--space", "2:2", "--field", "7", "--hard", workdir / "xy7.json",
            "--exhaustive",
        )
        assert code == 1
        assert json.loads(out)["body"]["result"]["audit"]["classification"] == \
            "refuted"

    def test_rank_and_gen(self, workdir, capsys):
        code, out, _ = run_cli(
            capsys, "rank", "--poly", workdir / "poly7.json",
            "--method", "partials", "--k", "1", "--field", "7",
        )
        assert code == 0
        assert json.loads(out)["body"]["result"]["rank"] == 2
        # a shift on plain partials is refused, as it is in a rank-spec file
        code, out, err = run_cli(
            capsys, "rank", "--poly", workdir / "poly7.json",
            "--method", "partials", "--k", "1", "--shift", "2", "--field", "7",
        )
        assert (code, out) == (2, "")
        assert err == "npl: error: plain partials carries no shift\n"
        # the zero polynomial has no degree, and rank takes no space option
        zero = workdir / "zero7.json"
        zero.write_text(json.dumps(SparsePoly.zero(F7, 2).to_json()))
        code, out, err = run_cli(capsys, "rank", "--poly", zero, "--k", "1", "--field", "7")
        assert (code, out) == (2, "")
        assert err == f"npl: error: {zero}: the zero polynomial has no degree to fix its space\n"
        code, out, _ = run_cli(capsys, "gen", "--n", "2,3", "--field", "101")
        assert code == 0
        gens = json.loads(out)["body"]["result"]["generators"]
        assert [(g["seed_length"], g["dimension"]) for g in gens] == \
            [(16, 10), (81, 165)]
        # every size item must be an integer
        for sizes in (",,", "2,,3"):
            code, out, err = run_cli(capsys, "gen", "--n", sizes, "--field", "7")
            assert (code, out) == (2, "")
            assert err.startswith("npl: error: ") and err.count("\n") == 1
        # det_6 lives in 4496388 monomials, past the term cap: refused up front
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "gen", "--n", "6", "--expand-max", "6", "--field", "7")
        assert time.perf_counter() - start < 2
        assert (code, out) == (2, "")
        assert err == ("npl: error: cannot expand det_6: its space has 4496388 "
                       "monomials, more than the term cap of 1048576\n")

    def test_ips_verify(self, workdir, capsys):
        code, out, _ = run_cli(
            capsys, "ips-verify", "--cnf", workdir / "phi.cnf",
            "--cert", workdir / "cert.json", "--field", "13", "--exhaustive",
        )
        assert code == 0
        assert json.loads(out)["body"]["result"]["verification"]["accepted"]
        code, out, _ = run_cli(
            capsys, "ips-verify", "--system", workdir / "sat.json",
            "--cert", workdir / "bad_cert.json", "--field", "13",
            "--exhaustive",
        )
        assert code == 1
        doc = json.loads(out)["body"]["result"]["verification"]
        assert doc["accepted"] is False
        assert doc["failed_condition"] in (1, 2)

    def test_proof_budgets_below_one_blame_the_flag(self, workdir, capsys):
        # refused when the plan is parsed, before any file is read: the one
        # line names the flag, not an input
        missing = workdir / "missing.json"
        commands = [
            ("pit", "--circuit", missing, "--field", "13"),
            ("hit-check", "--meta", "disc", "--family", "squares", "--space", "2:2",
             "--field", "7", "--exhaustive"),
            ("audit", "--meta", "disc", "--family", "full", "--space", "2:2",
             "--field", "7", "--hard", missing),
            ("ips-verify", "--cnf", missing, "--cert", missing, "--field", "13"),
        ]
        for flag, value in (("--trials", "0"), ("--trials", "-3"),
                            ("--enum-budget", "0"), ("--enum-budget", "-5")):
            for argv in commands:
                code, out, err = run_cli(capsys, *argv, flag, value)
                assert (code, out) == (2, ""), argv
                assert err == f"npl: error: {flag} must be at least 1, got {value}\n"
        # one is the least budget of each
        code, _, _ = run_cli(capsys, "pit", "--circuit", workdir / "circ.json",
                             "--field", "13", "--trials", "1", "--enum-budget", "1")
        assert code == 2  # two inputs past a budget of one point
        code, _, _ = run_cli(capsys, "pit", "--circuit", workdir / "zero.json",
                             "--field", "13", "--trials", "1")
        assert code == 0

    def test_ips_from_cnf(self, workdir, capsys):
        out_path = workdir / "translated.json"
        code, out, _ = run_cli(
            capsys, "ips-from-cnf", "--cnf", workdir / "phi.cnf",
            "--field", "13", "--system-out", out_path,
        )
        assert code == 0
        saved = json.loads(out_path.read_text())
        assert saved["labels"] == ["clause:0", "clause:1", "axiom:x1"]
        assert saved["provenance"] == "cnf-derived"

    def test_malformed_inputs_exit_two(self, workdir, capsys):
        cases = [
            ("pit", "--circuit", workdir / "missing.json", "--field", "13"),
            ("pit", "--circuit", workdir / "circ.json", "--field", "7"),
            ("pit", "--circuit", workdir / "circ.json", "--field", "9"),
            ("hit-check", "--meta", "nope", "--family", "squares",
             "--space", "2:2", "--field", "7"),
            ("hit-check", "--meta", "disc", "--family", "nope",
             "--space", "2:2", "--field", "7"),
            ("hit-check", "--meta", "disc", "--family", "squares",
             "--space", "nonsense", "--field", "7"),
            ("rank", "--poly", workdir / "phi.cnf", "--method", "partials",
             "--k", "1", "--field", "7"),
            ("audit", "--meta", "disc", "--family", "full", "--space", "2:2",
             "--field", "7", "--hard", workdir / "xy7.json", "--trials", "0"),
            ("hit-check", "--meta", "disc", "--family", "squares",
             "--space", "2:2", "--field", "7", "--trials", "-3"),
        ]
        # valid JSON of the wrong shape
        malformed = {
            "list.json": [1, 2],
            "str.json": "abc",
            "gates.json": {"p": 13, "v": 1, "gates": 5, "out": 0},
            "terms.json": {"p": 7, "v": 2, "terms": 5},
            "exps.json": {"p": 7, "v": 2, "terms": [{"e": 3, "c": 1}]},
        }
        for name, doc in malformed.items():
            (workdir / name).write_text(json.dumps(doc))
        for name in ("list.json", "str.json", "gates.json"):
            cases.append(("pit", "--circuit", workdir / name, "--field", "13"))
        for name in ("terms.json", "exps.json"):
            cases.append(("rank", "--poly", workdir / name, "--k", "1", "--field", "7"))
        # nested too deeply for the JSON parser
        (workdir / "deep.json").write_text("[" * 100000 + "]" * 100000)
        cases.append(("pit", "--circuit", workdir / "deep.json", "--field", "13"))
        # minor fields of a meta file must be integers
        rank_spec = {"method": "partials", "k": 1, "shift": 0}
        for name, minor in (
            ("seed_str.json", {"kind": "random", "size": 1, "seed": "abc"}),
            ("seed_float.json", {"kind": "random", "size": 1, "seed": 1.5}),
            ("rows_bool.json", {"kind": "explicit", "size": 2,
                                "rows": [False, True], "cols": [0, 1]}),
            # and a minor may carry only the fields its kind reads
            ("leading_rows.json", {"kind": "leading", "size": 2, "rows": [0, 1]}),
            ("leading_cols.json", {"kind": "leading", "size": 2, "cols": [0, 1]}),
            ("leading_seed.json", {"kind": "leading", "size": 2, "seed": 3}),
            ("explicit_seed.json", {"kind": "explicit", "size": 1, "rows": [0],
                                    "cols": [0], "seed": 3}),
            ("random_rows.json", {"kind": "random", "size": 1, "seed": 3, "rows": [0]}),
            ("random_cols.json", {"kind": "random", "size": 1, "seed": 3, "cols": [0]}),
        ):
            (workdir / name).write_text(json.dumps({**rank_spec, "minor": minor}))
            cases.append(("hit-check", "--meta", workdir / name, "--family", "squares",
                          "--space", "2:2", "--field", "7", "--trials", "3"))
        bad = workdir / "list.json"
        cases += [
            ("audit", "--meta", "disc", "--family", "squares", "--space", "2:2",
             "--field", "7", "--hard", bad),
            ("hit-check", "--meta", "disc", "--family", bad, "--space", "2:2",
             "--field", "7"),
            ("ips-verify", "--cnf", workdir / "phi.cnf", "--cert", bad,
             "--field", "13"),
            ("ips-verify", "--system", bad, "--cert", workdir / "cert.json",
             "--field", "13"),
        ]
        for argv in cases:
            code, _, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert len(err.strip().splitlines()) == 1, (argv, err)
            assert "Traceback" not in err, argv

    def test_malformed_gates_outside_the_output_cone_exit_two(self, workdir, capsys):
        # construction checks every gate, so one the output never reads is
        # still an input error naming its file
        bad_gates = {
            "forward": {"op": "add", "a": 0, "b": 3},
            "input": {"op": "in", "i": 7},
            "op": {"op": "sub", "a": 0, "b": 0},
        }
        for kind, bad in bad_gates.items():
            # gate 1 is malformed; the output, gate 3, reads gates 0 and 2
            gates = [{"op": "in", "i": 0}, bad, {"op": "const", "c": 1},
                     {"op": "add", "a": 0, "b": 2}]
            circuit = workdir / f"dead_{kind}.json"
            circuit.write_text(json.dumps({"p": 13, "v": 2, "gates": gates, "out": 3}))
            cert = workdir / f"dead_{kind}_cert.json"
            cert.write_text(json.dumps({"p": 13, "v": 3, "gates": gates, "out": 3}))
            for argv, path in (
                (("pit", "--circuit", circuit, "--field", "13"), circuit),
                (("ips-verify", "--cnf", workdir / "phi.cnf", "--cert", cert,
                  "--field", "13"), cert),
            ):
                code, out, err = run_cli(capsys, *argv)
                assert code == 2 and out == "", argv
                assert err.startswith(f"npl: error: {path}: malformed input: gate 1: "), err
                assert err.count("\n") == 1, err

    def test_family_and_system_fields_are_checked(self, workdir, capsys):
        space = {"v": 2, "d": 2, "mode": "homogeneous"}
        cases = []
        for i, family in enumerate((
            {"class": "squares", "n": -1},
            {"class": "squares", "n": 3},
            {"class": "sparse", "sparsity": True},
            {"class": "sps", "top_fanin": 1, "product_degrees": ["2"]},
            {"class": "sps", "top_fanin": 1, "product_degrees": [2.9]},
            {"class": "sps", "top_fanin": 1.0},
            # fields another class reads
            {"class": "squares", "sparsity": 5, "top_fanin": 9, "product_degrees": [1]},
            {"class": "full-space", "top_fanin": 1},
            {"class": "sparse", "sparsity": 1, "product_degrees": [2]},
            {"class": "sps", "top_fanin": 1, "sparsity": 1},
        )):
            (workdir / f"fam{i}.json").write_text(
                json.dumps({**family, "p": 7, "space": space}))
            cases.append(("hit-check", "--meta", "disc", "--family",
                          workdir / f"fam{i}.json", "--space", "2:2", "--field", "7",
                          "--trials", "3"))
        system = json.loads((workdir / "sys.json").read_text())
        for i, change in enumerate((
            {"provenance": [1]},
            {"provenance": None},
            {"labels": [{}, 5]},
            {"labels": "ab"},
            {"labels": {"a": 1, "b": 2}},
        )):
            (workdir / f"sys{i}.json").write_text(json.dumps({**system, **change}))
            cases.append(("ips-verify", "--system", workdir / f"sys{i}.json",
                          "--cert", workdir / "cert.json", "--field", "13"))
        for argv in cases:
            code, _, err = run_cli(capsys, *argv)
            assert code == 2, argv
            lines = err.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("npl: error: "), (argv, err)

    def test_certificate_field_is_checked(self, workdir, capsys, monkeypatch):
        # a constant-3 certificate over F_7 against a system over F_13: refused,
        # not evaluated mod 7 into a condition-1 rejection
        monkeypatch.chdir(workdir)
        b = CircuitBuilder(F7, 3)
        (workdir / "c3.json").write_text(json.dumps(b.build(b.const(3)).to_json()))
        for mode in ("--exhaustive", "--trials=3"):
            code, out, err = run_cli(capsys, "ips-verify", "--cnf", "phi.cnf",
                                     "--cert", "c3.json", "--field", "13", mode)
            assert (code, out) == (2, "")
            assert err == ("npl: error: phi.cnf, c3.json: certificate and system "
                           "in different fields\n")

    def test_meta_and_family_fields_are_checked(self, workdir, capsys, monkeypatch):
        # a meta or family file over F_7 in a plan over F_13: refused, not
        # walked or audited mod 7
        monkeypatch.chdir(workdir)
        disc7 = discriminant(F7).circuit.to_json()
        (workdir / "disc7.json").write_text(json.dumps(disc7))
        space = {"v": 2, "d": 2, "mode": "homogeneous"}
        for name, cls in (("squares7.json", "squares"), ("full7.json", "full-space")):
            family = {"class": cls, "p": 7, "space": space}
            (workdir / name).write_text(json.dumps(family))
        (workdir / "xy13.json").write_text(
            json.dumps(SparsePoly(F13, 2, {(1, 1): 1}).to_json()))
        for argv, path in (
            (("hit-check", "--meta", "disc7.json", "--family", "squares7.json"),
             "disc7.json"),
            (("hit-check", "--meta", "disc7.json", "--family", "full7.json"),
             "disc7.json"),
            (("hit-check", "--meta", "disc", "--family", "full7.json"), "full7.json"),
            (("audit", "--meta", "disc7.json", "--family", "squares7.json",
              "--hard", "xy13.json"), "disc7.json"),
        ):
            code, out, err = run_cli(capsys, *argv, "--space", "2:2", "--field", "13",
                                     "--exhaustive")
            assert (code, out) == (2, ""), argv
            assert err == f"npl: error: {path}: field 7 differs from plan field 13\n"

    def test_missing_spec_keys_are_named(self, capsys):
        for meta, family, key in (("shifted-minor:k=1,r=1", "squares", "l"),
                                  ("partials-minor:r=1", "squares", "k"),
                                  ("disc", "detproj:m=2", "n"),
                                  ("disc", "sps:s=2", "t"),
                                  ("disc", "sparse:t=2", "s")):
            code, out, err = run_cli(capsys, "hit-check", "--meta", meta, "--family",
                                     family, "--space", "2:2", "--field", "7")
            spec = meta if family == "squares" else family
            assert (code, out) == (2, "")
            assert err == f"npl: error: spec {spec!r} is missing key {key!r}\n"

    def test_unknown_and_repeated_spec_keys_are_named(self, capsys):
        for meta, family, error in (
            ("partials-minor:k=1,r=1,l=5", "squares", "has unknown key 'l'"),
            ("disc", "detproj:n=2,t=9", "has unknown key 't'"),
            ("partials-minor:k=1,r=1,r=0", "squares", "repeats key 'r'"),
        ):
            code, out, err = run_cli(capsys, "hit-check", "--meta", meta, "--family",
                                     family, "--space", "2:2", "--field", "7")
            spec = meta if family == "squares" else family
            assert (code, out) == (2, "")
            assert err == f"npl: error: spec {spec!r} {error}\n"

    def test_rank_of_a_high_power(self, workdir, capsys):
        # x0^1500 has a 1x1 order-1 matrix; its falling factors must not cost
        # a table over every exponent up to the degree.  x0^3000 + x1^3000
        # has a 2x3000 one; listing its columns must not cost the monomials
        # of every lower degree.
        field = PrimeField(2**31 - 1)
        cases = (
            ({(1500,): 1}, 1, 2, [1, 1]),
            ({(3000, 0): 1, (0, 3000): 1}, 2, 0.5, [2, 3000]),
        )
        for terms, v, bound, shape in cases:
            path = workdir / "power.json"
            path.write_text(json.dumps(SparsePoly(field, v, terms).to_json()))
            start = time.perf_counter()
            code, out, _ = run_cli(capsys, "rank", "--poly", path, "--k", "1")
            assert time.perf_counter() - start < bound, terms
            assert code == 0
            assert json.loads(out)["body"]["result"]["shape"] == shape

    def test_internal_error_exits_two(self, capsys, monkeypatch):
        # family degrees declared too low fail the degree check at the whole
        # grid's last member: one diagnostic line and exit 2, not the
        # witness code 1
        monkeypatch.setattr(FamilyDescriptor, "param_degrees",
                            property(lambda desc: (0,) * len(desc.param_ranges())))
        code, out, err = run_cli(capsys, "hit-check", "--meta", "coord:0", "--family",
                                 "squares", "--space", "2:2", "--field", "7",
                                 "--exhaustive")
        assert (code, out) == (2, "")
        assert err == ("npl: internal error: T is nonzero at member (6, 6), outside "
                       "the lower set of the declared param_degrees and param_degree\n")
        assert "Traceback" not in err

    # one line per input the program refuses before any work: the family and
    # meta files it reads, the environment and command line around
    # "hit-check --field 7 --trials 3", and the error line
    REFUSAL_FILES = {
        "sps_neg.json": {"class": "sps", "top_fanin": -1},
        "sps_short.json": {"class": "sps", "top_fanin": 2, "product_degrees": [2]},
        "sps_deg1.json": {"class": "sps", "top_fanin": 1, "product_degrees": [1]},
        "shift.json": {"method": "partials", "k": 1, "shift": 1,
                       "minor": {"kind": "leading", "size": 1}},
        "no_rows.json": {"method": "partials", "k": 1,
                         "minor": {"kind": "explicit", "size": 1, "cols": [0]}},
        "no_seed.json": {"method": "partials", "k": 1,
                         "minor": {"kind": "random", "size": 1}},
        "short_rows.json": {"method": "partials", "k": 1,
                            "minor": {"kind": "explicit", "size": 2, "rows": [0],
                                      "cols": [0, 1]}},
        "repeated.json": {"method": "partials", "k": 1,
                          "minor": {"kind": "explicit", "size": 2, "rows": [0, 0],
                                    "cols": [0, 1]}},
    }

    REFUSALS = [
        ("disc squares 3:2", "squares family needs a homogeneous degree-2 space"),
        ("disc detproj:n=3 2:2", "det-projection of size 3 lives in degree-3 spaces"),
        ("disc sps_neg.json 2:2",
         "sps_neg.json: malformed input: sps needs a non-negative top fan-in"),
        ("disc sps_short.json 2:2",
         "sps_short.json: malformed input: one product degree per summand required"),
        ("disc sps_deg1.json 2:2", "sps_deg1.json: malformed input: homogeneous "
         "space requires every product degree to equal d"),
        ("coord:99 squares 2:2", "coordinate 99 outside [0, 3)"),
        ("partials-minor:k=1,r=1 full 2:2:le", "rank methods operate on homogeneous spaces"),
        ("shifted-minor:k=1,l=-1,r=1 squares 2:2", "negative shift"),
        ("shift.json squares 2:2", "shift.json: malformed input: plain partials carries "
         "no shift"),
        ("no_rows.json squares 2:2", "no_rows.json: malformed input: explicit minor "
         "needs row and column lists"),
        ("no_seed.json squares 2:2",
         "no_seed.json: malformed input: random minor needs a seed"),
        ("short_rows.json squares 2:2", "short_rows.json: malformed input: explicit "
         "index lists must match the minor size"),
        ("repeated.json squares 2:2",
         "repeated.json: malformed input: explicit indices must be distinct"),
        ("disc detproj:3 2:2", "spec 'detproj:3' expects key=value, got '3'"),
        # the default field is read, and refused, even when --field is given
        ("NPL_DEFAULT_FIELD=abc disc squares 2:2",
         "NPL_DEFAULT_FIELD is not an integer: 'abc'"),
    ]

    @pytest.mark.parametrize("argv, error", REFUSALS, ids=[argv for argv, _ in REFUSALS])
    def test_refused_inputs(self, argv, error, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name, doc in self.REFUSAL_FILES.items():
            if "class" in doc:
                doc = {**doc, "p": 7, "space": {"v": 2, "d": 2, "mode": "homogeneous"}}
            (tmp_path / name).write_text(json.dumps(doc))
        *env, meta, family, space = argv.split()
        for assignment in env:
            monkeypatch.setenv(*assignment.split("="))
        code, out, err = run_cli(capsys, "hit-check", "--field", "7", "--trials", "3",
                                 "--meta", meta, "--family", family, "--space", space)
        assert (code, out, err) == (2, "", f"npl: error: {error}\n")

    def test_argparse_usage_error(self, workdir, capsys):
        assert run_cli(capsys, "pit")[0] == 2
        assert run_cli(capsys, "no-such-command")[0] == 2


class TestReports:
    def test_report_echoes_plan(self, workdir, capsys):
        _, out, _ = run_cli(
            capsys, "pit", "--circuit", workdir / "zero.json",
            "--field", "13", "--seed", "3", "--trials", "9",
        )
        plan = json.loads(out)["body"]["plan"]
        assert plan["command"] == "pit"
        assert plan["field"] == 13
        assert plan["seed"] == 3
        assert plan["trials"] == 9
        assert plan["inputs"]["circuit"].endswith("zero.json")

    def test_bodies_byte_identical_across_reruns(self, workdir, capsys):
        plans = [
            ("pit", "--circuit", workdir / "zero.json", "--field", "13",
             "--seed", "5"),
            ("hit-check", "--meta", "disc", "--family", "full",
             "--space", "2:2", "--field", "7", "--trials", "12", "--seed", "4"),
            ("audit", "--meta", "disc", "--family", "squares", "--space",
             "2:2", "--field", "7", "--hard", workdir / "xy7.json",
             "--exhaustive"),
            ("rank", "--poly", workdir / "poly7.json", "--method", "shifted",
             "--k", "1", "--shift", "1", "--field", "7"),
            ("gen", "--n", "2,3,4", "--field", "101", "--seed", "8"),
            ("ips-verify", "--cnf", workdir / "phi.cnf", "--cert",
             workdir / "cert.json", "--field", "13", "--seed", "2"),
        ]
        for argv in plans:
            _, out1, _ = run_cli(capsys, *argv)
            _, out2, _ = run_cli(capsys, *argv)
            body1 = out1[out1.index('"body"'):]
            body2 = out2[out2.index('"body"'):]
            assert json.dumps(json.loads(out1)["body"], sort_keys=True) == \
                json.dumps(json.loads(out2)["body"], sort_keys=True), argv[0]
            assert body1.split('"header"')[0] == body2.split('"header"')[0]

    def test_out_file_matches_stdout(self, workdir, capsys):
        target = workdir / "report.json"
        _, out, _ = run_cli(
            capsys, "pit", "--circuit", workdir / "zero.json",
            "--field", "13", "--out", target,
        )
        assert target.read_text() == out

    def test_unwritable_out_leaves_stdout_empty(self, workdir, capsys):
        target = workdir / "no-such-dir" / "report.json"
        code, out, err = run_cli(
            capsys, "pit", "--circuit", workdir / "zero.json",
            "--field", "13", "--out", target,
        )
        assert (code, out) == (2, "")
        assert err.startswith("npl: error: ") and err.count("\n") == 1
        assert str(target) in err

    def test_pretty_is_same_object(self, workdir, capsys):
        argv = ("hit-check", "--meta", "disc", "--family", "squares",
                "--space", "2:2", "--field", "7", "--exhaustive")
        _, plain, _ = run_cli(capsys, *argv)
        _, pretty, _ = run_cli(capsys, *argv, "--pretty")
        plain_doc = json.loads(plain)
        pretty_doc = json.loads(pretty)
        assert plain_doc["body"]["result"] == pretty_doc["body"]["result"]
        assert plain.count("\n") == 1
        assert pretty.count("\n") > 5

    def test_wall_clock_outside_body(self, workdir, capsys):
        _, out, _ = run_cli(
            capsys, "pit", "--circuit", workdir / "zero.json", "--field", "13",
        )
        doc = json.loads(out)
        assert "wall_clock_ms" in doc["header"]
        assert "wall_clock_ms" not in json.dumps(doc["body"])

    def test_walk_counters_in_header(self, workdir, capsys):
        # squares over F_7: the 15 points of {0..4}^2, deg(disc) * c = 4,
        # with x0 + x1 <= deg(disc) * param_degree = 4, and the degree check
        # at (6, 6)
        base = ("--meta", "disc", "--space", "2:2", "--field", "7", "--exhaustive")
        for argv, counters in (
            (("hit-check", "--family", "squares"),
             {"points_evaluated": 16}),
            # four grid points to the witness at (0, 1, 0), which is rebuilt
            # and evaluated once more
            (("audit", "--family", "full", "--hard", workdir / "xy7.json"),
             {"points_evaluated": 5}),
        ):
            _, out, _ = run_cli(capsys, *argv, *base)
            doc = json.loads(out)
            assert doc["header"].keys() == {"wall_clock_ms", *counters}, argv[0]
            assert {k: doc["header"][k] for k in counters} == counters, argv[0]
            assert not any(k in json.dumps(doc["body"]) for k in counters)
        # pit and ips-verify count the identity test's circuit evaluations,
        # the witness re-evaluation included
        b = CircuitBuilder(F13, 3)
        (workdir / "c0.json").write_text(json.dumps(b.build(b.inp(0)).to_json()))
        pit = ("pit", "--field", "13", "--circuit")
        ips = ("ips-verify", "--cnf", workdir / "phi.cnf", "--field", "13", "--cert")
        for argv, evaluated in (
            ((*pit, workdir / "zero.json"), 25),
            # the points of {0, 1}^2 with x0 + x1 <= 1, formal degree 1
            ((*pit, workdir / "zero.json", "--exhaustive"), 3),
            # x0 x1 + x0 is first nonzero at (1, 0), the third point
            ((*pit, workdir / "circ.json", "--exhaustive"), 4),
            ((*ips, workdir / "cert.json"), 25),
            ((*ips, workdir / "cert.json", "--exhaustive"), 2),
            # C(0) = 0 leaves no identity test to run
            ((*ips, workdir / "c0.json", "--exhaustive"), 0),
        ):
            _, out, _ = run_cli(capsys, *argv)
            doc = json.loads(out)
            assert doc["header"].keys() == {"wall_clock_ms", "points_evaluated"}, argv
            assert doc["header"]["points_evaluated"] == evaluated, argv
            assert "points_evaluated" not in json.dumps(doc["body"])

    def test_degree_grid_decides_a_large_family(self, capsys):
        # 997^2 members, under the default budget, decided on the grid {0..4}^2
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "hit-check", "--meta", "disc", "--family",
                               "squares", "--space", "2:2", "--field", "997",
                               "--exhaustive")
        assert time.perf_counter() - start < 0.5
        doc = json.loads(out)
        result = doc["body"]["result"]["hit_report"]
        assert code == 0 and result["outcome"] == "none-found"
        assert result["examined"] == result["zeros"] == 997 ** 2
        assert doc["header"]["points_evaluated"] <= 27

    def test_named_meta_variants(self, workdir, capsys):
        for meta in ("disc", "coord:1", "partials-minor:k=1,r=1",
                     "shifted-minor:k=1,l=1,r=2"):
            code, out, _ = run_cli(
                capsys, "hit-check", "--meta", meta, "--family", "squares",
                "--space", "2:2", "--field", "7", "--trials", "5",
            )
            assert code in (0, 1), meta
            assert json.loads(out)["body"]["result"]["hit_report"]["meta"]

    def test_named_family_variants(self, workdir, capsys):
        for family in ("squares", "full", "detproj:n=2", "sps:t=2",
                       "sparse:s=2"):
            code, out, _ = run_cli(
                capsys, "hit-check", "--meta", "disc", "--family", family,
                "--space", "2:2", "--field", "7", "--trials", "5",
            )
            assert code in (0, 1), family

    def test_each_modulus_proven_prime_once(self, workdir, capsys):
        # the plan's check, the CNF system and the certificate each build a
        # field over 2^61 - 1; Miller-Rabin runs for the first only
        p = 2**61 - 1
        b = CircuitBuilder(PrimeField(p), 3)
        cert = b.build(b.sub(b.sub(b.const(1), b.inp(0)), b.inp(1)))
        (workdir / "cert61.json").write_text(json.dumps(cert.to_json()))
        is_prime.cache_clear()
        code, out, _ = run_cli(capsys, "ips-verify", "--cnf", workdir / "phi.cnf",
                               "--cert", workdir / "cert61.json", "--field", p,
                               "--exhaustive")
        info = is_prime.cache_info()
        assert code == 0 and json.loads(out)["body"]["result"]["verification"]["accepted"]
        assert (info.misses, info.currsize) == (1, 1) and info.hits >= 1
        # a refusal is raised again, not remembered
        for _ in range(2):
            with pytest.raises(ValueError, match="bound of exact primality"):
                is_prime(3317044064679887385961981)
        assert is_prime.cache_info().currsize == 1


class TestEntryPoint:
    def test_cli_import_leaves_numpy_unloaded(self):
        # nothing in the library uses numpy, so start-up must not pay for it
        env = dict(os.environ, PYTHONPATH=str(PYPROJECT.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import npl.cli, sys; assert 'numpy' not in sys.modules"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr

    def test_rank_leaves_numpy_unloaded(self, workdir):
        # elimination runs on Python ints; -X importtime lists every import
        env = dict(os.environ, PYTHONPATH=str(PYPROJECT.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "npl", "rank",
             "--poly", str(workdir / "poly7.json"), "--k", "1", "--field", "7"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["body"]["result"]["rank"] == 2
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
        assert "npl.meta" in imported
        assert not [m for m in imported if m.split(".")[0] == "numpy"]

    def test_library_imports_only_the_standard_library(self):
        for path in sorted((PYPROJECT.parent / "src" / "npl").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module or ""]
                else:
                    continue
                outside = [n for n in names
                           if n.split(".")[0] not in sys.stdlib_module_names]
                assert not outside, (path.name, outside)

    def test_library_imports_no_numpy(self):
        for path in sorted((PYPROJECT.parent / "src" / "npl").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert not [n for n in names if n.split(".")[0] == "numpy"], path

    def test_exhaustive_proofs_without_numpy(self, workdir):
        # a None entry in sys.modules makes every import of numpy fail
        script = ("import sys; sys.modules['numpy'] = None; "
                  "from npl.cli import main; sys.exit(main(sys.argv[1:]))")
        env = dict(os.environ, PYTHONPATH=str(PYPROJECT.parent / "src"))
        cases = (
            (["pit", "--circuit", "circ.json"], 1, "proven-nonzero"),
            (["pit", "--circuit", "zero.json"], 0, "proven-zero"),
            (["ips-verify", "--cnf", "phi.cnf", "--cert", "cert.json"], 0, "proven-zero"),
            (["ips-verify", "--system", "sat.json", "--cert", "bad_cert.json"], 1,
             "proven-nonzero"),
        )
        for argv, code, outcome in cases:
            proc = subprocess.run(
                [sys.executable, "-c", script, *argv, "--field", "13", "--exhaustive"],
                capture_output=True, text=True, env=env, cwd=workdir,
            )
            assert proc.returncode == code, (argv, proc.stderr)
            result = json.loads(proc.stdout)["body"]["result"]
            if argv[0] == "pit":
                verdict = result["verdict"]
            else:
                verdict = result["verification"]["conditions"]["polynomial_relation"]["verdict"]
            assert verdict["outcome"] == outcome, argv
            assert verdict["grid_points"] >= 1

    def test_module_invocation(self, workdir):
        proc = subprocess.run(
            [sys.executable, "-m", "npl", "gen", "--n", "2", "--field", "7"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["body"]["result"]["generators"][0]["dimension"] == 10

    def test_console_script(self, workdir):
        # Run the [project.scripts] entry from pyproject.toml through the
        # same wrapper an installer writes, so the declaration is checked
        # from source without the script having to be on PATH.
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as fh:
            entry = tomllib.load(fh)["project"]["scripts"]["npl"]
        module, attr = entry.split(":")
        wrapper = (
            f"import sys; from {module} import {attr}; "
            f"sys.argv[0] = 'npl'; sys.exit({attr}())"
        )

        def run(circuit):
            return subprocess.run(
                [sys.executable, "-c", wrapper, "pit",
                 "--circuit", str(workdir / circuit), "--field", "13"],
                capture_output=True, text=True,
            )

        assert run("zero.json").returncode == 0
        # main's return value must reach the process exit status
        assert run("circ.json").returncode == 1

    @pytest.mark.skipif(
        shutil.which("npl") is None, reason="npl console script not on PATH"
    )
    def test_installed_console_script(self, workdir):
        proc = subprocess.run(
            ["npl", "pit", "--circuit", str(workdir / "zero.json"),
             "--field", "13"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0


# -- fuzzing ---------------------------------------------------------------------

# values that are wrong for every field the loaders read: integer fields take
# JSON integers only, and containers hold objects
WRONG_TYPES = (None, "x", 1.5, True, [1], {"a": 1})
# fields the loaders only carry along: provenance and each label take any
# string, and labels may be null
CARRIED = {"labels", "provenance"}
# keys that have defaults, and (file, key) pairs that do in that file only
OPTIONAL = {"mode", "shift", "provenance", "labels", ("family.json", "n")}
# integer fields that count or index something, and values outside any range
COUNTS = {"p", "v", "n", "i", "a", "b", "out", "d", "k", "size", "e"}
OUT_OF_RANGE = (-1, 2**63, 10**30)


def _carried_ok(path, value):
    return value is None if path[-1] == "labels" else isinstance(value, str)


def _paths(doc, prefix=()):
    """(path, value) for every node of a JSON document, root first."""
    yield prefix, doc
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _with(doc, path, value=None, delete=False):
    out = copy.deepcopy(doc)
    if not path:
        return value
    target = out
    for key in path[:-1]:
        target = target[key]
    if delete:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return out


class TestFuzz:
    """Seeded, deterministic mutations of valid command lines and inputs."""

    @pytest.fixture()
    def inputs(self, workdir, monkeypatch):
        monkeypatch.chdir(workdir)
        # a small default field, so that a mutation that drops --field does
        # not start an exhaustive walk of a million members over F_(2^31-1)
        monkeypatch.setenv("NPL_DEFAULT_FIELD", "7")
        (workdir / "family.json").write_text(json.dumps(
            {"class": "squares", "p": 7, "n": 2,
             "space": {"v": 2, "d": 2, "mode": "homogeneous"}}))
        (workdir / "meta.json").write_text(json.dumps(
            {"method": "partials", "k": 1, "shift": 0, "minor": {"kind": "leading", "size": 2}}))
        # file -> command line that reads it, every other input valid
        return {
            "circ.json": lambda f: ["pit", "--circuit", f, "--field", "13", "--trials", "3"],
            "zero.json": lambda f: ["pit", "--circuit", f, "--field", "13", "--exhaustive"],
            "poly7.json": lambda f: ["rank", "--poly", f, "--k", "1", "--field", "7"],
            "xy7.json": lambda f: ["audit", "--meta", "disc", "--family", "squares",
                                   "--space", "2:2", "--field", "7", "--hard", f,
                                   "--trials", "3"],
            "cert.json": lambda f: ["ips-verify", "--cnf", "phi.cnf", "--cert", f,
                                    "--field", "13", "--trials", "3"],
            "sys.json": lambda f: ["ips-verify", "--system", f, "--cert", "cert.json",
                                   "--field", "13", "--trials", "3"],
            "family.json": lambda f: ["hit-check", "--meta", "disc", "--family", f,
                                      "--space", "2:2", "--field", "7", "--trials", "3"],
            "meta.json": lambda f: ["hit-check", "--meta", f, "--family", "squares",
                                    "--space", "2:2", "--field", "7", "--trials", "3"],
            "phi.cnf": lambda f: ["ips-from-cnf", "--cnf", f, "--field", "13"],
        }

    @staticmethod
    def _assert_input_error(capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, (argv, out)
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("npl: error: "), (argv, err)
        return lines[0]

    def test_malformed_files_exit_two(self, inputs, capsys):
        rng = random.Random(1701)
        cases = []
        deleted = {}  # position in cases -> the one key that case removes
        for name, argv in inputs.items():
            assert run_cli(capsys, *argv(name))[0] in (0, 1), name
            text = Path(name).read_text(encoding="utf-8")
            bad_texts = ["", "\x00", "nul", text + " x"]
            if name.endswith(".json"):
                # a proper prefix of a JSON object never closes it
                bad_texts += [text[:rng.randrange(1, len(text))] for _ in range(4)]
                doc = json.loads(text)
                for path, node in _paths(doc):
                    cases += [(name, _with(doc, path, v)) for v in WRONG_TYPES
                              if not (CARRIED & set(path) and _carried_ok(path, v))]
                    if COUNTS & set(path[-2:]) and type(node) is int:
                        cases += [(name, _with(doc, path, v)) for v in OUT_OF_RANGE]
                    if path and isinstance(path[-1], str) and not (
                            {path[-1], (name, path[-1])} & OPTIONAL):
                        deleted[len(cases)] = path[-1]
                        cases.append((name, _with(doc, path, delete=True)))
            else:
                bad_texts += ["p cnf 1 2\n1 0\n", "p cnf 1 1\n2 0\n", "1 0\np cnf 1 1\n",
                              "p cnf 1 1\n1\n", "p cnf 1 1\nx 0\n", "p cnf -1 0\n",
                              "p cnf x 1\n1 0\n", "p cnf 1 1\np cnf 1 1\n1 0\n",
                              "p cnf 4 1\n1 2 3 4 0\n"]
            cases += [(name, t) for t in bad_texts]
        for i, (name, content) in enumerate(cases):
            bad = f"bad{i}-{name}"
            with open(bad, "w", encoding="utf-8") as fh:
                fh.write(content if isinstance(content, str) else json.dumps(content))
            line = self._assert_input_error(capsys, inputs[name](bad))
            # every diagnostic names the file, and a deleted key by its name
            assert bad in line, line
            if i in deleted:
                assert f"missing key {deleted[i]!r}" in line, line
        with open("bytes.json", "wb") as fh:
            fh.write(bytes(rng.randrange(128, 256) for _ in range(64)))
        for name, argv in inputs.items():
            for bad in ("bytes.json", "missing.json"):
                assert bad in self._assert_input_error(capsys, argv(bad)), (name, bad)
        assert len(cases) > 300

    def test_mutated_command_lines(self, inputs, capsys):
        rng = random.Random(1717)
        bases = [argv(name) for name, argv in inputs.items()] + [
            ["gen", "--n", "2", "--expand-max", "2", "--field", "7"],
            ["rank", "--poly", "poly7.json", "--k", "1", "--method", "shifted",
             "--shift", "1", "--field", "7", "--include-matrix"],
        ]
        flags = sorted({t for argv in bases for t in argv if t.startswith("--")})
        numbers = ["-1", "0", "1", "2", "3"]
        values = numbers + sorted(inputs) + [
            "", "x", "1.5", "2:2", "1:2", "2:x", "coord:1", "full",
            "partials-minor:k=1,r=1", "shifted", "missing.json",
        ]
        tokens = flags + values + ["--help", "--version", "--nope", "pit", "rank"]

        def value():
            return rng.choice(numbers if rng.random() < 0.5 else values)

        for _ in range(400):
            argv = list(rng.choice(bases))
            own = [t for t in argv if t.startswith("--")]
            for _ in range(rng.randrange(1, 3)):
                i = rng.randrange(1, len(argv) + 1)
                # weighted toward whole flag/value pairs, which get past
                # argparse more often than shuffled tokens do
                kind = rng.choices(range(5), weights=(4, 3, 1, 1, 1))[0]
                if kind == 0:  # a flag, mostly the command's own, with some value
                    flag = rng.choice(own if rng.random() < 0.75 else flags)
                    at = rng.choice([j for j in range(1, len(argv) + 1)
                                     if j == len(argv) or argv[j].startswith("--")])
                    argv[at:at] = [flag, value()]
                elif kind == 1:  # the value of some flag
                    at = [j for j in range(2, len(argv))
                          if argv[j - 1].startswith("--") and not argv[j].startswith("--")]
                    if at:
                        argv[rng.choice(at)] = value()
                elif kind == 2:
                    argv.insert(rng.randrange(len(argv) + 1), rng.choice(tokens))
                elif kind == 3 and i < len(argv):
                    del argv[i]
                elif i + 1 < len(argv):
                    argv[i], argv[i + 1] = argv[i + 1], argv[i]
            code, out, err = run_cli(capsys, *argv)
            assert code in (0, 1, 2), argv
            assert "Traceback" not in err, argv
            if code == 2:
                # an argparse usage message, or the one-line diagnostic
                last = err.strip().splitlines()[-1]
                assert "error: " in last, (argv, err)
                if not err.startswith("usage:"):
                    assert err.count("\n") == 1 and last.startswith("npl: error: "), (argv, err)
            elif "--help" not in argv and "--version" not in argv:
                assert json.loads(out)["body"]["plan"]["command"] in argv, argv
