"""Golden report bodies: fixed command lines keep their exit codes and their
report bodies, byte for byte.

Each case runs ``npl.cli.main`` in a fresh working directory that holds the
input files under relative names, so no body depends on where it ran.  Only
the body is compared; the header carries wall-clock time.  A deliberate body
change regenerates the expected file with ``python tests/test_golden.py``
and names the change in CHANGES.md.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from itertools import combinations_with_replacement

GOLDEN = Path(__file__).resolve().parent / "golden_bodies.json"


def _gate(op, *args):
    keys = {"in": ("i",), "const": ("c",), "add": ("a", "b"), "mul": ("a", "b")}[op]
    return {"op": op, **dict(zip(keys, args))}


def _circuit(p, v, *gates):
    return {"p": p, "v": v, "gates": [_gate(*g) for g in gates], "out": len(gates) - 1}


def _dense(p, v, d):
    """Every degree-d monomial in v variables, with fixed nonzero coefficients."""
    terms = []
    for i, picks in enumerate(combinations_with_replacement(range(v), d)):
        e = [0] * v
        for j in picks:
            e[j] += 1
        terms.append({"e": e, "c": (7919 * i * i + 104729 * i + 1) % p or 1})
    return {"p": p, "v": v, "terms": terms}


P31 = 2 ** 31 - 1


# Input files by name: a str is written as is, anything else as JSON.
INPUTS = {
    # hard candidates over F_5: x*y, x^2 + y^2 and x^2
    "xy5.json": {"p": 5, "v": 2, "terms": [{"e": [1, 1], "c": 1}]},
    "sq5.json": {"p": 5, "v": 2, "terms": [{"e": [2, 0], "c": 1}, {"e": [0, 2], "c": 1}]},
    "x2_5.json": {"p": 5, "v": 2, "terms": [{"e": [2, 0], "c": 1}]},
    # (x0 + x1) * x2 - (x0 * x2 + x1 * x2) over F_13, identically zero
    "dist13.json": _circuit(13, 3, ("in", 0), ("in", 1), ("in", 2), ("add", 0, 1),
                            ("mul", 3, 2), ("mul", 0, 2), ("mul", 1, 2), ("add", 5, 6),
                            ("const", 12), ("mul", 8, 7), ("add", 4, 9)),
    "xy13.json": _circuit(13, 2, ("in", 0), ("in", 1), ("mul", 0, 1)),
    # x and not x: members 1 - x, x and the axiom x^2 - x over F_13
    "phi.cnf": "p cnf 1 2\n1 0\n-1 0\n",
    # 1 - y0 - y1 composes to 0: a certificate
    "cert13.json": _circuit(13, 3, ("const", 1), ("in", 0), ("in", 1), ("const", 12),
                            ("mul", 3, 1), ("add", 0, 4), ("mul", 3, 2), ("add", 5, 6)),
    # 1 - y0 composes to x: condition 2 fails
    "cert13_c2.json": _circuit(13, 3, ("const", 1), ("in", 0), ("const", 12),
                               ("mul", 2, 1), ("add", 0, 3)),
    # y0 + y1 is 0 at the origin: condition 1 fails
    "cert13_c1.json": _circuit(13, 3, ("in", 0), ("in", 1), ("add", 0, 1)),
    # dense hard candidates and rank inputs over F_(2^31-1)
    "dense_3_4.json": _dense(P31, 4, 3),
    "dense_4_6.json": _dense(P31, 6, 4),
    "dense_4_3.json": _dense(P31, 3, 4),
}

DISC_22 = ["--meta", "disc", "--space", "2:2"]

CASES = {
    "gen": ["gen", "--n", "2,3", "--expand-max", "3", "--field", "7", "--seed", "5"],
    "gen-det4": ["gen", "--n", "4", "--expand-max", "4", "--field", "7", "--seed", "5"],
    "audit-random-detproj-minor": ["audit", "--meta", "partials-minor:k=1,r=3",
                                   "--family", "detproj:n=3", "--space", "3:4",
                                   "--hard", "dense_3_4.json", "--trials", "3",
                                   "--seed", "6", "--field", str(P31)],
    "audit-random-sps-minor": ["audit", "--meta", "partials-minor:k=2,r=12",
                               "--family", "sps:t=2", "--space", "4:6",
                               "--hard", "dense_4_6.json", "--trials", "3",
                               "--seed", "8", "--field", str(P31)],
    "rank-partials-matrix": ["rank", "--poly", "dense_4_3.json", "--k", "2",
                             "--include-matrix", "--field", str(P31)],
    "rank-shifted-matrix": ["rank", "--poly", "dense_4_3.json", "--method", "shifted",
                            "--k", "1", "--shift", "1", "--include-matrix",
                            "--field", str(P31)],
    "hit-random-squares": ["hit-check", *DISC_22, "--family", "squares",
                           "--trials", "8", "--seed", "3", "--field", "7"],
    "hit-random-full": ["hit-check", *DISC_22, "--family", "full",
                        "--trials", "8", "--seed", "3", "--field", "7"],
    "hit-random-detproj": ["hit-check", *DISC_22, "--family", "detproj:n=2",
                           "--trials", "8", "--seed", "3", "--field", "7"],
    "hit-random-sps": ["hit-check", *DISC_22, "--family", "sps:t=2",
                       "--trials", "8", "--seed", "3", "--field", "7"],
    "hit-random-sparse": ["hit-check", *DISC_22, "--family", "sparse:s=2",
                          "--trials", "8", "--seed", "3", "--field", "7"],
    "hit-random-detproj-affine": ["hit-check", "--meta", "coord:4", "--space", "2:3:le",
                                  "--family", "detproj:n=2", "--trials", "4",
                                  "--seed", "11"],
    "hit-exhaustive-squares": ["hit-check", *DISC_22, "--family", "squares",
                               "--exhaustive", "--field", "5"],
    "audit-exhaustive-squares": ["audit", *DISC_22, "--family", "squares",
                                 "--hard", "xy5.json", "--exhaustive", "--field", "5"],
    "audit-random-refuted": ["audit", *DISC_22, "--family", "full", "--hard", "xy5.json",
                             "--trials", "10", "--seed", "1", "--field", "5"],
    "audit-exhaustive-valid": ["audit", *DISC_22, "--family", "squares",
                               "--hard", "sq5.json", "--exhaustive", "--field", "5"],
    "audit-exhaustive-non-separating": ["audit", *DISC_22, "--family", "squares",
                                        "--hard", "x2_5.json", "--exhaustive",
                                        "--field", "5"],
    "audit-random-valid": ["audit", *DISC_22, "--family", "squares", "--hard", "xy5.json",
                           "--trials", "10", "--seed", "2", "--field", "5"],
    "pit-exhaustive-zero": ["pit", "--circuit", "dist13.json", "--exhaustive",
                            "--field", "13"],
    "pit-exhaustive-nonzero": ["pit", "--circuit", "xy13.json", "--exhaustive",
                               "--field", "13"],
    "pit-random-zero": ["pit", "--circuit", "dist13.json", "--trials", "6", "--seed", "4",
                        "--field", "13"],
    "pit-random-nonzero": ["pit", "--circuit", "xy13.json", "--trials", "6", "--seed", "4",
                           "--field", "13"],
    "ips-accept-exact": ["ips-verify", "--cnf", "phi.cnf", "--cert", "cert13.json",
                         "--exhaustive", "--field", "13"],
    "ips-accept-random": ["ips-verify", "--cnf", "phi.cnf", "--cert", "cert13.json",
                          "--trials", "5", "--seed", "7", "--field", "13"],
    "ips-reject-c2-exhaustive": ["ips-verify", "--cnf", "phi.cnf", "--cert",
                                 "cert13_c2.json", "--exhaustive", "--field", "13"],
    "ips-reject-c2-random": ["ips-verify", "--cnf", "phi.cnf", "--cert", "cert13_c2.json",
                             "--trials", "5", "--seed", "7", "--field", "13"],
    "ips-reject-c1": ["ips-verify", "--cnf", "phi.cnf", "--cert", "cert13_c1.json",
                      "--exhaustive", "--field", "13"],
}


def run_case(argv, workdir):
    """(exit code, report body text) of one command run in workdir."""
    from npl.cli import main

    for name, data in INPUTS.items():
        text = data if isinstance(data, str) else json.dumps(data)
        (Path(workdir) / name).write_text(text, encoding="utf-8")
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    finally:
        os.chdir(cwd)
    text = buf.getvalue()
    # keys are sorted, so the body comes before the header
    return code, text[: text.rfind(',"header":')]


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_body(case, tmp_path):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[case]
    code, body = run_case(CASES[case], tmp_path)
    assert code == want["code"]
    assert body == want["body"]


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(GOLDEN.parent.parent / "src"))
    golden = {}
    for case, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            code, body = run_case(argv, tmp)
        golden[case] = {"code": code, "body": body}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} bodies to {GOLDEN}")
