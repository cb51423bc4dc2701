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

GOLDEN = Path(__file__).resolve().parent / "golden_bodies.json"

# the hard candidate x*y over F_5
INPUTS = {"xy5.json": {"p": 5, "v": 2, "terms": [{"e": [1, 1], "c": 1}]}}

DISC_22 = ["--meta", "disc", "--space", "2:2"]

CASES = {
    "gen": ["gen", "--n", "2,3", "--expand-max", "3", "--field", "7", "--seed", "5"],
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
}


def run_case(argv, workdir):
    """(exit code, report body text) of one command run in workdir."""
    from npl.cli import main

    for name, data in INPUTS.items():
        (Path(workdir) / name).write_text(json.dumps(data), encoding="utf-8")
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
