"""Byte-identity of the CLI: a fixed argv matrix against recorded digests.

Every argv below runs in-process through ``cli.main``; its exit code, the
SHA-256 of its stdout and its exact stderr must equal the record in
``cli_golden.json``.  A refactor that is meant to leave the output alone
keeps this test passing unchanged.  After a deliberate output change,
rewrite the record with

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from ratgen.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

GFS = [
    ("t", "1 - x*t - t^2"),
    ("1", "1 - t + x*t^2"),
    ("1 + y*t", "1 - x*y*t + 2*t^3"),
    ("2 - x*t + t^2", "1 - 3*t"),
    ("0", "1 - t"),
    ("x^2 - 1", "1 + (x - y)*t - z*t^2"),
]
FAMILIES = [
    ("fibonacci", []),
    ("catalan", []),
    ("gen_fibonacci", ["--param", "m=3"]),
    ("jacobsthal", []),
    ("horadam_first", ["--param", "p=2", "--param", "q=-1"]),
    ("horadam_second", []),
    ("pell", []),
    ("pell_lucas", []),
    ("gen_lucas", ["--param", "m=4"]),
    ("gen_catalan", ["--param", "A=x+1"]),
    ("gen_two_var_fibonacci", ["--param", "a=2", "--param", "c=2"]),
]
FORMATS = ("text", "json", "csv")
ORACLES = ("geometric", "multinomial", "convolution", "residual", "all")
FIB = ["--num", "t", "--den", "1 - x*t - t^2"]
ERRORS = [
    ["expand", "--num", "t +", "--den", "1 - t", "-N", "3"],
    ["expand", "--num", "t", "--den", "2 - t", "-N", "3"],
    ["expand", "--num", "t", "--den", "1 - t", "--pow", "0", "-N", "3"],
    ["expand", *FIB, "-N", "-1"],
    ["expand", *FIB, "-N", "3", "--at", "x"],
    ["expand", *FIB, "-N", "3", "--at", "y=1"],
    ["expand", *FIB, "-N", "3", "--at", "x=1,x=2"],
    ["expand", *FIB, "-N", "3", "--at", "t=1"],
    ["expand", *FIB, "-N", "3", "--at", "x=two"],
    ["expand", *FIB, "-N", "3", "--at", ","],
    ["expand", "--num", "1", "--den", "1 - 10^4400*t", "-N", "1"],
    ["expand", "--num", "x^-1", "--den", "1 - t", "-N", "1"],
    ["recurrence", "--num", "t", "--den", "t"],
    ["verify", *FIB, "-N", "-1", "--oracle", "all"],
    ["verify", *FIB, "-N", "13", "--oracle", "multinomial"],
    ["family", "expand", "nosuch", "-N", "3"],
    ["family", "expand", "gen_fibonacci", "--param", "m=1", "-N", "3"],
    ["family", "expand", "fibonacci", "--param", "k", "-N", "3"],
    ["family", "expand", "fibonacci", "-N", "-1"],
    ["family", "audit", "fibonacci", "--param", "z=1"],
    ["expand", *FIB],
    ["verify", *FIB, "-N", "3", "--oracle", "sympy"],
]


def golden_argv() -> list[list[str]]:
    cases: list[list[str]] = []
    for i, (num, den) in enumerate(GFS):
        gf = ["--num", num, "--den", den]
        for h in (1, 2, 5):
            fmt = FORMATS[(i + h) % 3]
            cases.append(["expand", *gf, "--pow", str(h), "-N", "6", "--format", fmt])
            cases.append(["recurrence", *gf, "--pow", str(h)])
        at = "x=2,y=-1,z=3"
        cases.append(["expand", *gf, "--pow", "3", "-N", "5",
                      "--format", FORMATS[i % 3], "--at", at])
        for oracle in ORACLES:
            cases.append(["verify", *gf, "--pow", str(1 + i % 3), "-N", "5",
                          "--oracle", oracle])
    for h in (20, 50):
        cases.append(["recurrence", "--num", "1", "--den", "1 - x*t - y*t^2",
                      "--pow", str(h)])
    cases.append(["verify", *FIB, "-N", "14", "--oracle", "all"])
    cases.append(["verify", *FIB, "-N", "13", "--oracle", "multinomial", "--force"])
    cases.append(["family", "list"])
    for i, (name, params) in enumerate(FAMILIES):
        for mode in ("canonical", "printed"):
            cases.append(["family", "expand", name, *params, "--mode", mode,
                          "-N", "7", "--format", FORMATS[i % 3]])
            cases.append(["family", "audit", name, *params, "--mode", mode])
        cases.append(["family", "expand", name, *params, "-N", "4",
                      "--format", FORMATS[(i + 1) % 3], "--at", "x=3,y=2"])
    cases.append(["expand", "--num=-t", "--den", "1 - t", "-N", "3"])
    cases.extend(ERRORS)
    return cases


def run_one(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {
        "argv": argv,
        "code": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": err.getvalue(),
    }


def test_cli_output_matches_golden_record(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to it
    recorded = json.loads(GOLDEN.read_text())
    cases = golden_argv()
    assert [r["argv"] for r in recorded] == cases, "matrix and record diverge"
    for want in recorded:
        got = run_one(want["argv"])
        assert got == want, f"first differing argv: {want['argv']}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli_golden.py --write")
    import os

    os.environ["COLUMNS"] = "80"
    records = [run_one(argv) for argv in golden_argv()]
    lines = ",\n".join(json.dumps(record) for record in records)
    GOLDEN.write_text(f"[\n{lines}\n]\n")
    print(f"wrote {len(records)} records to {GOLDEN}")
