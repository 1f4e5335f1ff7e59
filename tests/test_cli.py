"""CLI contract: flags, formats, exit codes, deterministic output."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import validate

from ratgen import cli, recurrence, series
from ratgen.cli import main
from ratgen.errors import RatGenError
from ratgen.parser import format_poly, parse_poly, split_in_t
from ratgen.poly import MAX_VARIABLES, Polynomial
from ratgen.recurrence import RationalGF, expand_family
from ratgen.series import SeriesPrefix

OUTPUT_SCHEMA = {
    "type": "object",
    "required": ["query", "results"],
    "additionalProperties": False,
    "properties": {
        "query": {"type": "object"},
        "results": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["k", "poly"],
                "additionalProperties": False,
                "properties": {
                    "k": {"type": "integer", "minimum": 0},
                    "poly": {"type": "string"},
                    "value": {"type": "string", "pattern": r"^-?[0-9]+$"},
                },
            },
        },
    },
}

FIB = ["--num", "t", "--den", "1 - x*t - t^2"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def corrupt_expansion_at(monkeypatch, index: int) -> None:
    """Make the CLI's engine expansion wrong by +1 at one order."""
    real = cli.expand_family

    def corrupted(gf, N):
        coeffs = list(real(gf, N).coeffs)
        coeffs[index] = coeffs[index] + Polynomial.one()
        return SeriesPrefix(coeffs)

    monkeypatch.setattr(cli, "expand_family", corrupted)


def check_json(out: str) -> dict:
    doc = json.loads(out)
    validate(doc, OUTPUT_SCHEMA)
    ks = [row["k"] for row in doc["results"]]
    assert ks == list(range(len(ks)))  # contiguous from 0
    return doc


def test_expand_csv_golden(capsys):
    code, out, _ = run(capsys, ["expand", *FIB, "-N", "3", "--format", "csv"])
    assert code == 0
    assert out == 'k,poly\n0,"0"\n1,"1"\n2,"x"\n3,"x^2 + 1"\n'


def test_expand_text(capsys):
    code, out, _ = run(capsys, ["expand", "--num", "1", "--den", "1", "-N", "2"])
    assert code == 0
    assert out == "P_0 = 1\nP_1 = 0\nP_2 = 0\n"


def test_expand_json_schema(capsys):
    code, out, _ = run(capsys, ["expand", *FIB, "-N", "4", "--format", "json"])
    assert code == 0
    doc = check_json(out)
    assert doc["query"]["num"] == "t"
    assert [row["poly"] for row in doc["results"]] == [
        "0", "1", "x", "x^2 + 1", "x^3 + 2*x",
    ]


def test_expand_json_with_values(capsys):
    code, out, _ = run(
        capsys,
        ["expand", *FIB, "-N", "6", "--format", "json", "--at", "x=1"],
    )
    assert code == 0
    doc = check_json(out)
    assert [row["value"] for row in doc["results"]] == [
        "0", "1", "1", "2", "3", "5", "8",
    ]


def test_expand_rejects_non_unit_constant_term(capsys):
    code, _, err = run(capsys, ["expand", "--num", "1", "--den", "2 - t", "-N", "1"])
    assert code == 2
    assert "denominator constant term must be 1" in err


def test_expand_rejects_parse_error(capsys):
    code, _, err = run(capsys, ["expand", "--num", "1 +", "--den", "1", "-N", "1"])
    assert code == 2
    assert "--num" in err


def test_expand_rejects_incomplete_at(capsys):
    code, _, err = run(capsys, ["expand", *FIB, "-N", "2", "--at", "y=1"])
    assert code == 2
    assert "x" in err


# Each case's stdout, stderr and exit code are those of the release that
# evaluated every P_k at the --at point; the value stream, which sets the
# names --at lacks to 0, must keep them.
AT_CORNERS = [
    (["--num", "1", "--den", "1-x*t-y*t^5", "-N", "3", "--at", "x=2"],
     0, "P_0 = 1 = 1\nP_1 = x = 2\nP_2 = x^2 = 4\nP_3 = x^3 = 8\n", ""),
    (["--num", "1", "--den", "1-x*t-y*t^5", "-N", "5", "--at", "x=2"],
     2, "", "error: --at is incomplete at k=5: no value assigned for: y\n"),
    (["--num", "0", "--den", "1-y*t", "-N", "3", "--at", "x=1"],
     0, "".join(f"P_{k} = 0 = 0\n" for k in range(4)), ""),
    (["--num", "y", "--den", "1-x*t", "-N", "2", "--at", "x=1"],
     2, "", "error: --at is incomplete at k=0: no value assigned for: y\n"),
    (["--num", "1", "--den", "1", "-N", "3", "--at", "x=1"],
     0, "P_0 = 1 = 1\nP_1 = 0 = 0\nP_2 = 0 = 0\nP_3 = 0 = 0\n", ""),
    (["--num", "x + y*t^3", "--den", "1 - x*t - z*t^2", "--pow", "4", "-N", "2",
      "--at", "x=2,z=-1", "--format", "csv"],
     0, 'k,poly,value\n0,"x",2\n1,"4*x^2",16\n2,"10*x^3 + 4*x*z",72\n', ""),
    (["--num", "x + y*t^3", "--den", "1 - x*t - z*t^2", "--pow", "4", "-N", "3",
      "--at", "x=2,z=-1", "--format", "csv"],
     2, "", "error: --at is incomplete at k=3: no value assigned for: y\n"),
]


@pytest.mark.parametrize("argv, code, out, err", AT_CORNERS, ids=[
    "late-name-unreached", "late-name-reached", "zero-numerator", "numerator-name",
    "constant-gf", "pow4-name-unreached", "pow4-name-reached",
])
def test_at_corner_cases_keep_their_output(capsys, argv, code, out, err):
    assert run(capsys, ["expand", *argv]) == (code, out, err)


def test_at_values_stay_small_when_a_and_b_share_a_factor(capsys):
    # at h = 1 the values run P_k = a_k - sum_j b_j*P_{k-j} on the integers, so
    # they are as small as P_k; the series 1/b(point) grows with k instead
    num = den = "1-x*t"
    point, N = {"x": 99999999999}, 20000
    start = perf_counter()
    code, out, err = run(capsys, ["expand", "--num", num, "--den", den, "-N", str(N),
                                  "--at", f"x={point['x']}"])
    elapsed = perf_counter() - start
    assert (code, err) == (0, "")
    gf = RationalGF(split_in_t(parse_poly(num)), split_in_t(parse_poly(den)))
    assert out.splitlines() == [f"P_{k} = {format_poly(p)} = {p.evaluate(point)}"
                                for k, p in enumerate(expand_family(gf, N))]
    assert elapsed < 1.5


def test_a_failing_value_draws_no_later_row(capsys, monkeypatch):
    drawn = {"iter_family": 0, "iter_values": 0}

    def counting(name):
        real = getattr(cli, name)

        def wrapper(*args):
            stream = real(*args)  # errors at the call still raise here

            def counted():
                for item in stream:
                    drawn[name] += 1
                    yield item

            return counted()

        monkeypatch.setattr(cli, name, wrapper)

    counting("iter_family")
    counting("iter_values")
    code, out, err = run(capsys, ["expand", "--num", "1", "--den", "1 - x*t",
                                  "-N", "1000000", "--at", "x=" + "9" * 3000])
    assert (code, out) == (2, "")
    assert "the --at value at k=2 has more than" in err
    assert drawn == {"iter_family": 3, "iter_values": 3}  # k = 0, 1, 2


@pytest.mark.parametrize("argv, message", [
    (["--num", "\u00b2", "--den", "1-t", "-N", "1"],
     "in --num expression: unexpected character '\u00b2' (at position 0)"),
    (["--num", "\u0661\u0662", "--den", "1-t", "-N", "1"],
     "in --num expression: unexpected character '\u0661' (at position 0)"),
    (["--num", "1", "--den", "1-3\uff17*t", "-N", "1"],
     "in --den expression: unexpected character '\uff17' (at position 3)"),
    (["--num", "1_0", "--den", "1-t", "-N", "1"],
     "in --num expression: unexpected character '_' (at position 1)"),
    (["--num", "1", "--den", "1-x*t", "-N", "1", "--at", "x=\u0661\u0662"],
     "bad --at value for 'x': '\u0661\u0662' is not an integer"),
    (["--num", "1", "--den", "1-x*t", "-N", "1", "--at", "x=1_000"],
     "bad --at value for 'x': '1_000' is not an integer"),
], ids=["superscript", "arabic-indic", "fullwidth", "underscore", "at-arabic-indic",
        "at-underscore"])
def test_integers_are_read_in_ascii_digits_only(capsys, argv, message):
    assert run(capsys, ["expand", *argv]) == (2, "", f"error: {message}\n")


def test_family_param_integers_are_read_in_ascii_digits_only(capsys):
    argv = ["family", "expand", "gen_catalan", "-N", "2", "--param"]
    assert run(capsys, [*argv, "m=3"])[:2] == (0, "P_0 = 1\nP_1 = 3\nP_2 = 9\n")
    for value in ("m=\u0663", "m=3_0"):
        code, out, err = run(capsys, [*argv, value])
        assert (code, out) == (2, "") and "unexpected character" in err


def test_expand_rejects_repeated_at_variable(capsys):
    code, out, err = run(capsys, ["expand", *FIB, "-N", "2", "--at", "x=1,x=2"])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "'x'" in err


def test_expand_rejects_series_variable_in_at(capsys):
    code, out, err = run(capsys, ["expand", *FIB, "-N", "2", "--at", "x=1,t=5"])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "reserved series variable" in err


def test_expand_rejects_bad_power(capsys):
    code, _, err = run(capsys, ["expand", *FIB, "--pow", "0", "-N", "2"])
    assert code == 2


def test_expand_numerator_starting_with_minus(capsys):
    # argparse would read `--num -t` as two flags; the `=` form keeps it a value
    code, out, _ = run(capsys, ["expand", "--num=-t", "--den", "1 - t", "-N", "2"])
    assert code == 0
    assert out == "P_0 = 0\nP_1 = -1\nP_2 = -1\n"


def test_expression_after_num_or_den_may_start_with_minus(capsys):
    pair = ["--num", "-t", "--den", "-t+1"]
    code, out, _ = run(capsys, ["expand", *pair, "-N", "3"])
    assert (code, out) == (0, "P_0 = 0\nP_1 = -1\nP_2 = -1\nP_3 = -1\n")
    code, out, _ = run(capsys, ["verify", *pair, "-N", "3", "--oracle", "all"])
    assert code == 0 and out.count("PASS") == 4
    code, out, _ = run(capsys, ["recurrence", *pair])
    assert (code, out.splitlines()[0]) == (0, "P_k = P_{k-1} (k >= 2); P_0 = 0; P_1 = -1")
    code, out, _ = run(capsys, ["expand", *pair, "-N", "1", "--format", "json"])
    query = check_json(out)["query"]
    assert (code, query["num"], query["den"]) == (0, "-t", "-t+1")
    with pytest.raises(SystemExit) as info:  # a flag with no token after it
        main(["expand", "--den", "1 - t", "-N", "2", "--num"])
    assert info.value.code == 2


def test_expand_output_is_deterministic(capsys):
    argv = ["expand", "--num", "1 + t^2", "--den", "1 - x*t - y*t^2", "--pow", "2",
            "-N", "8", "--format", "json", "--at", "x=2,y=-1"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_recurrence_fibonacci(capsys):
    code, out, _ = run(capsys, ["recurrence", *FIB])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "P_k = x*P_{k-1} + P_{k-2} (k >= 2); P_0 = 0; P_1 = 1"
    assert "order: 2" in lines
    assert "forcing cutoff: 1" in lines


def test_recurrence_order_one(capsys):
    code, out, _ = run(capsys, ["recurrence", "--num", "1", "--den", "1 - t"])
    assert code == 0
    assert out.splitlines()[0] == "P_k = P_{k-1} (k >= 1); P_0 = 1"


def test_recurrence_gen_catalan_m3(capsys):
    code, out, _ = run(capsys, ["recurrence", "--num", "1", "--den", "1 - 3*t + x*t^3"])
    assert code == 0
    assert out.splitlines()[0] == (
        "P_k = 3*P_{k-1} - x*P_{k-3} (k >= 3); P_0 = 1; P_1 = 3; P_2 = 9"
    )


def test_recurrence_takes_higher_powers_from_the_stream(capsys, monkeypatch):
    argv = ["recurrence", "--num", "1+y*t", "--den", "1-x*t-y*t^2", "--pow", "3"]
    code, out, _ = run(capsys, argv)

    def refuse(*args):
        raise AssertionError("h > 1 ran the order-h*n recurrence")

    monkeypatch.setattr(recurrence.Recurrence, "iter_terms", refuse)
    assert run(capsys, argv) == (code, out, "")
    assert code == 0


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, ["verify", *FIB, "-N", "24", "--oracle", "all"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert all(line.startswith("PASS") for line in lines)
    assert any("capped at N=12" in line for line in lines)


def test_verify_single_oracles(capsys):
    for oracle in ("geometric", "multinomial", "convolution", "residual"):
        code, out, _ = run(capsys, ["verify", *FIB, "-N", "8", "--oracle", oracle])
        assert code == 0
        assert out.startswith(f"PASS {oracle}")


def test_verify_with_power(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "--num", "1 + t", "--den", "1 - x*t - t^2", "--pow", "2",
         "-N", "16", "--oracle", "all"],
    )
    assert code == 0
    assert all(line.startswith("PASS") for line in out.splitlines())


def test_verify_multinomial_refuses_large_order(capsys):
    code, _, err = run(capsys, ["verify", *FIB, "-N", "13", "--oracle", "multinomial"])
    assert code == 2
    assert "--force" in err


def test_verify_rejects_negative_order(capsys):
    code, out, err = run(capsys, ["verify", *FIB, "-N", "-1", "--oracle", "all"])
    assert (code, out, err) == (2, "", "error: order must be nonnegative, got -1\n")


def test_verify_multinomial_forced(capsys):
    code, out, _ = run(
        capsys, ["verify", *FIB, "-N", "13", "--oracle", "multinomial", "--force"]
    )
    assert code == 0
    assert out.startswith("PASS multinomial")


def test_verify_corrupted_expansion_fails_with_index(capsys, monkeypatch):
    corrupt_expansion_at(monkeypatch, 3)
    code, out, _ = run(
        capsys, ["verify", *FIB, "-N", "8", "--oracle", "geometric"]
    )
    assert code == 1
    assert "FAIL geometric" in out
    assert "k=3" in out
    assert "x^2 + 2" in out and "x^2 + 1" in out  # both polynomials reported


def test_family_list(capsys):
    code, out, _ = run(capsys, ["family", "list"])
    assert code == 0
    names = [line.split(":", 1)[0] for line in out.splitlines()]
    assert len(names) == 11
    assert names == sorted(names)
    assert "gen_two_var_fibonacci" in names


def test_family_expand_catalan(capsys):
    code, out, _ = run(capsys, ["family", "expand", "catalan", "-N", "2"])
    assert code == 0
    assert out == "P_0 = 1\nP_1 = 1\nP_2 = -x + 1\n"


def test_family_expand_fibonacci_at_1_csv(capsys):
    code, out, _ = run(
        capsys,
        ["family", "expand", "fibonacci", "-N", "10", "--at", "x=1",
         "--format", "csv"],
    )
    assert code == 0
    values = [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]]
    assert values == ["0", "1", "1", "2", "3", "5", "8", "13", "21", "34", "55"]


def test_family_expand_json_schema(capsys):
    code, out, _ = run(
        capsys,
        ["family", "expand", "gen_catalan", "--param", "m=3",
         "--param", "A=x+2", "-N", "5", "--format", "json"],
    )
    assert code == 0
    doc = check_json(out)
    assert doc["query"]["params"] == {"m": "3", "A": "x + 2"}
    assert doc["results"][1]["poly"] == "x + 5"


def test_family_expand_unknown(capsys):
    code, _, err = run(capsys, ["family", "expand", "nope", "-N", "2"])
    assert code == 2
    assert "unknown family" in err


def test_family_expand_bad_param(capsys):
    code, _, err = run(
        capsys, ["family", "expand", "gen_catalan", "--param", "m=1", "-N", "2"]
    )
    assert code == 2


def refused_quickly(capsys, argv):
    """The one stderr line of an argv that must exit 2 at once."""
    start = perf_counter()
    code, out, err = run(capsys, argv)
    assert perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    return err


def test_family_expand_refuses_a_huge_exponent_parameter(capsys):
    # b is the exponent of y and sizes a tuple of b + c - 2 zeros
    err = refused_quickly(capsys, [
        "family", "expand", "gen_two_var_fibonacci", "--param", "b=3000000000", "-N", "2"
    ])
    assert err == "error: gen_two_var_fibonacci: parameter b must be <= 65536\n"


def test_family_expand_refuses_a_huge_denominator_degree(capsys):
    err = refused_quickly(capsys, [
        "family", "expand", "gen_fibonacci", "--param", "m=100000000", "-N", "3"
    ])
    assert err == "error: gen_fibonacci: parameter m must be <= 65536\n"


def test_family_audit_pell_printed_mode(capsys):
    code, out, _ = run(
        capsys, ["family", "audit", "pell", "--mode", "printed", "-N", "2"]
    )
    assert code == 1
    assert "k=0: computed 1, stated 0 -> MISMATCH" in out
    assert "MISMATCH: printed-mode values disagree" in out


def test_family_audit_pell_default_mode_warns(capsys):
    code, out, _ = run(capsys, ["family", "audit", "pell", "-N", "2"])
    assert code == 0
    assert "WARN: printed-mode values disagree" in out


def test_family_audit_fibonacci_all_match(capsys):
    code, out, _ = run(
        capsys, ["family", "audit", "fibonacci", "--mode", "printed", "-N", "4"]
    )
    assert code == 0
    assert "MISMATCH" not in out
    assert "WARN" not in out
    assert "recurrence feedback vs table: match" in out


@pytest.mark.parametrize("name, warn", [
    ("horadam_first", "WARN: printed-mode values disagree at k=0, 1"),
    ("horadam_second", "WARN: canonical-mode values disagree at k=0"),
])
def test_family_audit_feedback_matches_when_q_is_zero(capsys, name, warn):
    # with q = 0 the table's formula has no t^2 term, and the derived one
    # ends at t; the two still agree
    code, out, _ = run(capsys, ["family", "audit", name, "--param", "q=0", "-N", "3"])
    assert code == 0
    assert "recurrence feedback vs table: match" in out
    assert [line for line in out.splitlines() if line.startswith("WARN")] == [warn]


def test_family_audit_that_fails_midway_prints_no_report(capsys):
    # P_2 of horadam_first holds p^2, of 8,001 digits: the report's first
    # lines are built before its expansion line fails to format
    p = "1" + "0" * 4000
    argv = ["family", "audit", "horadam_first", "--param", f"p={p}", "-N", "3"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: a coefficient has more than 4300 decimal digits\n"


def test_verify_that_fails_at_its_last_oracle_prints_no_report(capsys, monkeypatch):
    # the geometric, multinomial and convolution oracles pass before the
    # residual one fails: their PASS lines are built, never written
    def fail(*args):
        raise RatGenError("the residual failed")

    monkeypatch.setattr(cli, "identity_residual", fail)
    code, out, err = run(capsys, ["verify", "--num", "t", "--den", "1-x*t-t^2",
                                  "-N", "6", "--oracle", "all"])
    assert (code, out, err) == (2, "", "error: the residual failed\n")


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["expand", "--nonsense"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["verify", *FIB, "-N", "4", "--oracle", "psychic"])
    assert info.value.code == 2


LONG = "9" * 5000  # past the interpreter's 4,300-digit int/str limit


@pytest.mark.parametrize("argv, message", [
    (["expand", "--num", "1", "--den", "1 - 100000*t", "-N", "1000"],
     "a coefficient has more than"),
    (["expand", "--num", LONG, "--den", "1 - t", "-N", "1"],
     "integer literal of 5000 digits is too long (at position 0)"),
    (["expand", "--num", "1", "--den", "1 - x*t", "-N", "2", "--at", "x=" + LONG[:4000]],
     "the --at value at k=2 has more than"),
    (["expand", "--num", "1", "--den", "1 - x*t", "-N", "2", "--at", "x=" + LONG[:4400]],
     "the --at value for 'x' has more than"),
], ids=["format", "parse", "at-value", "at-input"])
def test_integers_past_digit_limit_exit_2(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and message in err
    assert len(err.encode()) < 200


def test_expand_high_power_reads_only_requested_orders(capsys):
    code, out, _ = run(
        capsys, ["expand", "--num", "1", "--den", "1-x*t", "--pow", "100000", "-N", "6"]
    )
    assert code == 0
    assert out.splitlines()[-1] == "P_6 = 1389097234028090281583350000*x^6"  # C(100005, 6)


def test_verify_high_power_folds_only_requested_orders(capsys):
    # B^1000 has 2,001 orders; every oracle reads only D_0..D_5
    code, out, err = run(capsys, [
        "verify", "--num", "1", "--den", "1-x*t-y*t^2", "--pow", "1000", "-N", "5",
        "--oracle", "all",
    ])
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        f"PASS {name} (N=5)"
        for name in ("geometric", "multinomial", "convolution", "residual")
    ]


def test_internal_error_exits_2_with_one_line(capsys, monkeypatch):
    def broken(gf, N):
        raise RuntimeError("boom")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "iter_family", broken)
        code, out, err = run(capsys, ["expand", *FIB, "-N", "2"])
    assert (code, out, err) == (2, "", "error: internal error: RuntimeError: boom\n")

    nested = "(" * 3000 + "t" + ")" * 3000
    code, out, err = run(capsys, ["expand", "--num", nested, "--den", "1 - t", "-N", "2"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_exit_codes_stay_in_contract(capsys, monkeypatch):
    # 0 success, 1 mismatch, 2 input error; nothing else
    cases = [  # (argv, order at which to corrupt the expansion, exit code)
        (["expand", *FIB, "-N", "2"], None, 0),
        (["verify", *FIB, "-N", "6", "--oracle", "geometric"], 1, 1),
        (["expand", "--num", "1", "--den", "t +", "-N", "2"], None, 2),
        (["family", "audit", "pell_lucas", "--mode", "printed", "-N", "2"], None, 1),
        (["family", "audit", "pell_lucas", "-N", "2"], None, 0),
    ]
    for argv, corrupt, expected in cases:
        with monkeypatch.context() as patch:
            if corrupt is not None:
                corrupt_expansion_at(patch, corrupt)
            code, _, _ = run(capsys, argv)
        assert code == expected, argv


def test_verify_expands_p_and_q_once(capsys, monkeypatch):
    real = recurrence.expand_family
    calls = []

    def counted(gf, N):
        calls.append(N)
        return real(gf, N)

    monkeypatch.setattr(recurrence, "expand_family", counted)
    monkeypatch.setattr(cli, "expand_family", counted)
    code, out, _ = run(capsys, ["verify", *FIB, "-N", "8", "--oracle", "all"])
    assert code == 0 and out.count("PASS") == 4
    # the engine's P; the geometric B^-h is checked to invert D and read as
    # Q, so Q is never expanded
    assert calls == [8]


def test_verify_catches_a_wrong_power_fold(capsys, monkeypatch):
    # the engine expands A/B^h from B, and so do the power oracles; the
    # convolution and residual oracles read the fold D = B^h
    real = recurrence.raise_denominator

    def one_power_short(B, h, N=None):
        return real(B, h - 1 if h > 0 else h, N)

    monkeypatch.setattr(recurrence, "raise_denominator", one_power_short)
    code, out, _ = run(capsys, [
        "verify", *FIB, "--pow", "3", "-N", "10", "--oracle", "all"
    ])
    assert code == 1
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "PASS geometric (N=10)", "PASS multinomial (N=10)", "FAIL convolution",
        "FAIL residual"
    ]
    assert all("first difference at k=2" in lines[i] for i in (2, 3))
    code, out, _ = run(capsys, ["expand", "--num", "1", "--den", "1-t", "--pow", "3",
                                "-N", "4"])
    assert (code, out) == (0, "".join(f"P_{k} = {v}\n"
                                      for k, v in enumerate((1, 3, 6, 10, 15))))


def test_verify_reads_the_denominator_only_to_order_n(capsys):
    # B_2000 lies past N = 3, and the oracles read B only to order N
    code, out, err = run(capsys, ["verify", "--num", "1", "--den", "1-t^2000",
                                  "--pow", "2", "-N", "3", "--oracle", "all"])
    assert (code, err) == (0, "")
    assert out == "".join(f"PASS {name} (N=3)\n" for name in
                          ("geometric", "multinomial", "convolution", "residual"))


def test_verify_catches_a_wrong_engine_power(capsys, monkeypatch):
    # the engine streams B^-h by Miller's loop and the power oracles build it
    # without that loop, so an engine one power short fails every line
    real = recurrence._iter_power

    def one_power_short(B, h, top):
        return real(B, h + 1 if h < 0 else h, top)

    monkeypatch.setattr(recurrence, "_iter_power", one_power_short)
    code, out, _ = run(capsys, [
        "verify", *FIB, "--pow", "3", "-N", "10", "--oracle", "all"
    ])
    assert (code, out) == (1, (
        "FAIL geometric: first difference at k=2: engine 2*x vs oracle 3*x\n"
        "FAIL multinomial: first difference at k=2: engine 2*x vs oracle 3*x\n"
        "FAIL convolution: first difference at k=2: engine 2*x vs oracle 3*x\n"
        "FAIL residual: first difference at k=2: engine x vs oracle 0\n"
    ))


def test_verify_catches_a_wrong_expansion_on_every_line(capsys, monkeypatch):
    # B^-h is right and only P_3 is off: every oracle series equals B^-h and
    # reads the one stored A * B^-h, which still differs from the engine at
    # k = 3, so no line takes the engine for A * B^-h
    def off_at_3(gf, N):
        P = list(expand_family(gf, N))
        P[3] = P[3] + Polynomial.one()
        return SeriesPrefix(P)

    monkeypatch.setattr(cli, "expand_family", off_at_3)
    calls = count_products(monkeypatch)
    code, out, _ = run(capsys, [
        "verify", *FIB, "--pow", "2", "-N", "10", "--oracle", "all"
    ])
    assert (code, calls) == (1, [10])
    assert out == (
        "FAIL geometric: first difference at k=3: engine 3*x^2 + 3 vs oracle 3*x^2 + 2\n"
        "FAIL multinomial: first difference at k=3: engine 3*x^2 + 3 vs oracle 3*x^2 + 2\n"
        "FAIL convolution: first difference at k=3: engine 3*x^2 + 3 vs oracle 3*x^2 + 2\n"
        "FAIL residual: first difference at k=3: engine -1 vs oracle 0\n"
    )


def count_products(monkeypatch) -> list:
    """Record each series the CLI's verify multiplies by A."""
    real, calls = cli.convolve_numerator, []

    def counted(A, Q):
        calls.append(Q.order)
        return real(A, Q)

    monkeypatch.setattr(cli, "convolve_numerator", counted)
    return calls


def count_inverses(monkeypatch) -> list:
    """Record the order of each Q = 1/D the CLI's verify expands."""
    real, calls = cli.expand_inverse, []

    def counted(D, N):
        calls.append(N)
        return real(D, N)

    monkeypatch.setattr(cli, "expand_inverse", counted)
    return calls


@pytest.mark.parametrize("power", [[], ["--pow", "2"]])
def test_verify_reads_no_stored_series_whose_first_order_is_not_one(
    capsys, monkeypatch, power
):
    # twice B^-h keeps (D * Y)_k = 0 for k >= 1, since D * 2Q = 2, but
    # Y_0 = 2: it does not invert D, so the convolution and residual lines
    # expand Q for themselves and pass
    real = cli.geometric_inverse
    monkeypatch.setattr(cli, "geometric_inverse", lambda B, N, h=1: SeriesPrefix(
        [p.scale(2) for p in real(B, N, h)]))
    inverses = count_inverses(monkeypatch)
    code, out, _ = run(capsys, ["verify", "--num", "t", "--den", "1 - x*t - t^2",
                                "-N", "10", "--oracle", "all", *power])
    assert code == 1 and inverses == [10]
    assert out == (
        "FAIL geometric: first difference at k=1: engine 1 vs oracle 2\n"
        "FAIL multinomial: first difference at k=0: engine 1 vs oracle 2\n"
        "PASS convolution (N=10)\nPASS residual (N=10)\n"
    )


@pytest.mark.parametrize("power", [[], ["--pow", "2"]])
def test_verify_multiplies_a_into_each_distinct_series_once(capsys, monkeypatch, power):
    # on a PASS the geometric, multinomial and convolution series agree, so
    # A * B^-h is formed once and read at each line's order, and the stored
    # B^-h inverts D = B^h, so Q is never expanded
    calls = count_products(monkeypatch)
    inverses = count_inverses(monkeypatch)
    code, out, _ = run(capsys, ["verify", *FIB, "-N", "20", "--oracle", "all", *power])
    assert code == 0 and out.count("PASS") == 4
    assert (calls, inverses) == ([20], [])


def test_verify_catches_a_wrong_geometric_weight(capsys, monkeypatch):
    # the geometric oracle weights H^k by C(k+h-1, k); one off in the top
    # argument builds B^-(h-1) instead, which fails both checks that read
    # it, while convolution and residual, which never read it, pass.  The
    # other series then differ from the first one multiplied, so each gets
    # its own product.
    monkeypatch.setattr(series, "comb", lambda n, k: math.comb(n - 1, k))
    calls = count_products(monkeypatch)
    inverses = count_inverses(monkeypatch)
    code, out, _ = run(capsys, [
        "verify", *FIB, "--pow", "3", "-N", "10", "--oracle", "all"
    ])
    # the stored B^-(h-1) does not invert D = B^h, so Q is expanded once
    assert code == 1 and calls == [10, 10, 10] and inverses == [10]
    assert out == (
        "FAIL geometric: first difference at k=2: engine 3*x vs oracle 2*x\n"
        "FAIL multinomial: first difference at k=1: engine 3*x vs oracle 2*x\n"
        "PASS convolution (N=10)\nPASS residual (N=10)\n"
    )


def test_verify_multiplies_a_series_that_differs_on_its_own(capsys, monkeypatch):
    # a multinomial B^-h off at k = 3 misses the stored product and fails
    # its own line there; the lines around it still pass
    real = cli.multinomial_inverse

    def off_at_3(B, N, h=1):
        coeffs = list(real(B, N, h))
        coeffs[3] = coeffs[3] + Polynomial.one()
        return SeriesPrefix(coeffs)

    monkeypatch.setattr(cli, "multinomial_inverse", off_at_3)
    calls = count_products(monkeypatch)
    code, out, _ = run(capsys, ["verify", "--num", "1", "--den", "1 - x*t - t^2",
                                "--pow", "2", "-N", "8", "--oracle", "all"])
    assert code == 1 and calls == [8, 8]
    assert out == (
        "PASS geometric (N=8)\n"
        "FAIL multinomial: first difference at k=3: "
        "engine 4*x^3 + 6*x vs oracle 4*x^3 + 6*x + 1\n"
        "PASS convolution (N=8)\nPASS residual (N=8)\n"
    )


def expansion_off_at_3(monkeypatch):
    """An engine whose B^-h is right and whose P_3 is one off."""
    def off_at_3(gf, N):
        P = list(expand_family(gf, N))
        P[3] = P[3] + Polynomial.one()
        return SeriesPrefix(P)

    monkeypatch.setattr(cli, "expand_family", off_at_3)


def inverse_power_off_at_2(monkeypatch):
    """An engine whose B^-h is one off at k = 2, and so P = t * B^-h at k = 3."""
    real = recurrence._iter_power

    def off_at_2(B, h, top):
        D = list(real(B, h, top))
        if h < 0:
            D[2] = D[2] + Polynomial.one()
        return iter(D)

    monkeypatch.setattr(recurrence, "_iter_power", off_at_2)


@pytest.mark.parametrize("fault", [expansion_off_at_3, inverse_power_off_at_2])
def test_multinomial_alone_checks_the_engine_and_folds_no_power(
    capsys, monkeypatch, fault
):
    # a wrong P_3 fails the multinomial line on its own, whether B^-h is
    # right or not; neither it nor the geometric line reads D = B^h, so
    # neither folds it
    def refuse(*args):
        raise AssertionError("B^h was folded")

    monkeypatch.setattr(RationalGF, "reduced_denominator", refuse)
    for oracle in ("multinomial", "geometric"):
        code, out, _ = run(capsys, ["verify", *FIB, "--pow", "2", "-N", "6",
                                    "--oracle", oracle])
        assert (code, out) == (0, f"PASS {oracle} (N=6)\n")
    fault(monkeypatch)
    code, out, _ = run(capsys, ["verify", *FIB, "--pow", "2", "-N", "6",
                                "--oracle", "multinomial"])
    assert code == 1 and out.startswith("FAIL multinomial: first difference at k=3")


def test_high_power_expansion_does_linear_work_per_order(capsys, monkeypatch):
    # A * B^-h costs n + m + 1 products per order; the fold B^h it replaces
    # needed min(k, h*n) products at order k, about N^2/2 in all
    calls = []
    for module in (recurrence, series):
        real = module.add_product_into

        def counted(acc, p, q, real=real):
            calls.append(1)
            real(acc, p, q)

        monkeypatch.setattr(module, "add_product_into", counted)
    code, out, _ = run(capsys, ["expand", "--num", "1", "--den", "1-x*t-y*t^2",
                                "--pow", "40", "-N", "17"])
    N, n, m = 17, 2, 0
    assert code == 0 and out.count("\n") == N + 1
    assert 0 < len(calls) <= (N + 1) * (n + m + 2)


# x^4294901760 = (x^65536)^65535 fits under MAX_DEGREE = 2^32 - 1; twice it does not
HIGH = "(x^65536)^65535"
HALF = "(x^65536)^32768"  # x^(2^31)


@pytest.mark.parametrize("argv", [
    ["expand", "--num", "1", "--den", f"1 - {HIGH}*t", "-N", "2"],  # Recurrence.expand
    ["expand", "--num", "1", "--den", f"1 - {HALF}*t", "--pow", "2", "-N", "2"],
    ["verify", "--num", "1", "--den", f"1 - {HALF}*t", "-N", "2", "--oracle", "all"],
    ["expand", "--num", "(x^65536)^65536", "--den", "1 - t", "-N", "0"],  # parse
    ["expand", "--num", "1", "--den", f"1 - {HALF}*t^2", "-N", "4"],  # P_4 = x^(2^32)
], ids=["expand", "pow", "verify", "parse", "expand_t2"])
def test_degree_past_the_bound_exits_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "exceeds the bound 4294967295" in err


def test_degree_up_to_the_bound_is_exact(capsys):
    code, out, _ = run(capsys, ["expand", "--num", "1", "--den", f"1 - {HIGH}*t", "-N", "1"])
    assert (code, out) == (0, "P_0 = 1\nP_1 = x^4294901760\n")
    code, out, _ = run(capsys, [
        "verify", "--num", "1", "--den", f"1 - {HALF}*t", "-N", "1", "--oracle", "all"
    ])
    assert code == 0 and out.count("PASS") == 4
    # deg B_2 = 2^31 raises the degree by 2^31 every two orders, not every order
    code, out, _ = run(capsys, ["expand", "--num", "1", "--den", f"1 - {HALF}*t^2", "-N", "3"])
    assert (code, out) == (0, "P_0 = 1\nP_1 = 0\nP_2 = x^2147483648\nP_3 = 0\n")
    code, out, _ = run(capsys, [
        "expand", "--num", "1", "--den", f"1 - {HALF}*t^2", "--pow", "2", "-N", "3"
    ])
    assert (code, out) == (0, "P_0 = 1\nP_1 = 0\nP_2 = 2*x^2147483648\nP_3 = 0\n")
    code, out, _ = run(capsys, [
        "verify", "--num", "1", "--den", f"1 - {HALF}*t^2", "-N", "3", "--oracle", "all"
    ])
    assert code == 0 and out.count("PASS") == 4


# the CLI in a fresh interpreter, whose interning table starts empty
FRESH_CLI = (sys.executable, "-m", "ratgen.cli")
FRESH_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


def _cli_fresh(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([*FRESH_CLI, *argv], env=FRESH_ENV, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("num, first", [
    # (1+x+y)^300's 45,451 terms, order by order; the binary powering that
    # Miller's kernel replaced took about 46 s on a 2-core machine
    ("(1+x+y)^300", "P_0 = x^300 + 300*x^299*y"),
    # weights 0, 1 and 65536: the kernel tries only sums of nonzero orders
    # and weights, not the 131,073 orders between 0 and 2*65536
    ("(1+x+x^65536)^2", "P_0 = x^131072 + 2*x^65537 + 2*x^65536 + x^2 + 2*x + 1\n"),
    # x and y tie, and the tie-break puts x^65536 about 4.3e9 weights away
    ("(x+y+x^65536)^2", "P_0 = x^131072 + 2*x^65537 + 2*x^65536*y + x^2 + 2*x*y + y^2\n"),
])
def test_a_power_of_a_sum_expands_in_seconds(num, first):
    start = perf_counter()
    done = _cli_fresh("expand", "--num", num, "--den", "1-t", "-N", "0")
    assert done.returncode == 0 and done.stdout.startswith(first)
    assert perf_counter() - start < 15


def test_more_variable_names_than_the_table_holds_exit_2():
    def names(n):
        return "+".join(f"v{i}" for i in range(1, n + 1))

    verify = ["--den", "1 - t", "-N", "2", "--oracle", "all"]
    done = _cli_fresh("verify", "--num", names(MAX_VARIABLES - 16), *verify)
    assert done.returncode == 0 and done.stdout.count("PASS") == 4
    done = _cli_fresh("verify", "--num", names(MAX_VARIABLES + 1), *verify)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (
        f"error: in --num expression: more than {MAX_VARIABLES} distinct variable names\n"
    )


def test_repeated_main_calls_share_one_parser_and_no_state(capsys):
    catalan = ["family", "expand", "gen_catalan", "-N", "6", "--format", "json"]
    code, with_m, _ = run(capsys, [*catalan[:3], "--param", "m=3", "--param", "A=x",
                                   *catalan[3:]])
    assert code == 0 and '"m": "3"' in with_m
    code, default, _ = run(capsys, catalan)
    assert code == 0
    fresh = _cli_fresh(*catalan)
    assert fresh.returncode == 0 and default == fresh.stdout
    assert '"m": "2"' in default and '"A": "0"' in default
    code, again, _ = run(capsys, [*catalan[:3], "--param", "A=1", *catalan[3:]])
    assert code == 0 and '"m": "2"' in again and '"A": "1"' in again
    assert cli._arg_parser() is cli._arg_parser()


def test_verify_all_builds_the_geometric_inverse_once(capsys, monkeypatch):
    orders = []
    real = cli.geometric_inverse

    def counted(B, N, h):
        orders.append(N)
        return real(B, N, h)

    monkeypatch.setattr(cli, "geometric_inverse", counted)
    code, out, _ = run(capsys, ["verify", *FIB, "-N", "20", "--oracle", "all"])
    assert code == 0 and out.count("PASS") == 4 and "capped at N=12" in out
    assert orders == [20]
    code, out, _ = run(capsys, ["verify", *FIB, "-N", "8", "--oracle", "multinomial"])
    assert code == 0 and out.startswith("PASS multinomial")
    assert orders == [20, 8]


# -- the streamed expansion ---------------------------------------------------

class _CountingStdout:
    """A stdout that counts the characters written and keeps none of them."""

    def __init__(self) -> None:
        self.chars = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return len(text)

    def writelines(self, lines) -> None:
        for line in lines:
            self.write(line)

    def flush(self) -> None:
        pass


@pytest.mark.parametrize("argv", [
    *(["family", "expand", "fibonacci", "-N", "600", "--format", fmt]
      for fmt in ("text", "json", "csv")),
    ["expand", *FIB, "--pow", "2", "-N", "600"],  # B^-2 streamed into A * B^-2
], ids=["text", "json", "csv", "pow2"])
def test_expand_memory_is_about_the_output_text(argv):
    # the rows come from a window of max(n, m+1) polynomials, so what is held
    # at the peak is the output text, not P_0..P_N and a second copy of the text
    with redirect_stdout(_CountingStdout()):
        assert main(argv) == 0  # builds the parser and fills the caches
    stdout = _CountingStdout()
    tracemalloc.start()
    try:
        with redirect_stdout(stdout):
            assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stdout.chars > 6_000_000
    assert peak <= 2 * stdout.chars


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("argv, message", [
    ([*FIB, "-N", "3", "--at", "y=1"], "--at is incomplete at k=2"),
    (["--num", "1", "--den", "1 - 10^4400*t", "-N", "1"], "a coefficient has more than"),
    (["--num", "1", "--den", "1 - x*t", "-N", "3", "--at", "x=" + LONG[:3000]],
     "the --at value at k=2 has more than"),
], ids=["missing-variable", "coefficient", "at-value"])
def test_a_failing_row_leaves_stdout_empty_in_every_format(capsys, argv, message, fmt):
    code, out, err = run(capsys, ["expand", *argv, "--format", fmt])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=12)
DIGITS = st.integers(-10**30, 10**30).map(str)


@settings(max_examples=200, deadline=None)
@given(
    query=st.fixed_dictionaries(
        {"command": st.sampled_from(["expand", "family expand"]),
         "N": st.integers(0, 10**6),
         "at": st.none() | st.dictionaries(ANY_TEXT, DIGITS, max_size=3)},
        optional={"num": ANY_TEXT, "den": ANY_TEXT, "pow": st.integers(1, 10**6),
                  "family": ANY_TEXT, "mode": ANY_TEXT,
                  "params": st.dictionaries(ANY_TEXT, ANY_TEXT, max_size=3)},
    ),
    cells=st.lists(st.tuples(ANY_TEXT, st.none() | DIGITS), min_size=1, max_size=5),
)
def test_json_rows_are_written_as_json_dumps_writes_the_document(query, cells):
    # an expansion has at least one row, P_0
    rows = [(k, poly, value) for k, (poly, value) in enumerate(cells)]
    results = [{"k": k, "poly": poly, **({} if value is None else {"value": value})}
               for k, poly, value in rows]
    expected = json.dumps({"query": query, "results": results}, indent=2, sort_keys=True)
    assert "".join(cli._json_lines(query, rows)) == expected + "\n"


# -- a reader that stops early ---------------------------------------------------

def _spawn_cli(*argv: str, stdout) -> subprocess.Popen:
    return subprocess.Popen([*FRESH_CLI, *argv], stdout=stdout, stderr=subprocess.PIPE,
                            env=FRESH_ENV)


def test_a_reader_closing_the_pipe_early_is_not_a_crash():
    # `ratgen family expand fibonacci -N 600 | head -c 50`: 6 MB into a pipe
    # whose reader is gone after 50 bytes
    proc = _spawn_cli("family", "expand", "fibonacci", "-N", "600",
                      stdout=subprocess.PIPE)
    head = proc.stdout.read(50)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE == 141
    assert head.startswith(b"P_0 = 0\nP_1 = 1\n") and err == b""


@pytest.mark.parametrize("argv", [
    ["expand", *FIB, "-N", "3"],  # fits the stdout buffer: fails at the flush
    ["verify", *FIB, "-N", "3", "--oracle", "all"],
    ["family", "list"],
])
def test_a_pipe_closed_before_the_first_write_exits_141_silently(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # nobody will ever read
    try:
        proc = _spawn_cli(*argv, stdout=write_end)
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (141, b"")
