"""CLI contract: flags, formats, exit codes, deterministic output."""

import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import validate

from ratgen import cli, recurrence
from ratgen.cli import main
from ratgen.poly import MAX_VARIABLES, Polynomial
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
        patch.setattr(cli, "derive_recurrence", broken)
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
    assert calls == [8, 8]  # the engine's P and the inverse sequence Q


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


def _cli_fresh(*argv: str) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, whose interning table starts empty."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "ratgen.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )


def test_more_variable_names_than_the_table_holds_exit_2():
    def names(n):
        return "+".join(f"v{i}" for i in range(1, n + 1))

    verify = ["--den", "1 - t", "-N", "2", "--oracle", "all"]
    done = _cli_fresh("verify", "--num", names(MAX_VARIABLES - 16), *verify)
    assert done.returncode == 0 and done.stdout.count("PASS") == 4
    done = _cli_fresh("verify", "--num", names(MAX_VARIABLES), *verify)
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

    def counted(B, N):
        orders.append(N)
        return real(B, N)

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


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_expand_memory_is_about_the_output_text(fmt):
    # the rows come from a window of `order` polynomials, so what is held at
    # the peak is the output text, not P_0..P_N and a second copy of the text
    argv = ["family", "expand", "fibonacci", "-N", "600", "--format", fmt]
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
