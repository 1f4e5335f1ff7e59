"""Expression parsing, canonical formatting, and the t-split."""

import json
import os
import random
import re
import string
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_poly, reference_format
from ratgen.errors import ExponentTooLarge, NegativeExponent, ParseError, TooManyDigits
from ratgen import parser
from ratgen.parser import MAX_NESTING, format_poly, join_in_t, parse_poly, split_in_t
from ratgen.poly import MAX_DEGREE, Polynomial

x = Polynomial.variable("x")
one = Polynomial.one()
zero = Polynomial.zero()


def tvar(exp: int = 1) -> Polynomial:
    return Polynomial({(("t", exp),): 1})


def test_parse_fibonacci_denominator():
    p = parse_poly("1 - x*t - t^2")
    assert split_in_t(p) == (one, -x, -one)


def test_parse_zero():
    assert parse_poly("0") == zero
    assert parse_poly("x - x") == zero


def test_parse_negative_exponent():
    with pytest.raises(NegativeExponent):
        parse_poly("t^-1")


def test_parse_exponent_too_large():
    with pytest.raises(ExponentTooLarge):
        parse_poly("x^65537")
    assert parse_poly("x^65536") == x**65536
    with pytest.raises(ExponentTooLarge):
        parse_poly("x^65537")


@pytest.mark.parametrize("opening", ["(", "-"])
def test_deep_nesting_is_a_positioned_parse_error(opening):
    src = opening * 3000 + "t" + (")" * 3000 if opening == "(" else "")
    with pytest.raises(ParseError) as info:
        parse_poly(src)
    assert info.value.position == MAX_NESTING
    depth = MAX_NESTING // 2  # one level each for '(' and '-'
    assert parse_poly("-(" * depth + "x" + ")" * depth) == x


def test_parse_precedence():
    assert parse_poly("1 + 2*3") == Polynomial.constant(7)
    assert parse_poly("(1 + 2)*3") == Polynomial.constant(9)
    assert parse_poly("2*x^2") == Polynomial.term(2, {"x": 2})
    assert parse_poly("(x + 1)^2") == x**2 + Polynomial.term(2, {"x": 1}) + one


def test_unary_minus_binds_looser_than_exponent():
    assert parse_poly("-x^2") == -(x**2)
    assert parse_poly("(-x)^2") == x**2
    assert parse_poly("--x") == x
    assert parse_poly("1 - -x") == one + x


def test_parse_requires_explicit_multiplication():
    # "xt" is one identifier, not x*t
    p = parse_poly("xt")
    assert p.variables() == frozenset({"xt"})
    with pytest.raises(ParseError):
        parse_poly("2x")


def test_parse_error_positions():
    with pytest.raises(ParseError) as info:
        parse_poly("x + ")
    assert info.value.position == 4
    with pytest.raises(ParseError) as info:
        parse_poly("x $ y")
    assert info.value.position == 2
    with pytest.raises(ParseError) as info:
        parse_poly("(x + 1")
    assert info.value.position == 6


def test_parse_rejects_garbage():
    for bad in ("", "*x", "x*", "x^", "x^y", "()", "x + + y", "_x", "x!"):
        with pytest.raises(ParseError):
            parse_poly(bad)


def test_whitespace_is_every_character_str_isspace_accepts():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    spaces = "".join(filter(str.isspace, every))
    assert "".join(re.findall(r"\s", every)) == spaces  # what the scanner's \s reads
    assert {"\u00a0", "\u2003", "\u3000", "\x1c"} <= set(spaces)
    for space in spaces:
        src = f"{space}x{space}+{space}2{space}*{space}y{space}^{space}3{space}"
        assert parse_poly(src) == x + Polynomial.term(2, {"y": 3}), repr(space)
    with pytest.raises(ParseError) as info:
        parse_poly("x +\u200b y")  # a zero-width space is not whitespace
    assert info.value.position == 3


@pytest.mark.parametrize("src, char, position", [
    ("\u00e9 + x", "\u00e9", 0),
    ("x + a\u00df", "\u00df", 5),
    ("x*\u01c5", "\u01c5", 2),
    ("caf\u00e9_2 - 1", "\u00e9", 3),
    ("\u00a0\u00df", "\u00df", 1),
])
def test_non_ascii_letters_are_refused_where_they_stand(src, char, position):
    with pytest.raises(ParseError) as info:
        parse_poly(src)
    assert info.value.position == position
    assert str(info.value) == f"unexpected character {char!r} (at position {position})"


def test_parse_big_integer_literal():
    big = 10**40
    assert parse_poly(str(big)) == Polynomial.constant(big)


def test_format_examples():
    assert format_poly(x**2 + one) == "x^2 + 1"
    assert format_poly(zero) == "0"
    assert format_poly(-one) == "-1"
    assert format_poly(-x) == "-x"
    assert format_poly(one - x) == "-x + 1"
    assert format_poly(Polynomial.term(2, {"x": 1})) == "2*x"
    assert format_poly(Polynomial.term(-3, {"x": 2, "y": 1})) == "-3*x^2*y"


def test_format_graded_lex_order():
    y = Polynomial.variable("y")
    p = one + x**2 + x * y + y**2 + x
    assert format_poly(p) == "x^2 + x*y + y^2 + x + 1"


# Interned here in scrambled order, so their exponent fields do not follow
# the alphabetical order that formatting uses.
FORMAT_VARS = ("fmt_d", "fmt_a", "fmt_c", "fmt_b")
for _name in FORMAT_VARS:
    Polynomial.variable(_name)
LARGEST = 10**sys.get_int_max_str_digits() - 1  # the widest coefficient str() allows


@st.composite
def term_maps(draw):
    names = draw(st.lists(st.sampled_from(FORMAT_VARS), unique=True, max_size=4))
    exponent = st.one_of(st.integers(0, 3), st.integers(0, MAX_DEGREE))
    magnitude = st.one_of(
        st.integers(0, 3), st.integers(0, LARGEST), st.integers(LARGEST // 10, LARGEST)
    )
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        budget, mono = MAX_DEGREE, []
        for name in names:
            e = min(draw(exponent), budget)
            budget -= e
            if e:
                mono.append((name, e))
        sign = draw(st.sampled_from((1, -1)))
        terms[tuple(sorted(mono))] = sign * draw(magnitude)
    return terms


@settings(max_examples=300, deadline=None)
@given(term_maps())
def test_format_matches_the_reference_formatter(terms):
    p = Polynomial(terms)
    text = format_poly(p)
    assert text == reference_format(terms)
    assert text == reference_format(dict(p.items()))


@st.composite
def signed_term_maps(draw):
    """Mixed signs, unit coefficients and coefficients of several hundred
    digits, on usual and scrambled names, with exponents parse_poly reads."""
    names = draw(st.lists(st.sampled_from(("x", "y", "z") + FORMAT_VARS),
                          unique=True, max_size=4))
    magnitude = st.one_of(st.just(1), st.integers(2, 9), st.integers(10**199, 10**600))
    terms = {}
    for _ in range(draw(st.integers(0, 10))):
        mono = tuple(sorted((n, e) for n in names if (e := draw(st.integers(0, 4)))))
        terms[mono] = draw(st.sampled_from((1, -1))) * draw(magnitude)
    return terms


@settings(max_examples=300, deadline=None)
@given(signed_term_maps())
def test_format_matches_the_reference_and_parses_back(terms):
    p = Polynomial(terms)
    text = format_poly(p)
    assert text == reference_format(terms)
    assert parse_poly(text) == p


def test_coefficient_past_the_digit_limit_raises():
    for p in (Polynomial.constant(LARGEST + 1), x - Polynomial.term(-LARGEST - 1, {"x": 2})):
        with pytest.raises(TooManyDigits):
            format_poly(p)
    assert format_poly(Polynomial.term(-LARGEST, {"x": 2}) + x) == f"-{LARGEST}*x^2 + x"


def test_power_text_cache_stays_bounded_in_a_fresh_interpreter():
    # under a 1 GiB address-space limit, a text table indexed by exponent would
    # fail on x^4294901760 instead of exhausting the host's memory; each of
    # these columns passes the table's bound, so its texts are formatted uncached
    script = textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from ratgen import parser
        from ratgen.poly import MAX_DEGREE, Polynomial
        x = Polynomial.variable("x")
        print(parser.format_poly(x**4294901760), parser.format_poly(x**MAX_DEGREE))
        many = range(1, 2 * parser.EXPONENT_TEXT_TABLE_SIZE)
        dense = Polynomial({(("x", e),): 1 for e in many})
        assert parser.format_poly(dense).count(" + ") == len(many) - 1
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    [texts] = done.stdout.splitlines()
    assert texts == f"x^4294901760 x^{MAX_DEGREE}"


def test_exponent_text_table_stays_within_its_total_bound():
    # 200 names, each formatted up to an exponent just under the bound, would
    # fill 200 tables if the bound were per name; run in a fresh interpreter
    # so the names and the table start empty, under a 1 GiB address-space limit
    script = textwrap.dedent("""
        import json
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from ratgen import parser
        from ratgen.poly import MAX_DEGREE, Polynomial
        bound = parser.EXPONENT_TEXT_TABLE_SIZE
        out = {}
        x = Polynomial.variable("x")
        out["top"] = parser.format_poly(x**MAX_DEGREE)
        out["past"] = parser.format_poly(x**(bound + 1) - x)
        names = [f"n{i}" for i in range(200)]
        exponents = (0, 1, 2, 3, bound // 2, bound - 2, bound - 1)
        out["texts"] = [
            parser.format_poly(Polynomial({((name, e),) if e else (): -e or 1 for e in exponents}))
            for name in names
        ]
        tables = parser._EXPONENT_TEXTS
        out["held"] = sum(map(len, tables.values()))
        out["exact"] = all(
            text == parser._power_text(name, e)
            for name, table in tables.items() for e, text in enumerate(table)
        )
        out["tables"] = sorted(name for name, table in tables.items() if table)
        print(json.dumps(out))
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    bound = parser.EXPONENT_TEXT_TABLE_SIZE
    assert out["top"] == f"x^{MAX_DEGREE}"
    assert out["past"] == f"x^{bound + 1} - x"
    for i, text in enumerate(out["texts"]):
        n = f"n{i}"
        assert text == (
            f"-{bound - 1}*{n}^{bound - 1} - {bound - 2}*{n}^{bound - 2}"
            f" - {bound // 2}*{n}^{bound // 2} - 3*{n}^3 - 2*{n}^2 - {n} + 1"
        )
    assert 0 < out["held"] <= bound
    assert out["exact"]
    assert out["tables"] == ["n0"]  # the first name filled the table; the rest fell back


def test_round_trip_fixed_cases():
    for src in ("0", "1", "-1", "x", "-x", "x^2 + 1", "2*x - 3",
                "x^2*y - y^2 + 7", "-x^3 + x - 1"):
        p = parse_poly(src)
        assert format_poly(p) == src
        assert parse_poly(format_poly(p)) == p


def test_round_trip_randomized():
    rng = random.Random(60221)
    for _ in range(400):
        p = random_poly(
            rng,
            variables=("x", "y", "z", "t"),
            max_terms=5,
            max_degree=6,
            coeff_bound=99,
        )
        assert parse_poly(format_poly(p)) == p


@settings(max_examples=300)
@given(st.text(alphabet=string.printable, max_size=40))
def test_parser_totality_on_fuzzed_input(src):
    # every input yields a polynomial or a positioned error, never a crash
    try:
        parse_poly(src)
    except ParseError as exc:
        assert isinstance(exc.position, int)


def test_split_t_alone():
    assert split_in_t(tvar()) == (zero, one)


def test_split_pell_lucas_numerator():
    p = parse_poly("2*x + 2*t")
    assert split_in_t(p) == (Polynomial.term(2, {"x": 1}), Polynomial.constant(2))


def test_split_zero():
    assert split_in_t(zero) == (zero,)


def test_split_skips_missing_orders():
    p = parse_poly("t^3 - x")
    assert split_in_t(p) == (-x, zero, zero, one)


def test_split_join_inverse():
    rng = random.Random(31415)
    for _ in range(200):
        p = random_poly(
            rng, variables=("x", "y", "t"), max_terms=4, max_degree=4
        )
        parts = split_in_t(p)
        assert join_in_t(parts) == p
        assert all(not q.mentions("t") for q in parts)


def test_join_split_inverse_on_coefficient_lists():
    rng = random.Random(92653)
    for _ in range(100):
        parts = [random_poly(rng) for _ in range(rng.randint(1, 4))]
        while len(parts) > 1 and parts[-1].is_zero():
            parts.pop()
        assert split_in_t(join_in_t(parts)) == tuple(parts)
