"""Catalog contents, parameter validation, and the initial-value auditor."""

import pytest

from ratgen.errors import BadParameter, TooManyDigits, UnknownFamily
from ratgen.families import audit, build_parts, instantiate, list_families
from ratgen.parser import MAX_EXPONENT, parse_poly, split_in_t
from ratgen.poly import Polynomial
from ratgen.recurrence import expand_family

x = Polynomial.variable("x")
y = Polynomial.variable("y")
one = Polynomial.one()
zero = Polynomial.zero()
c = Polynomial.constant

EXPECTED_NAMES = (
    "catalan",
    "fibonacci",
    "gen_catalan",
    "gen_fibonacci",
    "gen_lucas",
    "gen_two_var_fibonacci",
    "horadam_first",
    "horadam_second",
    "jacobsthal",
    "pell",
    "pell_lucas",
)


def test_catalog_listing():
    names = tuple(spec.name for spec in list_families())
    assert names == EXPECTED_NAMES
    assert len(names) == 11
    # stable across calls
    assert names == tuple(spec.name for spec in list_families())


def test_every_family_instantiates_with_defaults():
    for spec in list_families():
        for mode in ("printed", "canonical"):
            gf = instantiate(spec.name, None, mode)
            expand_family(gf, 5)


def test_unknown_family():
    with pytest.raises(UnknownFamily):
        instantiate("nonsense")
    with pytest.raises(UnknownFamily):
        audit("nonsense")


def test_bad_parameters():
    with pytest.raises(BadParameter):
        instantiate("gen_catalan", {"m": 1})
    with pytest.raises(BadParameter):
        instantiate("gen_catalan", {"m": "two"})
    with pytest.raises(BadParameter):
        instantiate("gen_catalan", {"m": True})
    with pytest.raises(BadParameter):
        instantiate("gen_catalan", {"bogus": 3})
    with pytest.raises(BadParameter):
        instantiate("fibonacci", {"m": 2})
    with pytest.raises(BadParameter):
        instantiate("gen_catalan", {"A": parse_poly("t + 1")})
    with pytest.raises(BadParameter):
        instantiate("fibonacci", None, "weird-mode")


def test_size_parameters_stop_at_the_exponent_bound():
    # the integers that size a tuple or an exponent stop at MAX_EXPONENT;
    # the coefficients p and q are unbounded
    for name, param in [("gen_fibonacci", "m"), ("gen_lucas", "m"), ("gen_catalan", "m"),
                        ("gen_two_var_fibonacci", "a"), ("gen_two_var_fibonacci", "b"),
                        ("gen_two_var_fibonacci", "c")]:
        build_parts(name, {param: MAX_EXPONENT})
        with pytest.raises(BadParameter, match=f"parameter {param} must be <= {MAX_EXPONENT}"):
            build_parts(name, {param: MAX_EXPONENT + 1})
    huge = 10**30
    parts, _ = build_parts("horadam_first", {"p": huge, "q": huge})
    assert parts.denominator == (one, c(-huge) * x, c(-huge))


def test_parameters_past_the_digit_limit_raise_a_typed_error():
    huge = 10**5000
    with pytest.raises(TooManyDigits, match="^horadam_first: parameter p has more than"):
        build_parts("horadam_first", {"p": huge})
    with pytest.raises(TooManyDigits, match="^gen_catalan: parameter A has more than"):
        build_parts("gen_catalan", {"A": c(huge) * x})


def test_audit_keeps_a_stated_value_of_zero():
    # P_1 = A + m = 0: the stated values end in zero, and both are compared
    report = audit("gen_catalan", {"m": 2, "A": -2}, 3)
    for mode in ("printed", "canonical"):
        checks = report.mode(mode).checks
        assert [(chk.k, chk.stated, chk.match) for chk in checks] == [
            (0, one, True), (1, zero, True)
        ]


def test_fibonacci_components():
    gf = instantiate("fibonacci", None, "printed")
    assert gf.numerator == (zero, one)
    assert gf.denominator == (one, -x, -one)
    assert instantiate("fibonacci") == gf  # canonical reading is identical


def test_gen_catalan_components():
    gf = instantiate("gen_catalan", {"m": 2, "A": 0}, "printed")
    assert gf.numerator == (one,)
    assert gf.denominator == (one, c(-2), x)
    s = expand_family(gf, 2)
    assert s[0] == one
    assert s[1] == c(2)  # A + m with A = 0, m = 2


def test_pell_canonical_numerator_is_t():
    gf = instantiate("pell", None, "canonical")
    assert gf.numerator == (zero, one)
    assert gf.denominator == (one, c(-2) * x, -one)
    printed = instantiate("pell", None, "printed")
    assert printed.numerator == (one,)


def test_pell_lucas_canonical_numerator():
    gf = instantiate("pell_lucas", None, "canonical")
    assert gf.numerator == (c(2), c(-2) * x)
    s = expand_family(gf, 1)
    assert s.coeffs == (c(2), c(2) * x)


def test_audit_catalan_matches():
    report = audit("catalan", None, 4)
    assert report.printed.all_match
    assert report.canonical.all_match
    assert report.feedback_match
    assert report.canonical.expansion[0] == one
    assert report.canonical.expansion[1] == one


def test_audit_pell_lucas_printed_mismatch():
    report = audit("pell_lucas", None, 2)
    assert report.printed.mismatches == (0, 1)
    assert report.printed.expansion[0] == c(2) * x
    assert report.printed.checks[0].stated == c(2)
    assert report.canonical.all_match


def test_audit_fibonacci_both_modes():
    report = audit("fibonacci", None, 4)
    assert report.printed.all_match
    assert report.canonical.all_match


def test_audit_pell_and_horadam_first_printed_mismatches():
    for name in ("pell", "horadam_first"):
        report = audit(name, None, 3)
        assert report.printed.mismatches == (0, 1)
        assert report.canonical.all_match


def test_audit_horadam_second_reports_constant_term_discrepancy():
    # the printed row states 2 at k=0 but its numerator produces 1;
    # no canonical fixup exists, so both modes disagree at k=0 only
    report = audit("horadam_second", None, 3)
    assert report.printed.mismatches == (0,)
    assert report.canonical.mismatches == (0,)
    assert report.printed.checks[1].match  # p=1 default: computed x, stated x


def test_audit_jacobsthal_offset_convention():
    report = audit("jacobsthal", None, 4)
    assert report.canonical.all_match
    assert [chk.stated for chk in report.canonical.checks] == [zero, one, one]


def test_audit_feedback_against_table():
    # a zero coefficient of the formula must not leave a trailing zero
    zeros = [(name, params) for name in ("horadam_first", "horadam_second")
             for params in ({"q": 0}, {"p": 0}, {"p": 0, "q": 0})]
    for name, params in [(spec.name, None) for spec in list_families()] + zeros:
        report = audit(name, params, 2)
        assert report.feedback_match, (name, params)
    assert audit("horadam_first", {"p": 0, "q": 0}).feedback_expected == ()


def test_gen_catalan_recurrence_structure():
    # P_1 = A + m, then P_k = m P_{k-1} below order m, minus x P_{k-m} after
    A = x + c(2)
    for m in (2, 3, 4, 5):
        gf = instantiate("gen_catalan", {"m": m, "A": A})
        s = expand_family(gf, 20)
        assert s[0] == one
        assert s[1] == A + c(m)
        for k in range(2, m):
            assert s[k] == c(m) * s[k - 1]
        for k in range(m, 21):
            assert s[k] == c(m) * s[k - 1] - x * s[k - m]


def test_two_var_fibonacci_recurrence_structure():
    A = x * y
    for a in (1, 2):
        for b in (1, 2):
            for cc in (1, 2):
                gf = instantiate(
                    "gen_two_var_fibonacci", {"a": a, "b": b, "c": cc, "A": A}
                )
                s = expand_family(gf, 20)
                span = b + cc
                assert s[0] == one
                assert s[1] == A + x**a
                for k in range(2, span):
                    assert s[k] == x**a * s[k - 1]
                for k in range(span, 21):
                    assert s[k] == x**a * s[k - 1] + y**b * s[k - span]


def test_gen_fibonacci_and_gen_lucas_recurrences():
    for name in ("gen_fibonacci", "gen_lucas"):
        for m in (2, 3, 4, 5):
            gf = instantiate(name, {"m": m})
            s = expand_family(gf, 20)
            for k in range(m, 21):
                assert s[k] == x * s[k - 1] + s[k - m]


def test_fibonacci_integers_at_x_equals_1():
    s = expand_family(instantiate("fibonacci"), 50)
    fib = [0, 1]
    while len(fib) <= 50:
        fib.append(fib[-1] + fib[-2])
    for k in range(51):
        assert s[k].evaluate({"x": 1}) == fib[k]


def test_jacobsthal_integers_at_x_equals_2():
    s = expand_family(instantiate("jacobsthal"), 50)
    jac = [0, 1]
    while len(jac) <= 50:
        jac.append(jac[-1] + 2 * jac[-2])
    assert [s[k].evaluate({"x": 2}) for k in range(7)] == [0, 1, 1, 3, 5, 11, 21]
    for k in range(51):
        assert s[k].evaluate({"x": 2}) == jac[k]


def test_horadam_first_specializes_to_pell():
    horadam = expand_family(instantiate("horadam_first", {"p": 2, "q": 1}), 30)
    pell = expand_family(instantiate("pell"), 30)
    assert horadam == pell


def test_polynomial_parameters_accept_ints():
    via_int = instantiate("gen_catalan", {"A": 3})
    via_poly = instantiate("gen_catalan", {"A": c(3)})
    assert via_int == via_poly


def test_build_parts_resolves_defaults():
    parts, resolved = build_parts("gen_two_var_fibonacci", {"b": 2})
    assert resolved == {"a": 1, "b": 2, "c": 1, "A": zero}
    assert len(parts.denominator) == 4  # t-degree b + c = 3


# The source table, one row per (family, parameters): printed numerator,
# canonical numerator, denominator, stated initial values (None when the
# table states none) and the recursive formula's feedback.  The rows are
# written out for fixed parameters and read here one value at a time, so a
# wrong template or substitution in the catalog shows.
TABLE = [
    ("catalan", {}, "1", "1", "1 - t + x*t^2", ["1", "1"], ["1", "-x"]),
    ("fibonacci", {}, "t", "t", "1 - x*t - t^2", ["0", "1"], ["x", "1"]),
    ("gen_catalan", {}, "1", "1", "1 - 2*t + x*t^2", ["1", "2"], ["2", "-x"]),
    ("gen_fibonacci", {}, "t", "t", "1 - x*t - t^2", None, ["x", "1"]),
    ("gen_lucas", {}, "2 - x*t", "2 - x*t", "1 - x*t - t^2", None, ["x", "1"]),
    ("gen_two_var_fibonacci", {}, "1", "1", "1 - x*t - y*t^2", ["1", "x"], ["x", "y"]),
    ("horadam_first", {}, "1", "t", "1 - x*t - t^2", ["0", "1"], ["x", "1"]),
    ("horadam_second", {}, "1 + t^2", "1 + t^2", "1 - x*t - t^2", ["2", "x"],
     ["x", "1"]),
    ("jacobsthal", {}, "t", "t", "1 - t - x*t^2", ["0", "1", "1"], ["1", "x"]),
    ("pell", {}, "1", "t", "1 - 2*x*t - t^2", ["0", "1"], ["2*x", "1"]),
    ("pell_lucas", {}, "2*x + 2*t", "2 - 2*x*t", "1 - 2*x*t - t^2", ["2", "2*x"],
     ["2*x", "1"]),
    ("gen_fibonacci", {"m": 3}, "t", "t", "1 - x*t - t^3", None, ["x", "0", "1"]),
    ("gen_catalan", {"m": 3, "A": "x + 2"}, "1 + (x + 2)*t", "1 + (x + 2)*t",
     "1 - 3*t + x*t^3", ["1", "x + 5"], ["3", "0", "-x"]),
    ("gen_two_var_fibonacci", {"a": 2, "b": 1, "c": 2, "A": "y"}, "1 + y*t",
     "1 + y*t", "1 - x^2*t - y*t^3", ["1", "y + x^2"], ["x^2", "0", "y"]),
]


@pytest.mark.parametrize(
    "name, params, printed, canonical, den, stated, feedback", TABLE,
    ids=[f"{row[0]}{row[1] or ''}" for row in TABLE],
)
def test_catalog_matches_the_table(name, params, printed, canonical, den, stated, feedback):
    params = {k: parse_poly(v) if isinstance(v, str) else v for k, v in params.items()}
    parts, _ = build_parts(name, params)
    for mode, num in (("printed", printed), ("canonical", canonical)):
        gf = parts.gf(mode)
        assert gf.numerator == split_in_t(parse_poly(num)), mode
        assert gf.denominator == split_in_t(parse_poly(den)), mode
    expected_stated = None if stated is None else tuple(map(parse_poly, stated))
    assert parts.stated_initial_values == expected_stated
    assert parts.expected_feedback == tuple(map(parse_poly, feedback))
