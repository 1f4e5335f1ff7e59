"""Polynomial ring: arithmetic, normalization, evaluation, ordering."""

import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from helpers import polynomials, random_poly, reference_product, reference_sum
from ratgen import poly
from ratgen.errors import (
    DegreeTooLarge,
    InvalidVariable,
    MissingVariable,
    NonIntegerExponent,
    NonIntegerValue,
    RatGenError,
)
from ratgen.parser import format_poly, join_in_t, parse_poly, split_in_t
from ratgen.poly import (
    MAX_DEGREE,
    MAX_VARIABLES,
    Polynomial,
    add_product_into,
    validate_variable_name,
)

x = Polynomial.variable("x")
y = Polynomial.variable("y")
one = Polynomial.one()
zero = Polynomial.zero()


def test_add_cancellation():
    assert (x + one) + (x - one) == Polynomial.term(2, {"x": 1})
    assert (x**2 + y) + (x**2 - y) == Polynomial.term(2, {"x": 2})
    # + looks for zeros among the right side's keys only, the ones that can cancel
    assert x + (-x) == 0 and len(x + (-x)) == 0
    partly = (x**3 + Polynomial.term(2, {"x": 1, "y": 1}) - y + one) + (y - x**3 + x)
    assert partly == Polynomial.term(2, {"x": 1, "y": 1}) + x + one
    assert len(partly) == 3  # no zero coefficient kept


def test_add_identity():
    p = x**2 + Polynomial.constant(3) * y
    assert p + zero == p
    assert zero + p == p


def test_mul_difference_of_squares():
    assert (one + x) * (one - x) == one - x**2


def test_mul_absorbing_zero():
    p = x**3 - y
    assert p * zero == zero
    assert zero * p == zero


def test_binomial_square():
    assert (x + y) * (x + y) == x**2 + Polynomial.term(2, {"x": 1, "y": 1}) + y**2


def test_pow_basics():
    assert (x - one) ** 2 == x**2 - Polynomial.term(2, {"x": 1}) + one
    p = x**2 - y + Polynomial.constant(3)
    assert p**1 == p
    assert p**0 == one
    assert zero**0 == one


def test_pow_matches_repeated_mul():
    rng = random.Random(101)
    for _ in range(50):
        p = random_poly(rng, max_terms=3)
        by_mul = one
        for _ in range(4):
            by_mul = by_mul * p
        assert p**4 == by_mul
        assert p**4 == (p**2) * (p**2)


def test_one_term_powers_match_repeated_mul_and_keep_the_degree_bound():
    # a one-term base c*m gives (c*m)^e at once, after the degree check
    rng = random.Random(20261021)
    for _ in range(60):
        mono = {v: e for v in ("x", "y", "z") if (e := rng.choice((0, 1, 2, 5, 40)))}
        p = Polynomial.term(rng.choice((-3, -1, 1, 2, 7)), mono)
        by_mul = one
        for e in range(7):
            assert p**e == by_mul, (p, e)
            by_mul = by_mul * p
    with pytest.raises(DegreeTooLarge):
        x ** (MAX_DEGREE + 1)
    with pytest.raises(DegreeTooLarge):
        Polynomial.term(-2, {"x": 1, "y": 1}) ** (MAX_DEGREE // 2 + 1)


def test_pow_of_sparse_and_tied_bases_matches_repeated_mul():
    # ** grades the base and runs Miller's kernel on its nonzero parts only;
    # a grading whose lowest part is not one term, or an order divided
    # inexactly, would show here as a wrong coefficient
    rng = random.Random(20261020)
    bases = [parse_poly(text) for text in (
        "1 + x + x^65536", "x + y + x^65536", "x - y + 3*x^9*y^40",
        "x + x^2 + y + y^2 + x^3*y + x^3*y^2 + x*y^3 + x^2*y^3",
    )]
    for _ in range(40):  # few terms, exponents far apart
        terms = {}
        for _ in range(rng.randint(2, 4)):
            mono = tuple((v, e) for v in ("x", "y", "z")
                         if (e := rng.choice((0, 0, 1, 2, 7, 300))))
            terms[mono] = rng.choice((-3, -1, 1, 2))
        bases.append(Polynomial(terms))
    for p in bases:
        by_mul = one
        for e in range(6):
            assert p**e == by_mul, (p, e)
            by_mul = by_mul * p


def test_the_power_kernel_refuses_a_lowest_part_it_cannot_divide_by():
    # Miller's kernel divides each order by p_0 = c*m: p_0 must be one term,
    # and 1 for a negative power, whose D_0 it takes to be p_0
    for p0, e in ((one + x, 2), (Polynomial.constant(2), -1), (x, -3)):
        with pytest.raises(ValueError):
            list(poly._miller_power({0: p0, 1: y}, e, 4))


def test_eval_basics():
    assert (x + one).evaluate({"x": 2}) == 3
    assert zero.evaluate({}) == 0
    assert (x * y - Polynomial.constant(7)).evaluate({"x": 3, "y": -2}) == -13


def test_eval_fibonacci_value():
    # x^4 + 3x^2 + 1 at x=1 is the 5th Fibonacci number
    fib = [0, 1]
    while len(fib) < 6:
        fib.append(fib[-1] + fib[-2])
    p = x**4 + Polynomial.term(3, {"x": 2}) + one
    assert p.evaluate({"x": 1}) == fib[5] == 5


def test_eval_missing_variable():
    with pytest.raises(MissingVariable):
        (x + y).evaluate({"x": 1})


def test_eval_ignores_extra_assignments():
    assert (x + one).evaluate({"x": 1, "y": 99}) == 2


def test_eval_refuses_a_non_integer_value():
    with pytest.raises(NonIntegerValue, match="^the value of 'x' must be an integer"):
        (x + one).evaluate({"x": 0.5})
    assert (x + one).evaluate({"x": 2, "y": 0.5}) == 3  # y is not needed


def test_eval_matches_the_term_by_term_sum():
    rng = random.Random(2027)
    names = ("ev_q", "ev_b", "ev_x", "ev_a")  # interned out of alphabetical order
    for _ in range(500):
        chosen = rng.sample(names, rng.randint(0, 4))
        terms = {}
        for _ in range(rng.randint(0, 10)):
            mono = ((name, rng.randint(0, 5)) for name in sorted(chosen))
            terms[tuple((name, e) for name, e in mono if e)] = rng.randint(-5, 5)
        point = {name: rng.randint(-3, 3) for name in names}
        expected = sum(
            c * math.prod(point[name] ** e for name, e in mono)
            for mono, c in terms.items()
        )
        assert Polynomial(terms).evaluate(point) == expected


def test_eval_keeps_memory_linear_in_the_value():
    # a table of every power of the value held at once would take about
    # 11 MB for the dense case and 5.8 MB for the sparse one
    dense = Polynomial({(("x", e),): e + 1 for e in range(3000)})
    sparse = Polynomial({(("x", k * 100_000),): 1 for k in range(1, 31)})
    two = Polynomial({(("x", e), ("y", 2999 - e)): 1 for e in range(3000)})
    for p, point, bound in (
        (dense, {"x": 10**6}, 2 << 20),
        (sparse, {"x": 2}, 3 << 20),
        (two, {"x": 10**6, "y": 3}, 2 << 20),
    ):
        tracemalloc.start()
        try:
            value = p.evaluate(point)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value > 0 and peak < bound


def test_ring_laws_randomized():
    # commutativity, associativity, distributivity, identities
    rng = random.Random(4242)
    for _ in range(1000):
        p = random_poly(rng, max_terms=3, max_degree=4, coeff_bound=9)
        q = random_poly(rng, max_terms=3, max_degree=4, coeff_bound=9)
        r = random_poly(rng, max_terms=3, max_degree=4, coeff_bound=9)
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + zero == p
        assert p * one == p


def test_eval_is_ring_homomorphism():
    rng = random.Random(77)
    point = {"x": 3, "y": -2, "z": 5}
    for _ in range(300):
        p = random_poly(rng, max_terms=3, max_degree=3)
        q = random_poly(rng, max_terms=3, max_degree=3)
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)


@settings(max_examples=200)
@given(polynomials(), polynomials())
def test_add_commutes(p, q):
    assert p + q == q + p


@settings(max_examples=200)
@given(polynomials(max_degree=3, max_terms=3), polynomials(max_degree=3, max_terms=3))
def test_mul_commutes(p, q):
    assert p * q == q * p


def test_normalization_drops_zero_coefficients():
    p = Polynomial({(("x", 1),): 0, (): 5})
    assert len(p) == 1
    assert p == Polynomial.constant(5)


def test_normalization_is_idempotent():
    rng = random.Random(9)
    for _ in range(200):
        p = random_poly(rng)
        assert Polynomial(dict(p.items())) == p
        assert all(c != 0 for _, c in p.items())


def test_zero_polynomial_is_empty_map():
    assert len(zero) == 0
    assert not zero
    assert (x - x) == zero


def test_degree_is_additive_for_nonzero_factors():
    # exact over an integral domain
    rng = random.Random(13)
    checked = 0
    while checked < 300:
        p = random_poly(rng, max_terms=3, max_degree=4)
        q = random_poly(rng, max_terms=3, max_degree=4)
        if p.is_zero() or q.is_zero():
            continue
        assert (p * q).total_degree() == p.total_degree() + q.total_degree()
        checked += 1


def test_big_coefficients_are_exact():
    p = Polynomial.constant(10**30) * x + one
    q = p * p
    assert q.coefficient((("x", 2),)) == 10**60


def test_immutable_and_hashable():
    p = x + one
    with pytest.raises(AttributeError):
        p._terms = {}
    assert hash(p) == hash(x + one)
    assert len({p, x + one, x}) == 2


def test_equality_with_ints():
    assert Polynomial.constant(3) == 3
    assert zero == 0
    assert one != 2
    assert x != 1


def test_a_polynomial_equals_itself_without_reading_its_terms():
    # verify compares a stored series with itself once a line has found two
    # series equal: the comparison returns before any term is read
    class Unread(dict):
        def __eq__(self, other):
            raise AssertionError("the terms were compared")

    p = Polynomial._raw(Unread({0: 1}))
    assert p == p and not p != p
    with pytest.raises(AssertionError, match="the terms were compared"):
        p == Polynomial.one()


def test_sorted_terms_graded_lex():
    p = one + x**2 + x * y + y**2 + x
    monos = [m for m, _ in p.items()]
    assert monos == [
        (("x", 2),),
        (("x", 1), ("y", 1)),
        (("y", 2),),
        (("x", 1),),
        (),
    ]


def test_variable_name_validation():
    validate_variable_name("x")
    validate_variable_name("alpha_2")
    for bad in ("", "2x", "_x", "x-y", "x y"):
        with pytest.raises(InvalidVariable):
            validate_variable_name(bad)


def test_reserved_series_variable_rejected():
    with pytest.raises(InvalidVariable):
        Polynomial.variable("t")
    with pytest.raises(InvalidVariable):
        validate_variable_name("t")


@pytest.mark.parametrize("build", [
    lambda: Polynomial({(("1bad", 1),): 2}),
    lambda: Polynomial({(("", 1),): 1}),
    lambda: Polynomial({(("x", 1), ("caf\u00e9", 2)): 1}),
    lambda: Polynomial.join("9z", [one, x]),
    lambda: Polynomial.symbol(""),
    lambda: Polynomial.symbol("x-y"),
], ids=["constructor", "empty", "non-ascii", "join", "symbol-empty", "symbol"])
def test_names_are_checked_when_first_interned(build):
    # every path into the interning table checks the name, so a polynomial
    # never holds a name whose text parse_poly would refuse
    before = list(poly._NAMES)
    with pytest.raises(InvalidVariable):
        build()
    assert poly._NAMES == before


def test_zero_exponents_intern_no_name():
    before = list(poly._NAMES)
    assert (x + Polynomial.constant(5)).coefficient((("zz_never_seen", 0),)) == 5
    assert Polynomial({(("x", 1), ("zz_never_seen", 0)): 3}) == Polynomial.term(3, {"x": 1})
    assert Polynomial({(("zz_never_seen", 0),): 3}) == 3
    assert Polynomial.term(3, {"zz_never_seen": 0}) == 3
    assert poly._NAMES == before


@pytest.mark.parametrize("build", [
    lambda: Polynomial({(("zz_float_exp", 1.5),): 1}),
    lambda: Polynomial.term(1, {"zz_text_exp": "2"}),
    lambda: Polynomial.term(1, {"zz_whole_float": 2.0}),
], ids=["constructor-float", "term-str", "term-whole-float"])
def test_non_integer_exponents_raise_a_typed_error(build):
    # the error is a RatGenError, so the CLI reports it in one line, and a
    # TypeError, as before; the name is not interned
    before = list(poly._NAMES)
    with pytest.raises(NonIntegerExponent, match="must be an integer") as caught:
        build()
    assert isinstance(caught.value, RatGenError) and isinstance(caught.value, TypeError)
    assert poly._NAMES == before


@pytest.mark.parametrize("value", [0.5, 0.1, "7", Fraction(1, 2)],
                         ids=["half", "tenth", "text", "fraction"])
@pytest.mark.parametrize("build", [
    Polynomial.constant,
    lambda value: Polynomial.term(value, {"x": 1}),
    lambda value: Polynomial({(("x", 1),): value}),
], ids=["constant", "term", "constructor"])
def test_non_integer_coefficients_raise_a_typed_error(build, value):
    # int() would store 0.5 and 1/2 as the coefficient 0 and "7" as 7, and
    # 0.1 taken as it comes would print "0.1*x", which parse_poly refuses
    with pytest.raises(NonIntegerValue, match="must be an integer") as caught:
        build(value)
    assert isinstance(caught.value, RatGenError) and isinstance(caught.value, TypeError)
    assert format_poly(build(7)) in ("7", "7*x")


def test_degree_bound_is_exact():
    top = x**MAX_DEGREE
    assert top.total_degree() == MAX_DEGREE
    assert top.coefficient((("x", MAX_DEGREE),)) == 1
    with pytest.raises(DegreeTooLarge):
        top * x
    with pytest.raises(DegreeTooLarge):
        Polynomial({(("x", MAX_DEGREE), ("y", 1)): 1})
    assert (top * one).total_degree() == MAX_DEGREE


# Run in a fresh interpreter, so that the names are interned in this order.
_FIRST_SEEN_SCRIPT = """
import json
from ratgen.parser import format_poly, parse_poly
from ratgen.poly import Polynomial

parse_poly("zz + w + z + y + b + x + a")
p = parse_poly("zz^2 + a*zz + b^2*w + x*y*z + a^3 + w - 3*a*b*x + 2*x*zz*a + 7")
q = Polynomial({
    (("a", 3),): 1, (("a", 1), ("b", 1), ("x", 1)): -3,
    (("a", 1), ("x", 1), ("zz", 1)): 2, (("b", 2), ("w", 1)): 1,
    (("x", 1), ("y", 1), ("z", 1)): 1, (("a", 1), ("zz", 1)): 1,
    (("zz", 2),): 1, (("w", 1),): 1, (): 7,
})
x, y = Polynomial.variable("x"), Polynomial.variable("y")
r = Polynomial.one() + x**2 + x * y + y**2 + x
print(json.dumps({
    "format": format_poly(p),
    "equal": p == q and hash(p) == hash(q) and len({p, q}) == 1,
    "value": p.evaluate({"a": 2, "b": -3, "w": 5, "x": 7, "y": -1, "z": 4, "zz": 11}),
    "sorted": [list(map(list, m)) for m, _ in r.items()],
    "sorted_abz": [list(map(list, m)) for m, _ in parse_poly("zz*a + b^2 + a^2").items()],
}))
"""


def _run_fresh(script: str) -> dict:
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    return json.loads(out)


def test_output_does_not_depend_on_first_seen_variable_order():
    assert _run_fresh(_FIRST_SEEN_SCRIPT) == {
        "format": "a^3 - 3*a*b*x + 2*a*x*zz + b^2*w + x*y*z + a*zz + zz^2 + w + 7",
        "equal": True,
        "value": 614,
        "sorted": [[["x", 2]], [["x", 1], ["y", 1]], [["y", 2]], [["x", 1]], []],
        "sorted_abz": [[["a", 2]], [["a", 1], ["zz", 1]], [["b", 2]]],
    }


def test_importing_the_package_interns_no_name():
    names = _run_fresh("import json, ratgen, ratgen.cli\n"
                       "from ratgen import poly\n"
                       "print(json.dumps(poly._NAMES))")
    assert names == []


# Fills the interning table in a fresh interpreter, then computes with the
# names that own the widest fields.
_FULL_TABLE_SCRIPT = """
import json
from ratgen.errors import TooManyVariables
from ratgen.parser import format_poly
from ratgen.poly import MAX_VARIABLES, Polynomial

names = []
try:
    for i in range(1, MAX_VARIABLES + 2):
        Polynomial.variable(f"v{i}")
        names.append(f"v{i}")
except TooManyVariables as exc:
    error = str(exc)
a, b = Polynomial.variable(names[-1]), Polynomial.variable(names[-2])
p = (a + b + Polynomial.variable("v1")) ** 3 - a * b
try:
    Polynomial.variable("fresh")
    refused = False
except TooManyVariables:
    refused = True
print(json.dumps({
    "accepted": len(names),
    "error": error,
    "format": format_poly(p * a - a * p + (a - b) ** 2),
    "value": p.evaluate({"v1": 2, names[-2]: 3, names[-1]: 5}),
    "terms": len(p),
    "vars": sorted(p.variables()) == sorted(["v1", names[-2], names[-1]]),
    "refused": refused,
}))
"""


def test_interning_table_is_capped_and_its_last_names_compute_exactly():
    out = _run_fresh(_FULL_TABLE_SCRIPT)
    n = out.pop("accepted")  # the import interns no name, so all of them fit
    assert n == MAX_VARIABLES
    last, prev = f"v{n}", f"v{n - 1}"
    assert out == {
        "error": f"more than {MAX_VARIABLES} distinct variable names",
        "format": f"{prev}^2 - 2*{prev}*{last} + {last}^2",
        "value": 10**3 - 15,
        "terms": 11,
        "vars": True,
        "refused": True,
    }


# -- the product kernel against a double loop ------------------------------------


def poly_of_length(rng: random.Random, n: int) -> Polynomial:
    """A polynomial in x and y of exactly n terms, with small or 700-bit coefficients."""
    monos: set = set()
    while len(monos) < n:
        monos.add(tuple((v, e) for v in ("x", "y") if (e := rng.randint(0, 12))))
    big = rng.random() < 0.5
    return Polynomial({
        mono: rng.choice((-1, 1)) * rng.randint(1, 2**700 if big else 9) for mono in monos
    })


def monomial_factors(rng: random.Random) -> list[Polynomial]:
    """Constant 1, -1 and c, and a non-constant monomial with coefficient 1, -1 and c."""
    c = rng.choice((-1, 1)) * rng.randint(2, 2**700)
    mono = {"x": rng.randint(0, 3), "y": rng.randint(1, 3)}
    return [Polynomial.term(k, {}) for k in (1, -1, c)] + [
        Polynomial.term(k, mono) for k in (1, -1, c)
    ]


@pytest.mark.parametrize("filled", [False, True], ids=["empty_acc", "filled_acc"])
def test_add_product_into_matches_a_double_loop(filled):
    rng = random.Random(1307 + filled)
    # long sides from 0 terms past the monomial paths' threshold, both ways round
    cases = [
        (m, poly_of_length(rng, n)) for n in range(0, 21) for m in monomial_factors(rng)
    ]
    cases += [(q, m) for m, q in cases[::3]]
    cases += [
        (poly_of_length(rng, rng.randint(2, 12)), poly_of_length(rng, rng.randint(2, 12)))
        for _ in range(30)
    ]
    for p, q in cases:
        acc: dict = {}
        expected: dict = {}
        if filled:
            first, second = poly_of_length(rng, rng.randint(1, 20)), poly_of_length(rng, 2)
            add_product_into(acc, first, second)
            expected = reference_product(first, second)
        add_product_into(acc, p, q)
        for mono, c in reference_product(p, q).items():
            expected[mono] = expected.get(mono, 0) + c
        assert Polynomial.from_raw(acc) == Polynomial(expected), (len(p), len(q))


@pytest.mark.parametrize("n", [3, 30])
def test_add_product_into_cancels_to_zero_and_from_raw_drops_the_zeros(n):
    rng = random.Random(n)
    q = poly_of_length(rng, n)
    for m in monomial_factors(rng):
        acc: dict = {}
        add_product_into(acc, m, q)
        add_product_into(acc, -m, q)  # every sum is 0; the map may keep the keys
        assert Polynomial.from_raw(acc) == zero and len(Polynomial.from_raw(acc)) == 0
        # a partial cancellation keeps exactly the terms that survive
        acc = {}
        add_product_into(acc, m, q)
        add_product_into(acc, -m, q - Polynomial.term(1, {"x": 20}))
        assert Polynomial.from_raw(acc) == m * Polynomial.term(1, {"x": 20})
        assert len(Polynomial.from_raw(acc)) == 1


def with_unit_coefficients(rng: random.Random, p: Polynomial) -> Polynomial:
    """p's monomials, each with a coefficient of 1 or -1."""
    return Polynomial({mono: rng.choice((-1, 1)) for mono, _ in p.items()})


def test_sums_and_differences_match_a_plain_dict_sum():
    # + merges through add_product_into with 1 as the one-term side: a right
    # side of 8 or more terms is copied into an empty map (a zero left side)
    # or added into a filled one.  With coefficients of +-1 the sums cancel
    # often, and every zero they leave must be dropped.
    rng = random.Random(2020)
    for trial in range(300):
        p, q = (poly_of_length(rng, rng.randint(0, 20)) for _ in range(2))
        if trial % 2:
            p, q = with_unit_coefficients(rng, p), with_unit_coefficients(rng, q)
        for left, right in ((p, q), (q, p), (zero, q), (q, zero)):
            assert left + right == Polynomial(reference_sum([(1, left, {}), (1, right, {})]))
            assert left - right == Polynomial(reference_sum([(1, left, {}), (-1, right, {})]))
        assert p - p == zero and len(p - p) == 0


def test_join_in_t_matches_a_plain_dict_sum_and_splits_back():
    # join adds each coefficient times t^j through add_product_into: a long
    # coefficient lands in an empty map by a copy (j = 0) or a comprehension,
    # and in a filled one with no multiply
    rng = random.Random(2021)
    for trial in range(100):
        seq = [poly_of_length(rng, rng.randint(0, 20)) for _ in range(rng.randint(0, 11))]
        seq.append(poly_of_length(rng, rng.randint(1, 20)))  # the last order is nonzero
        if trial % 2:
            seq = [with_unit_coefficients(rng, p) for p in seq]
        joined = join_in_t(seq)
        expected = reference_sum([(1, p, {"t": j}) for j, p in enumerate(seq)])
        assert joined == Polynomial(expected)
        assert split_in_t(joined) == tuple(seq)


def test_mentions_reads_the_terms_with_or_without_the_variable_set():
    three = Polynomial.constant(3)
    for fresh in (lambda: x**2 * y + three, lambda: Polynomial.term(1, {"x": 2, "y": 1}) + three):
        p = fresh()  # no variable set computed yet
        assert [p.mentions(name) for name in ("x", "y", "z", "never_seen_name")] == [
            True, True, False, False,
        ]
        q = fresh()
        assert q.variables() == {"x", "y"}  # now cached
        assert [q.mentions(name) for name in ("x", "y", "z")] == [True, True, False]
    assert not Polynomial.constant(5).mentions("x") and not zero.mentions("x")
