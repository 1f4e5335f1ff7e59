"""The derived recursion, its companion identities, and the power reduction."""

import random

import pytest

from helpers import COEFF_VARS, random_gf, random_poly, reference_product
from ratgen import families, poly, recurrence, series
from ratgen.errors import (
    BadConstantTerm,
    BadPower,
    DegreeTooLarge,
    EmptySeries,
    InvalidVariable,
    MissingVariable,
    NegativeOrder,
    NonIntegerOrder,
    NonIntegerValue,
    NotAPolynomial,
    NotAnExpression,
    PowerNotOne,
    RatGenError,
)
from ratgen.parser import join_in_t, parse_poly, split_in_t
from ratgen.poly import Polynomial
from ratgen.recurrence import (
    RationalGF,
    Recurrence,
    convolve_numerator,
    derive_recurrence,
    expand_family,
    expand_inverse,
    identity_residual,
    inverts,
    iter_family,
    iter_values,
    raise_denominator,
    render_recurrence,
    tail_product,
)
from ratgen.series import (
    SeriesPrefix,
    cauchy_mul,
    check_t_free,
    geometric_inverse,
    multinomial_inverse,
)

x = Polynomial.variable("x")
one = Polynomial.one()
zero = Polynomial.zero()
c = Polynomial.constant

FIB_NUM = (zero, one)
FIB_DEN = (one, -x, -one)
CATALAN_NUM = (one,)
CATALAN_DEN = (one, -one, x)


def fib_gf() -> RationalGF:
    return RationalGF(FIB_NUM, FIB_DEN)


def catalan_gf() -> RationalGF:
    return RationalGF(CATALAN_NUM, CATALAN_DEN)


# -- RationalGF normal form ----------------------------------------------------


def test_gf_requires_unit_constant_term():
    with pytest.raises(BadConstantTerm):
        RationalGF((one,), (c(2), -one))
    with pytest.raises(BadConstantTerm):
        RationalGF((one,), (one + x,))
    with pytest.raises(BadConstantTerm):
        RationalGF((one,), ())


def test_gf_trims_trailing_zeros():
    gf = RationalGF((one, zero, zero), (one, -x, zero))
    assert gf.numerator == (one,)
    assert gf.denominator == (one, -x)
    assert gf.m == 0
    assert gf.n == 1


def test_gf_allows_zero_numerator():
    gf = RationalGF((zero,), FIB_DEN)
    assert expand_family(gf, 5) == SeriesPrefix([zero] * 6)


def test_gf_rejects_bad_power():
    with pytest.raises(ValueError):
        RationalGF((one,), (one,), 0)
    with pytest.raises(ValueError):
        RationalGF((one,), (one,), -3)


# -- raise_denominator ----------------------------------------------------------


def test_raise_denominator_square_of_one_minus_t():
    assert raise_denominator([one, -one], 2) == (one, c(-2), one)


def test_raise_denominator_power_one_is_identity():
    B = [one, -x, c(3)]
    assert raise_denominator(B, 1) == tuple(B)


def test_raise_denominator_fibonacci_squared():
    got = raise_denominator(FIB_DEN, 2)
    assert got == (one, c(-2) * x, x**2 - c(2), c(2) * x, one)


def test_raise_denominator_matches_polynomial_power():
    # oracle: multiply out in the t-bearing polynomial ring and re-split
    # h up to 8 takes Miller's weights (h+1)*j - k through zero to negative
    rng = random.Random(63)
    for _ in range(25):
        n = rng.randint(0, 4)
        h = rng.randint(1, 8)
        B = [one] + [random_poly(rng) for _ in range(n)]
        expected = split_in_t(join_in_t(B) ** h)
        assert raise_denominator(B, h) == expected
        for N in range(h * n + 2):
            assert raise_denominator(B, h, N) == expected[: N + 1]


def test_raise_denominator_rejects_bad_input():
    with pytest.raises(BadConstantTerm):
        raise_denominator([c(2)], 2)
    for h in (0, 1.5, -0.5, -2):
        with pytest.raises(ValueError, match="power must be a positive integer"):
            raise_denominator([one], h)
    with pytest.raises(NegativeOrder):
        raise_denominator(FIB_DEN, 2, -1)


@pytest.mark.parametrize("call, error, builtin", [
    (lambda: x ** -1, BadPower, ValueError),
    (lambda: Polynomial({(("x", -1),): 1}), BadPower, ValueError),
    (lambda: Polynomial.term(1, {"x": -2}), BadPower, ValueError),
    (lambda: RationalGF(FIB_NUM, FIB_DEN, 0), BadPower, ValueError),
    (lambda: RationalGF(FIB_NUM, FIB_DEN, True), BadPower, ValueError),
    (lambda: raise_denominator(FIB_DEN, 0), BadPower, ValueError),
    (lambda: geometric_inverse(FIB_DEN, 4, 0), BadPower, ValueError),
    (lambda: check_t_free([Polynomial.symbol("t")], "numerator"), InvalidVariable, ValueError),
    (lambda: RationalGF((), (one,)), EmptySeries, ValueError),
    (lambda: RationalGF(("1",), (one,)), NotAPolynomial, AttributeError),
    (lambda: RationalGF((one,), ("1",)), NotAPolynomial, AttributeError),
    (lambda: parse_poly(None), NotAnExpression, TypeError),
])
def test_library_arguments_raise_typed_errors_that_keep_their_builtin(call, error, builtin):
    # each error is a RatGenError, and still the builtin it was before it had
    # a type, so an existing except clause keeps catching it
    assert issubclass(error, RatGenError) and issubclass(error, builtin)
    with pytest.raises(error):
        call()


def test_negative_power_inverts_the_positive_one():
    # expand_family runs the Miller loop with exponent -h for h > 1, and
    # raise_denominator runs it with h: B^-h * B^h = 1 mod t^(N+1)
    rng = random.Random(20261018)
    for _ in range(30):
        n = rng.randint(0, 3)
        h = rng.randint(1, 6)
        N = rng.randint(0, 20)
        B = [one] + [random_poly(rng, ("x", "y"), max_degree=1) for _ in range(n)]
        inverse = expand_family(RationalGF((one,), B, h), N)
        assert len(inverse) == N + 1
        power = SeriesPrefix.from_polynomials(raise_denominator(B, h, N), N)
        assert cauchy_mul(inverse, power) == SeriesPrefix.identity(N)
    inverse_square = expand_family(RationalGF((one,), (one, -one), 2), 4)
    assert inverse_square.coeffs == tuple(map(c, (1, 2, 3, 4, 5)))


def test_truncated_power_leaves_expansion_unchanged():
    # expand_family expands A * B^-h from B; folded, B^h runs the recurrence,
    # so the two share neither loop past N = h*n
    rng = random.Random(1729)
    for _ in range(15):
        gf = random_gf(rng)
        gf = RationalGF(gf.numerator, gf.denominator, rng.randint(1, 5))
        full = gf.reduced_denominator()
        for N in range(gf.power * gf.n + 4):
            assert gf.reduced_denominator(N) == full[: N + 1]
            folded = RationalGF(gf.numerator, full)
            assert expand_family(gf, N) == expand_family(folded, N)
    with pytest.raises(NegativeOrder):
        fib_gf().reduced_denominator(-1)


# -- expansions -----------------------------------------------------------------


def test_expand_fibonacci_start():
    got = expand_family(fib_gf(), 3)
    assert got == SeriesPrefix([zero, one, x, x**2 + one])


def test_expand_catalan_start():
    got = expand_family(catalan_gf(), 2)
    assert got == SeriesPrefix([one, one, one - x])


def test_expand_constant_function():
    gf = RationalGF((one,), (one,))
    assert expand_family(gf, 4) == SeriesPrefix.identity(4)


def test_expand_rejects_negative_order():
    with pytest.raises(NegativeOrder):
        expand_family(fib_gf(), -1)


def test_inverse_sequence_geometric_series():
    assert expand_inverse([one, -one], 4) == SeriesPrefix([one] * 5)


def test_inverse_sequence_equals_geometric_inverse():
    got = expand_inverse(FIB_DEN, 3)
    assert got == geometric_inverse(FIB_DEN, 3)
    assert got == SeriesPrefix([one, x, x**2 + one, x**3 + c(2) * x])


def test_inverse_sequence_gen_catalan_denominator():
    got = expand_inverse([one, c(-2), x], 2)
    assert got == SeriesPrefix([one, c(2), c(4) - x])
    assert got == geometric_inverse([one, c(-2), x], 2)


def test_inverse_sequence_is_expansion_with_unit_numerator():
    rng = random.Random(97)
    for _ in range(30):
        gf = random_gf(rng)
        B = gf.denominator
        N = rng.randint(0, 10)
        assert expand_inverse(B, N) == expand_family(
            RationalGF((one,), B), N
        )


def test_inverse_sequence_rejects_bad_input():
    from ratgen.parser import parse_poly

    for B in ([], [c(2)]):
        with pytest.raises(BadConstantTerm):
            expand_inverse(B, 3)
    with pytest.raises(NegativeOrder, match="^order must be nonnegative, got -1$"):
        expand_inverse(FIB_DEN, -1)
    with pytest.raises(ValueError, match="^denominator coefficients must not"):
        expand_inverse([one, parse_poly("t")], 3)


def test_negative_order_is_raised_once_by_the_callee():
    message = "^order must be nonnegative, got -1$"
    with pytest.raises(NegativeOrder, match=message):
        expand_family(RationalGF(FIB_NUM, FIB_DEN, 2), -1)
    with pytest.raises(NegativeOrder, match=message):
        identity_residual(fib_gf(), -1)


@pytest.mark.parametrize("call", [
    lambda: iter_family(fib_gf(), 1.5),
    lambda: expand_family(fib_gf(), "3"),
    lambda: iter_values(fib_gf(), {"x": 2}, 2.0),
    lambda: geometric_inverse(FIB_DEN, 1.5),
    lambda: multinomial_inverse(FIB_DEN, 1.5),
    lambda: SeriesPrefix.from_polynomials(FIB_DEN, 1.5),
    lambda: SeriesPrefix.identity(3).truncate(0.5),
], ids=["iter_family", "expand_family", "iter_values", "geometric_inverse",
        "multinomial_inverse", "from_polynomials", "truncate"])
def test_a_non_integer_order_raises_a_typed_error(call):
    with pytest.raises(NonIntegerOrder, match="^order must be an integer, got "):
        call()


def test_recurrence_order_is_the_feedback_length():
    rec = Recurrence((x, one), (zero, one))
    assert rec.order == 2
    assert list(rec.iter_terms(3)) == list(expand_family(fib_gf(), 3).coeffs)


def test_convolve_with_unit_numerator_is_identity():
    Q = expand_inverse(FIB_DEN, 6)
    assert convolve_numerator((one,), Q) == Q


def test_convolve_shift_reproduces_fibonacci():
    Q = geometric_inverse(FIB_DEN, 3)
    got = convolve_numerator(FIB_NUM, Q)
    assert got == expand_family(fib_gf(), 3)
    assert got == SeriesPrefix([zero, one, x, x**2 + one])


def test_convolve_gen_lucas_start():
    # numerator 2 - x*t against 1/(1 - x*t - t^m)
    for m in (2, 3):
        den = [one, -x] + [zero] * (m - 2) + [-one]
        Q = geometric_inverse(den, 4)
        got = convolve_numerator((c(2), -x), Q)
        assert got[0] == c(2)
        assert got[1] == x  # -x*1 + 2x by direct hand-evaluation


def test_identity_residual_zero_for_fibonacci():
    res = identity_residual(fib_gf(), 8)
    assert all(p.is_zero() for p in res)


def test_identity_residual_zero_for_constant():
    res = identity_residual(RationalGF((one,), (one,)), 3)
    assert all(p.is_zero() for p in res)


def test_identity_residual_zero_for_catalan():
    res = identity_residual(catalan_gf(), 8)
    assert all(p.is_zero() for p in res)


def test_identity_residual_requires_power_one():
    gf = RationalGF((one,), FIB_DEN, 2)
    with pytest.raises(PowerNotOne):
        identity_residual(gf, 4)
    res = identity_residual(RationalGF(gf.numerator, gf.reduced_denominator()), 6)
    assert all(p.is_zero() for p in res)


# -- recurrence descriptor --------------------------------------------------------


def test_derive_fibonacci_recurrence():
    rec = derive_recurrence(fib_gf())
    assert rec.order == 2
    assert rec.feedback == (x, one)
    assert rec.forcing == (zero, one)
    assert render_recurrence(fib_gf()) == (
        "P_k = x*P_{k-1} + P_{k-2} (k >= 2); P_0 = 0; P_1 = 1"
    )


def test_derive_order_one_recurrence():
    gf = RationalGF((one,), (one, -one))
    rec = derive_recurrence(gf)
    assert rec.order == 1
    assert rec.feedback == (one,)
    assert rec.forcing == (one,)
    assert render_recurrence(gf) == "P_k = P_{k-1} (k >= 1); P_0 = 1"


def test_derive_catalan_recurrence():
    rec = derive_recurrence(catalan_gf())
    assert rec.order == 2
    assert rec.feedback == (one, -x)
    assert render_recurrence(catalan_gf()) == (
        "P_k = P_{k-1} - x*P_{k-2} (k >= 2); P_0 = 1; P_1 = 1"
    )


def test_derive_recurrence_reduces_power():
    rec = derive_recurrence(RationalGF((one,), (one, -one), 2))
    assert rec.order == 2
    assert rec.feedback == (c(2), -one)


def test_render_zero_feedback():
    assert render_recurrence(RationalGF((one,), (one,))) == "P_k = 0 (k >= 1); P_0 = 1"


def test_render_multi_term_coefficient_parenthesized():
    gf = RationalGF((one,), (one, -(x + one)))
    assert render_recurrence(gf) == "P_k = (x + 1)*P_{k-1} (k >= 1); P_0 = 1"


def test_recurrence_expand_matches_source():
    rng = random.Random(11)
    for _ in range(30):
        gf = random_gf(rng)
        rec = derive_recurrence(gf)
        assert list(rec.iter_terms(12)) == list(expand_family(gf, 12).coeffs)


def test_iter_terms_streams_the_same_terms_as_expand_and_the_oracle():
    rng = random.Random(8080)
    cases = [
        (0, 3, 5),  # order 0 (--den 1): the forcing, then zeros
        (2, 6, 9),  # forcing longer than the order
        (4, 1, 2),  # N below the order
        (3, 2, 0),  # N = 0
    ] + [(rng.randint(0, 4), rng.randint(1, 6), rng.randint(0, 14)) for _ in range(40)]
    for order, m1, N in cases:
        feedback = tuple(random_poly(rng, ("x", "y")) for _ in range(order))
        forcing = tuple(random_poly(rng, ("x", "y")) for _ in range(m1))
        rec = Recurrence(feedback, forcing)
        streamed = list(rec.iter_terms(N))
        assert len(streamed) == N + 1
        den = (one,) + tuple(-f for f in feedback)
        assert streamed == list(expand_family(RationalGF(forcing, den), N).coeffs)
        oracle = convolve_numerator(forcing, geometric_inverse(den, N))
        assert streamed == list(oracle.coeffs), (order, m1, N)


def reference_terms(rec: Recurrence, N: int) -> list[Polynomial]:
    """P_0..P_N by P_k = [k <= m] A_k + sum_j feedback_j * P_{k-j}, each
    product a double loop over the terms (helpers.reference_product)."""
    P: list[Polynomial] = []
    for k in range(N + 1):
        terms = dict(rec.forcing[k].items()) if k < len(rec.forcing) else {}
        for j, coeff in enumerate(rec.feedback, start=1):
            if j <= k:
                for mono, c in reference_product(coeff, P[k - j]).items():
                    terms[mono] = terms.get(mono, 0) + c
        P.append(Polynomial(terms))
    return P


CATALOG_CASES = [
    pytest.param(spec.name, {}, mode, id=f"{spec.name}-{mode}")
    for spec in families.list_families() for mode in families.MODES
] + [
    pytest.param("gen_lucas", {"m": 4}, mode, id=f"gen_lucas-m4-{mode}")  # zero feedback gaps
    for mode in families.MODES
] + [
    pytest.param(  # no constant feedback coefficient
        "gen_two_var_fibonacci", {"a": 2, "b": 1, "c": 2, "A": Polynomial.variable("y")}, mode,
        id=f"gen_two_var_fibonacci-a2-b1-c2-Ay-{mode}",
    )
    for mode in families.MODES
]


@pytest.mark.parametrize("name,params,mode", CATALOG_CASES)
def test_iter_terms_matches_a_double_loop_recurrence_on_the_catalog(name, params, mode):
    gf = families.instantiate(name, params, mode)
    rec = derive_recurrence(gf)
    assert list(rec.iter_terms(60)) == reference_terms(rec, 60)


def test_iter_family_streams_the_expansion_of_every_power():
    rng = random.Random(4096)
    for _ in range(20):
        gf = random_gf(rng)
        gf = RationalGF(gf.numerator, gf.denominator, rng.randint(1, 4))
        N = rng.randint(0, 12)
        streamed = iter_family(gf, N)
        assert not isinstance(streamed, (list, tuple))
        folded = RationalGF(gf.numerator, gf.reduced_denominator())
        assert list(streamed) == list(expand_family(folded, N).coeffs)


def test_iter_family_raises_at_the_call_for_every_power():
    half = Polynomial({(("x", 2**31),): 1})  # two of these pass the bound
    for h in (1, 2, 5):
        with pytest.raises(NegativeOrder, match="^order must be nonnegative, got -1$"):
            iter_family(RationalGF(FIB_NUM, FIB_DEN, h), -1)
        gf = RationalGF((one,), (one, -half), h)
        assert len(list(iter_family(gf, 1))) == 2
        with pytest.raises(DegreeTooLarge):
            iter_family(gf, 2)


def random_valued_gf(rng: random.Random) -> tuple[RationalGF, dict[str, int], int]:
    """h in 1..5, n <= 3, m <= 2, 1-3 names, a point with 0 and negative values."""
    names = ("x", "y", "z")[: rng.randint(1, 3)]
    num = [random_poly(rng, names) for _ in range(rng.randint(1, 3))]
    den = [one] + [random_poly(rng, names) for _ in range(rng.randint(0, 3))]
    point = {name: rng.choice((0, -1, 1, -3, 2, 5, -7)) for name in names}
    return RationalGF(num, den, rng.randint(1, 5)), point, rng.randint(0, 20)


def test_iter_values_equals_the_evaluated_expansion():
    rng = random.Random(1017)
    for _ in range(40):
        gf, point, N = random_valued_gf(rng)
        values = iter_values(gf, point, N)
        assert not isinstance(values, (list, tuple))
        expected = [p.evaluate(point) for p in expand_family(gf, N)]
        assert list(values) == expected, (gf, point, N)


def test_iter_values_raises_at_the_call():
    gf = RationalGF((x,), (one, -x, -Polynomial.variable("y")), 3)
    with pytest.raises(NegativeOrder, match="^order must be nonnegative, got -1$"):
        iter_values(gf, {"x": 1, "y": 1}, -1)
    with pytest.raises(MissingVariable, match="^no value assigned for: y$"):
        iter_values(gf, {"x": 1, "z": 1}, 3)
    # 2/(1 - 2t)^3: 2 * C(k+2, 2) * 2^k
    assert list(iter_values(gf, {"x": 2, "y": 0, "z": 1}, 3)) == [2, 12, 48, 160]


def test_iter_values_refuses_a_non_integer_point_at_the_call():
    # a float would make the value stream inexact (0.1, 1.01, ..) or, at
    # h = 3, fail the exact division by k with a bare ArithmeticError
    for gf in (fib_gf(), RationalGF((one,), (one, -x), 3)):
        with pytest.raises(NonIntegerValue, match="^the value of 'x' must be an integer"):
            iter_values(gf, {"x": 0.1}, 5)
    assert list(iter_values(fib_gf(), {"x": 1, "y": 0.5}, 5)) == [0, 1, 1, 2, 3, 5]


def test_iter_values_runs_no_engine_kernel(monkeypatch):
    rng = random.Random(2718)
    cases = [random_valued_gf(rng) for _ in range(10)]
    expected = [[p.evaluate(point) for p in expand_family(gf, N)]
                for gf, point, N in cases]

    def refuse(*args):
        raise AssertionError("the value stream ran an engine kernel")

    for module in (poly, recurrence, series):
        monkeypatch.setattr(module, "add_product_into", refuse)
    monkeypatch.setattr(recurrence, "_iter_power", refuse)  # Miller's loop on polynomials
    monkeypatch.setattr(series, "iter_convolve", refuse)
    monkeypatch.setattr(recurrence, "iter_convolve", refuse)
    monkeypatch.setattr(Recurrence, "iter_terms", refuse)
    for (gf, point, N), want in zip(cases, expected):
        assert list(iter_values(gf, point, N)) == want


def test_one_name_recurrences_hand_each_term_its_exact_variable_set():
    # with x in play, P_1 = (1 - x) + x*P_0 = 1 is constant and (1 + x*t)/(1 + x*t)
    # has P_k = 0 past P_0; p * one is a fresh polynomial that finds its own set
    for gf in [fib_gf(), catalan_gf(), RationalGF((one, one - x), (one, -x)),
               RationalGF((one, x), (one, x)), RationalGF((c(3),), (one, -one))]:
        terms = list(derive_recurrence(gf, 6).iter_terms(6))
        assert [p.variables() for p in terms] == [(p * one).variables() for p in terms]
    terms = derive_recurrence(RationalGF((one, one - x), (one, -x)), 2).iter_terms(2)
    assert [p.variables() for p in terms] == [frozenset(), frozenset(), {"x"}]


def test_iter_terms_raises_at_the_call_not_at_the_first_term():
    rec = Recurrence((x, one), (zero, one))
    with pytest.raises(NegativeOrder, match="^order must be nonnegative, got -1$"):
        rec.iter_terms(-1)
    steep = Recurrence((Polynomial({(("x", 2**31),): 1}),), (one,))
    assert len(list(steep.iter_terms(1))) == 2  # x^(2^31) is under the bound
    with pytest.raises(DegreeTooLarge):
        steep.iter_terms(2)  # x^(2^32) is past it


# -- cross-identities on randomized instances -------------------------------------


def test_expansion_matches_series_oracle():
    rng = random.Random(271828)
    for _ in range(40):
        gf = random_gf(rng)
        N = 12
        D = gf.reduced_denominator()
        num_series = SeriesPrefix.from_polynomials(gf.numerator, N)
        oracle = cauchy_mul(num_series, geometric_inverse(D, N))
        assert expand_family(gf, N) == oracle


def test_numerator_convolution_reconstruction():
    rng = random.Random(161803)
    for _ in range(40):
        gf = random_gf(rng)
        N = 12
        D = gf.reduced_denominator()
        rebuilt = convolve_numerator(gf.numerator, expand_inverse(D, N))
        assert rebuilt == expand_family(gf, N)


def test_identity_residual_randomized():
    rng = random.Random(141421)
    checked = 0
    while checked < 30:
        gf = random_gf(rng)
        if gf.power != 1:
            continue
        res = identity_residual(gf, 12)
        assert all(p.is_zero() for p in res)
        checked += 1


def test_identity_residual_points_at_corrupted_order(monkeypatch):
    real = recurrence.expand_family
    gfs = [fib_gf(), catalan_gf(), RationalGF((one, x, c(2)), (one, -x, zero, x))]
    for gf in gfs:
        for k in range(7):
            def corrupted(g, N, k=k):
                coeffs = list(real(g, N).coeffs)
                coeffs[k] = coeffs[k] + x
                return SeriesPrefix(coeffs)

            with monkeypatch.context() as patch:
                patch.setattr(recurrence, "expand_family", corrupted)
                res = identity_residual(gf, 6)
            assert all(p.is_zero() for p in res[:k])
            assert not res[k].is_zero()


def test_identity_residual_checks_the_series_it_is_given():
    gf = fib_gf()
    P, Q = expand_family(gf, 6), expand_inverse(gf.denominator, 6)
    assert identity_residual(gf, 6, P, Q) == identity_residual(gf, 6)
    bad = SeriesPrefix(P[:4] + (P[4] + x,) + P[5:])
    res = identity_residual(gf, 6, bad, Q)
    assert all(p.is_zero() for p in res[:4])
    assert res[4] == -x


def reference_residual(gf: RationalGF, N: int, P, Q) -> list[Polynomial]:
    """[k <= m] A_k - P_k - sum_l A_l E_{k-l} with E = (B - 1) * Q, built with
    Polynomial +, - and * only."""
    A, B = gf.numerator, gf.denominator
    E = [sum((B[j] * Q[k - j] for j in range(1, min(gf.n, k) + 1)), zero)
         for k in range(N + 1)]
    return [
        (A[k] if k <= gf.m else zero) - P[k]
        - sum((A[l] * E[k - l] for l in range(min(gf.m, k) + 1)), zero)
        for k in range(N + 1)
    ]


def corrupt(series: SeriesPrefix, k: int, delta: Polynomial) -> SeriesPrefix:
    return SeriesPrefix(series[:k] + (series[k] + delta,) + series[k + 1:])


@pytest.mark.parametrize("h", [1, 2])
def test_identity_residual_equals_a_reference_built_with_ring_operations(h):
    # A / B^h with the power folded into D = B^h, as verify checks it; P is
    # corrupted at one order, then Q, and every residual polynomial is pinned
    rng = random.Random(20261019 + h)
    N = 8
    checked = 0
    while checked < 8:
        names = COEFF_VARS[: rng.randint(1, 3)]
        A = [random_poly(rng, names) for _ in range(rng.randint(1, 3))]
        B = [one] + [random_poly(rng, names) for _ in range(rng.randint(1, 3))]
        gf = RationalGF(A, RationalGF(A, B, h).reduced_denominator(N))
        if not any(gf.numerator) or gf.n == 0:
            continue
        P, Q = expand_family(gf, N), expand_inverse(gf.denominator, N)
        AQ = convolve_numerator(gf.numerator, Q)

        def residuals(P):
            # Q inverts D: the identity formed here, then read from A * Q
            return [list(identity_residual(gf, N, P, Q, *given)) for given in ((), (AQ,))]

        assert inverts(gf.denominator, Q, N)
        assert residuals(P) == [[zero] * (N + 1)] * 2
        # A * (D - 1) starts at order low <= 5, so a change of Q_k shows from k + low
        low = (next(l for l, a in enumerate(gf.numerator) if a)
               + next(j for j, d in enumerate(gf.denominator) if j and d))
        k = rng.randint(0, N - low)
        delta = Polynomial.term(rng.randint(1, 5), {"x": rng.randint(0, 2)})
        bad_P, bad_Q = corrupt(P, k, delta), corrupt(Q, k, delta)
        expected = reference_residual(gf, N, bad_P, Q)
        assert expected == [zero] * k + [-delta] + [zero] * (N - k)
        assert residuals(bad_P) == [expected] * 2
        # bad_Q inverts nothing, so only the whole identity reads it
        assert not inverts(gf.denominator, bad_Q, N)
        expected = reference_residual(gf, N, P, bad_Q)
        assert expected[: k + low] == [zero] * (k + low)
        assert expected[k + low]
        assert list(identity_residual(gf, N, P, bad_Q)) == expected
        checked += 1


def test_a_series_whose_first_order_is_not_one_inverts_nothing():
    # 2Q keeps E_k = -(2Q)_k for k >= 1, since (B - 1) * 2Q = 2 - 2Q, but
    # (2Q)_0 = 2: 2Q does not invert B, and the residual is P - A, not P
    gf, N = fib_gf(), 6
    P = expand_family(gf, N)
    twice = SeriesPrefix([q.scale(2) for q in expand_inverse(gf.denominator, N)])
    E = tail_product(gf.denominator, twice, N)
    assert E[1:] == [-q for q in twice[1:]] and not inverts(gf.denominator, twice, N)
    expected = reference_residual(gf, N, P, twice)
    A = SeriesPrefix.from_polynomials(gf.numerator, N)
    assert expected == [p - a for p, a in zip(P, A)] and any(expected)
    assert list(identity_residual(gf, N, P, twice)) == expected


def test_identity_residual_reads_a_short_q_as_zero_past_its_order():
    # Q to order 3 of 6 is read with zeros after it, so it inverts nothing
    gf, N = fib_gf(), 6
    P, Q = expand_family(gf, N), expand_inverse(gf.denominator, 3)
    padded = SeriesPrefix.from_polynomials(Q.coeffs, N)
    assert not inverts(gf.denominator, Q, N)
    assert list(identity_residual(gf, N, P, Q)) == reference_residual(gf, N, P, padded)


def test_the_series_variable_is_refused_where_coefficients_enter():
    t = parse_poly("t")
    Q = expand_inverse(FIB_DEN, 4)
    for call in (
        lambda: geometric_inverse([one, -t], 4),
        lambda: geometric_inverse([one, x, t], 4, 2),
        lambda: multinomial_inverse([one, -t], 4),
        lambda: multinomial_inverse([one, x, t], 4, 3),
        lambda: convolve_numerator((one, t), Q),
        lambda: expand_inverse([one, -t], 4),
        lambda: identity_residual(RationalGF((t,), FIB_DEN), 4),
        lambda: identity_residual(RationalGF(FIB_NUM, (one, t)), 4),
    ):
        with pytest.raises(ValueError, match="must not mention the series variable"):
            call()
    # the power oracles read B only to order N, so a t past it never enters
    B = [one, -x, t]
    assert geometric_inverse(B, 1) == multinomial_inverse(B, 1) == SeriesPrefix([one, x])


def test_low_order_refinement():
    # for 0 <= k <= m:  A_k - P_k = sum_{j=1..k} sum_{i=0..k-j} B_j A_i Q_{k-j-i}
    rng = random.Random(173205)
    checked = 0
    while checked < 30:
        gf = random_gf(rng)
        if gf.power != 1:
            continue
        A, B, m, n = gf.numerator, gf.denominator, gf.m, gf.n
        P = expand_family(gf, m)
        Q = expand_inverse(B, m)
        for k in range(m + 1):
            rhs = zero
            for j in range(1, k + 1):
                if j > n:
                    continue
                for i in range(k - j + 1):
                    rhs = rhs + B[j] * A[i] * Q[k - j - i]
            assert A[k] - P[k] == rhs
        checked += 1


def test_degree_growth_bound():
    rng = random.Random(223606)
    for _ in range(25):
        gf = random_gf(rng)
        if all(p.is_zero() for p in gf.numerator):
            continue
        D = gf.reduced_denominator()
        deg_a = max(p.total_degree() for p in gf.numerator if not p.is_zero())
        tail = [p for p in D[1:] if not p.is_zero()]
        deg_b = max((p.total_degree() for p in tail), default=0)
        expansion = expand_family(gf, 15)
        for k, p in enumerate(expansion):
            if not p.is_zero():
                assert p.total_degree() <= deg_a + k * deg_b


def test_h_power_consistency():
    rng = random.Random(244948)
    for _ in range(25):
        gf = random_gf(rng)
        reduced = RationalGF(gf.numerator, gf.reduced_denominator())
        assert expand_family(gf, 10) == expand_family(reduced, 10)
