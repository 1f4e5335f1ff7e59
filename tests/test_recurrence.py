"""The derived recursion, its companion identities, and the power reduction."""

import random

import pytest

from helpers import random_gf, random_poly
from ratgen import recurrence
from ratgen.errors import BadConstantTerm, DegreeTooLarge, NegativeOrder, PowerNotOne
from ratgen.parser import join_in_t, split_in_t
from ratgen.poly import Polynomial
from ratgen.recurrence import (
    RationalGF,
    Recurrence,
    convolve_numerator,
    derive_recurrence,
    expand_family,
    expand_inverse,
    identity_residual,
    raise_denominator,
    render_recurrence,
)
from ratgen.series import SeriesPrefix, cauchy_mul, geometric_inverse

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
    with pytest.raises(ValueError):
        raise_denominator([one], 0)


def test_truncated_power_leaves_expansion_unchanged():
    rng = random.Random(1729)
    for _ in range(15):
        gf = random_gf(rng)
        gf = RationalGF(gf.numerator, gf.denominator, rng.randint(1, 5))
        full = gf.reduced_denominator()
        for N in range(gf.power * gf.n + 1):
            assert gf.reduced_denominator(N) == full[: N + 1]
            assert expand_family(gf, N) == expand_family(gf.reduced(), N)
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


def test_recurrence_order_is_the_feedback_length():
    rec = Recurrence((x, one), (zero, one))
    assert rec.order == 2
    assert rec.expand(3) == expand_family(fib_gf(), 3)


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
    res = identity_residual(gf.reduced(), 6)
    assert all(p.is_zero() for p in res)


# -- recurrence descriptor --------------------------------------------------------


def test_derive_fibonacci_recurrence():
    rec = derive_recurrence(fib_gf())
    assert rec.order == 2
    assert rec.feedback == (x, one)
    assert rec.forcing == (zero, one)
    assert render_recurrence(rec) == (
        "P_k = x*P_{k-1} + P_{k-2} (k >= 2); P_0 = 0; P_1 = 1"
    )


def test_derive_order_one_recurrence():
    rec = derive_recurrence(RationalGF((one,), (one, -one)))
    assert rec.order == 1
    assert rec.feedback == (one,)
    assert rec.forcing == (one,)
    assert render_recurrence(rec) == "P_k = P_{k-1} (k >= 1); P_0 = 1"


def test_derive_catalan_recurrence():
    rec = derive_recurrence(catalan_gf())
    assert rec.order == 2
    assert rec.feedback == (one, -x)
    assert render_recurrence(rec) == (
        "P_k = P_{k-1} - x*P_{k-2} (k >= 2); P_0 = 1; P_1 = 1"
    )


def test_derive_recurrence_reduces_power():
    rec = derive_recurrence(RationalGF((one,), (one, -one), 2))
    assert rec.order == 2
    assert rec.feedback == (c(2), -one)


def test_render_zero_feedback():
    rec = derive_recurrence(RationalGF((one,), (one,)))
    assert render_recurrence(rec) == "P_k = 0 (k >= 1); P_0 = 1"


def test_render_multi_term_coefficient_parenthesized():
    rec = derive_recurrence(RationalGF((one,), (one, -(x + one))))
    assert render_recurrence(rec) == "P_k = (x + 1)*P_{k-1} (k >= 1); P_0 = 1"


def test_recurrence_expand_matches_source():
    rng = random.Random(11)
    for _ in range(30):
        gf = random_gf(rng)
        rec = derive_recurrence(gf)
        assert rec.expand(12) == expand_family(gf, 12)


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
        assert streamed == list(rec.expand(N).coeffs)
        den = (one,) + tuple(-f for f in feedback)
        oracle = convolve_numerator(forcing, geometric_inverse(den, N))
        assert streamed == list(oracle.coeffs), (order, m1, N)


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
        reduced = gf.reduced()
        assert reduced.power == 1
        assert expand_family(gf, 10) == expand_family(reduced, 10)
