"""Series prefixes and the two brute-force inversion constructions."""

import random

import pytest

from helpers import COEFF_VARS, random_denominator, random_poly
from ratgen import poly, recurrence, series
from ratgen.errors import BadConstantTerm, DegreeTooLarge, NegativeOrder, OrderMismatch
from ratgen.parser import join_in_t, split_in_t
from ratgen.poly import MAX_DEGREE, Polynomial
from ratgen.recurrence import Recurrence, raise_denominator
from ratgen.series import (
    SeriesPrefix,
    cauchy_mul,
    convolve,
    geometric_inverse,
    multinomial_inverse,
)

x = Polynomial.variable("x")
one = Polynomial.one()
zero = Polynomial.zero()


def consts(*values: int) -> SeriesPrefix:
    return SeriesPrefix([Polynomial.constant(v) for v in values])


def test_prefix_shape():
    s = consts(1, 2, 3)
    assert s.order == 2
    assert len(s) == 3
    assert s[1] == Polynomial.constant(2)


def test_prefix_rejects_series_variable():
    from ratgen.parser import parse_poly

    with pytest.raises(ValueError):
        SeriesPrefix([parse_poly("t")])


def test_cauchy_geometric_times_denominator():
    # (1/(1-t)) * (1-t) = 1, truncated
    assert cauchy_mul(consts(1, 1, 1), consts(1, -1, 0)) == consts(1, 0, 0)


def test_cauchy_identity():
    a = SeriesPrefix([one, x, x**2 + one, zero])
    assert cauchy_mul(a, SeriesPrefix.identity(3)) == a


def test_cauchy_shift_by_t():
    a = SeriesPrefix([zero, one, zero, zero])
    b = SeriesPrefix([one, x, x**2 + one, x**3 + Polynomial.term(2, {"x": 1})])
    # independent oracle: direct convolution sum
    expected = []
    for k in range(4):
        total = zero
        for j in range(k + 1):
            total = total + a[j] * b[k - j]
        expected.append(total)
    got = cauchy_mul(a, b)
    assert got == SeriesPrefix(expected)
    # multiplying by t shifts the coefficients up one order
    assert got == SeriesPrefix([zero, one, x, x**2 + one])


def test_cauchy_order_mismatch():
    with pytest.raises(OrderMismatch):
        cauchy_mul(consts(1, 1), consts(1, 1, 1))


def test_cauchy_commutes_and_associates():
    rng = random.Random(314)
    for _ in range(50):
        N = rng.randint(0, 6)
        a = SeriesPrefix([random_poly(rng) for _ in range(N + 1)])
        b = SeriesPrefix([random_poly(rng) for _ in range(N + 1)])
        c = SeriesPrefix([random_poly(rng) for _ in range(N + 1)])
        assert cauchy_mul(a, b) == cauchy_mul(b, a)
        assert cauchy_mul(cauchy_mul(a, b), c) == cauchy_mul(a, cauchy_mul(b, c))


def test_convolve_matches_polynomial_product():
    # oracle: multiply in the t-bearing ring and re-split
    rng = random.Random(4242)
    for len_a, len_b in [(1, 4), (4, 1), (2, 5), (3, 3)] * 5:
        a = [random_poly(rng) for _ in range(len_a)]
        b = [random_poly(rng) for _ in range(len_b)]
        product = split_in_t(join_in_t(a) * join_in_t(b))
        for N in range(len_a + len_b + 1):  # below and above len_a+len_b-2
            expected = list(product[: N + 1])
            expected += [zero] * (N + 1 - len(expected))
            assert convolve(a, b, N) == expected


def test_oracles_use_neither_engine_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("an oracle ran an engine kernel")

    rng = random.Random(8128)
    cases = [(random_denominator(rng), rng.randint(0, 8), rng.randint(1, 6))
             for _ in range(16)]
    assert {h for _, _, h in cases} >= {1, 2, 3, 4, 5, 6}
    with monkeypatch.context() as patch:
        patch.setattr(Recurrence, "iter_terms", refuse)  # the recurrence loop
        patch.setattr(recurrence, "raise_denominator", refuse)  # the power fold
        patch.setattr(recurrence, "_iter_power", refuse)  # Miller's loop
        patch.setattr(poly, "_miller_power", refuse)  # the same kernel, run by **
        patch.setattr(series, "convolve", refuse)
        patch.setattr(series, "iter_convolve", refuse)
        patch.setattr(recurrence, "iter_convolve", refuse)
        inverses = [(geometric_inverse(B, N, h), multinomial_inverse(B, N, h))
                    for B, N, h in cases]
    for (B, N, h), (geometric, multinomial) in zip(cases, inverses):
        assert multinomial == geometric
        b_series = SeriesPrefix.from_polynomials(raise_denominator(B, h, N), N)
        assert cauchy_mul(b_series, geometric) == SeriesPrefix.identity(N)


def power_oracle_cases(seed: int, powers, count: int):
    """(B, N, h): B of degree n <= 3 in t, in 1-3 of the names x, y, z."""
    rng = random.Random(seed)
    for h in powers:
        for _ in range(count):
            names = COEFF_VARS[: rng.randint(1, 3)]
            B = [one] + [random_poly(rng, names) for _ in range(rng.randint(0, 3))]
            yield B, rng.randint(0, 7), h


@pytest.mark.parametrize("h", range(1, 7))
def test_power_oracles_agree_and_invert_b_to_the_h(h):
    for B, N, h in power_oracle_cases(20261019 + h, [h], 8):
        geometric = geometric_inverse(B, N, h)
        assert multinomial_inverse(B, N, h) == geometric
        # in the t-bearing ring: B^-h * B^h = 1 mod t^(N+1)
        product = split_in_t(join_in_t(geometric) * join_in_t(B) ** h)
        assert SeriesPrefix.from_polynomials(product, N) == SeriesPrefix.identity(N)


def test_power_oracles_read_b_only_to_order_n():
    # 1 - t^2000 is 1 to order 3, and so is its power; the oracles read no
    # order of B past N
    B = [one] + [zero] * 1999 + [-one]
    for oracle in (geometric_inverse, multinomial_inverse):
        assert oracle(B, 3, 2) == SeriesPrefix.identity(3)
    assert multinomial_inverse(B, 2000, 2)[2000] == Polynomial.constant(2)


def test_power_oracles_reject_a_power_below_one():
    for oracle in (geometric_inverse, multinomial_inverse):
        with pytest.raises(ValueError, match="power must be a positive integer"):
            oracle([one, -x], 3, 0)
        with pytest.raises(ValueError, match="power must be a positive integer"):
            oracle([one, -x], 3, 1.5)


def geometric_products(monkeypatch, B, N, h):
    """geometric_inverse(B, N, h) and, per add_product_into call it made,
    whether both operands were nonzero."""
    calls = []
    real = series.add_product_into

    def counted(acc, p, q):
        calls.append(bool(p) and bool(q))
        real(acc, p, q)

    with monkeypatch.context() as patch:
        patch.setattr(series, "add_product_into", counted)
        got = geometric_inverse(B, N, h)
    return got, calls


def test_geometric_inverse_forms_no_product_outside_the_band_of_h_to_the_k(monkeypatch):
    # H = x*t + y*t^2 + z*t^3 is dense, so every order k..3k of H^k is nonzero:
    # a product with a zero operand means an order outside that band was visited
    y, z = Polynomial.variable("y"), Polynomial.variable("z")
    B = [one, -x, -y, -z]
    for h in (1, 3):
        got, calls = geometric_products(monkeypatch, B, 12, h)
        assert calls and all(calls)
        assert got == multinomial_inverse(B, 12, h)
    # the same with a gap in H (B_2 = 0) and a power above one
    B = [one, -x, zero, -z]
    assert geometric_inverse(B, 12, 3) == multinomial_inverse(B, 12, 3)


def test_geometric_inverse_forms_as_many_products_for_every_power(monkeypatch):
    # h enters only as the binomial weight of each H^k: no power of 1/B is
    # formed, so B^-8 costs the products of 1/B
    y, z = Polynomial.variable("y"), Polynomial.variable("z")
    B = [one, -x, -y, -z]
    counts = {h: len(geometric_products(monkeypatch, B, 12, h)[1]) for h in (1, 2, 3, 8)}
    assert len(set(counts.values())) == 1, counts


def test_geometric_inverse_of_one_minus_t():
    assert geometric_inverse([one, -one], 4) == consts(1, 1, 1, 1, 1)


def test_geometric_inverse_of_one():
    assert geometric_inverse([one], 3) == SeriesPrefix.identity(3)


def test_geometric_inverse_fibonacci_denominator():
    got = geometric_inverse([one, -x, -one], 3)
    assert got == SeriesPrefix(
        [one, x, x**2 + one, x**3 + Polynomial.term(2, {"x": 1})]
    )


def test_geometric_inverse_rejects_bad_constant_term():
    with pytest.raises(BadConstantTerm):
        geometric_inverse([Polynomial.constant(2), -one], 3)
    with pytest.raises(BadConstantTerm):
        geometric_inverse([one + x], 3)
    with pytest.raises(BadConstantTerm):
        geometric_inverse([], 3)


def test_negative_order_rejected():
    with pytest.raises(NegativeOrder):
        geometric_inverse([one], -1)
    with pytest.raises(NegativeOrder):
        multinomial_inverse([one], -2)


def test_multinomial_single_term_reduces_to_geometric_series():
    assert multinomial_inverse([one, -one], 3) == consts(1, 1, 1, 1)


def test_multinomial_matches_geometric_on_fibonacci_denominator():
    B = [one, -x, -one]
    assert multinomial_inverse(B, 3) == geometric_inverse(B, 3)


def test_multinomial_catalan_denominator():
    got = multinomial_inverse([one, -one, x], 2)
    assert got == SeriesPrefix([one, one, one - x])
    assert got == geometric_inverse([one, -one, x], 2)


def test_multinomial_rejects_bad_constant_term():
    with pytest.raises(BadConstantTerm):
        multinomial_inverse([x], 2)


def test_inversion_correctness_randomized():
    # B * (1/B) = 1 exactly, for random admissible denominators
    rng = random.Random(2718)
    for _ in range(60):
        B = random_denominator(rng)
        N = rng.randint(0, 10)
        inv = geometric_inverse(B, N)
        b_series = SeriesPrefix.from_polynomials(B, N)
        assert cauchy_mul(b_series, inv) == SeriesPrefix.identity(N)


def test_oracle_agreement_randomized():
    rng = random.Random(1618)
    for _ in range(40):
        B = random_denominator(rng, max_n=4)
        N = rng.randint(0, 12)
        assert multinomial_inverse(B, N) == geometric_inverse(B, N)


def test_truncation_consistency():
    rng = random.Random(55)
    for _ in range(20):
        B = random_denominator(rng)
        N = rng.randint(0, 10)
        full = geometric_inverse(B, N)
        for M in range(N + 1):
            assert geometric_inverse(B, M) == full.truncate(M)


def test_truncate_cannot_extend():
    s = consts(1, 2)
    with pytest.raises(OrderMismatch):
        s.truncate(5)


def test_kernels_check_the_degree_bound_before_their_loops():
    half = x ** (MAX_DEGREE // 2 + 1)  # two of these pass the bound
    B = (one, -half)
    B2 = (one, zero, -half)  # the degree grows by deg B_2 / 2 per order
    assert geometric_inverse(B, 1)[1] == half
    assert raise_denominator(B, 2, 1)[1] == Polynomial.constant(-2) * half
    assert list(Recurrence((half,), (one,)).iter_terms(1))[1] == half
    assert convolve((half,), (one,), 0) == [half]
    assert geometric_inverse(B2, 3)[2] == half
    assert raise_denominator(B2, 2, 3)[2] == Polynomial.constant(-2) * half
    assert list(Recurrence((zero, half), (one,)).iter_terms(3))[2] == half
    for kernel in (
        lambda: geometric_inverse(B, 2),  # N * deg B_1
        lambda: multinomial_inverse(B, 2),  # N * deg B_1
        lambda: raise_denominator(B, 2),  # top order * deg B_1
        lambda: Recurrence((half,), (one,)).iter_terms(2),  # forcing + N * deg feedback_1
        lambda: convolve((half,), (half,), 0),  # deg a + deg b
        lambda: geometric_inverse(B2, 4),  # 4 * deg B_2 / 2
        lambda: raise_denominator(B2, 2),
        lambda: Recurrence((zero, half), (one,)).iter_terms(4),
    ):
        with pytest.raises(DegreeTooLarge):
            kernel()
