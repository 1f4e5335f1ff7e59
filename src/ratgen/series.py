"""Truncated formal power series in the reserved variable t.

A :class:`SeriesPrefix` holds the coefficients of orders 0..N of a series
whose coefficients are t-free polynomials.  Coefficients are checked for t
once, where they enter the library: a prefix built from outside, and the
inputs of the functions here and in :mod:`ratgen.recurrence`.  What those
functions build from checked inputs cannot mention t, so they wrap it with
the unchecked :meth:`SeriesPrefix._unchecked`.  Each rule on those inputs
has one gate here, which each public entry calls once, never per term:
:func:`check_order` for N, :func:`check_denominator` for B (B_0 = 1, no t),
:func:`check_power` for h and :func:`check_growth` for the degree bound.
All identities here are exact; no convergence argument is needed because
every computation touches only finitely many orders.

Two independent constructions give B^-h for an admissible denominator B
(constant term 1) and a power h >= 1, reading B and h themselves:
:func:`geometric_inverse` forms the powers H^k of ``H = 1 - B`` one from
the last and sums them with the weights C(k+h-1, k) of the generalized
binomial series, so its product count does not depend on h, and
:func:`multinomial_inverse` expands the same series term by term by the
multinomial theorem.  They exist to cross-check the recurrence engine and
each other, so neither is allowed to use the recurrence, Miller's power
loop or :func:`convolve`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat
from math import comb
from operator import index, mul
from typing import Iterable, Iterator, Sequence

from .errors import (BadConstantTerm, BadPower, InvalidVariable, NegativeOrder,
                     NonIntegerOrder, NotAPolynomial, OrderMismatch)
from .poly import (
    RESERVED_VARIABLE,
    Polynomial,
    RawTerms,
    add_product_into,
    check_degree,
)


def check_t_free(coeffs: Iterable[Polynomial], what: str) -> None:
    """Raise NotAPolynomial if a coefficient is not a Polynomial, and
    InvalidVariable if one mentions the series variable."""
    for p in coeffs:
        if not isinstance(p, Polynomial):
            raise NotAPolynomial(f"{what} coefficients must be Polynomials, got {p!r}")
        if p.mentions(RESERVED_VARIABLE):
            raise InvalidVariable(
                f"{what} coefficients must not mention the series variable"
            )


def check_order(N: int) -> int:
    """N as an int: NonIntegerOrder unless it is an integer, NegativeOrder below 0."""
    try:
        N = index(N)
    except TypeError:
        raise NonIntegerOrder(f"order must be an integer, got {N!r}") from None
    if N < 0:
        raise NegativeOrder(f"order must be nonnegative, got {N}")
    return N


def check_power(h: int) -> None:
    """Raise BadPower unless the power h of B^-h is a positive integer (not a bool)."""
    if not isinstance(h, int) or isinstance(h, bool) or h < 1:
        raise BadPower(f"power must be a positive integer, got {h!r}")


def trimmed(coeffs: tuple[Polynomial, ...]) -> tuple[Polynomial, ...]:
    """coeffs without its trailing zero orders; order 0 is always kept."""
    end = len(coeffs)
    while end > 1 and not coeffs[end - 1]:
        end -= 1
    return coeffs[:end]


def check_denominator(
    B: Iterable[Polynomial], N: int | None = None
) -> tuple[Polynomial, ...]:
    """B_0..B_min(n, N), the orders a caller reads (N = None reads them all),
    with trailing zeros trimmed: BadConstantTerm unless B_0 = 1, and
    check_t_free's errors for an order read."""
    B = tuple(islice(B, None if N is None else N + 1))
    check_t_free(B, "denominator")
    if not B or not B[0].is_one():
        raise BadConstantTerm("denominator constant term must be 1")
    return trimmed(B)


def check_growth(
    start: Iterable[Polynomial], feedback: Sequence[Polynomial], N: int
) -> None:
    """Raise DegreeTooLarge if N steps of X_k = sum_j feedback[j-1] * X_{k-j},
    started from polynomials ``start``, may pass MAX_DEGREE.

    With r = max_j deg feedback_j / j, induction on k gives
    deg X_k <= max deg of the start + floor(k*r), and every product
    feedback_j * X_{k-j} obeys the same bound; so one check at order N
    covers every order and every product before it.
    """
    check_degree(
        max((p.total_degree() for p in start), default=0)
        + max((N * p.total_degree() // j for j, p in enumerate(feedback, 1)), default=0)
    )


def _orders(coeffs: Iterable[Polynomial]) -> tuple[Polynomial, ...]:
    coeffs = tuple(coeffs)
    if not coeffs:
        raise NegativeOrder("a series prefix holds at least order 0")
    return coeffs


@dataclass(frozen=True, slots=True, repr=False)
class SeriesPrefix:
    """Coefficients of t^0..t^N of a formal power series."""

    coeffs: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        coeffs = _orders(self.coeffs)
        check_t_free(coeffs, "series")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _unchecked(cls, coeffs: Iterable[Polynomial]) -> SeriesPrefix:
        """A prefix of coefficients the library built from checked inputs,
        which therefore cannot mention t."""
        self = object.__new__(cls)
        object.__setattr__(self, "coeffs", _orders(coeffs))
        return self

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Polynomial:
        return self.coeffs[k]

    def __iter__(self):
        return iter(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __repr__(self) -> str:
        from .parser import format_poly

        inner = ", ".join(format_poly(p) for p in self.coeffs)
        return f"SeriesPrefix([{inner}])"

    def truncate(self, order: int) -> SeriesPrefix:
        """The prefix of orders 0..order; requires order <= self.order."""
        if (order := check_order(order)) > self.order:
            raise OrderMismatch(
                f"cannot extend order {self.order} prefix to {order}"
            )
        return SeriesPrefix._unchecked(self.coeffs[: order + 1])

    @classmethod
    def from_polynomials(cls, seq: Sequence[Polynomial], order: int) -> SeriesPrefix:
        """A polynomial's t-coefficient list, zero-padded or cut to an order."""
        order = check_order(order)
        coeffs = list(seq[: order + 1])
        coeffs.extend([Polynomial.zero()] * (order + 1 - len(coeffs)))
        return cls(coeffs)


def iter_convolve(
    a: Sequence[Polynomial], b: Iterable[Polynomial]
) -> Iterator[Polynomial]:
    """c_k = sum_{j<=min(k, len(a)-1)} a_j b_{k-j}, one per b_k as it arrives.

    The engine's one truncated convolution: it holds only the last len(a)
    terms of b, so b may be a stream.  :func:`convolve` runs through it, and
    so do the Cauchy product, the numerator convolution, the residual
    identity and the expansion of A / B^h for h > 1.  The inversion oracles
    below call none of them.  The caller checks the degree bound.
    """
    window: deque[Polynomial] = deque(maxlen=len(a))  # b_k, b_{k-1}, ..
    for q in b:
        window.appendleft(q)
        acc: RawTerms = {}
        for coeff, prev in zip(a, window):
            add_product_into(acc, coeff, prev)
        yield Polynomial.from_raw(acc)


def convolve(
    a: Sequence[Polynomial], b: Sequence[Polynomial], N: int
) -> list[Polynomial]:
    """Orders 0..N of the product of two t-coefficient sequences."""
    check_convolution_degree(a, b, N)
    padded = chain(b[: N + 1], repeat(Polynomial.zero(), max(0, N - len(b) + 1)))
    return list(iter_convolve(a, padded))


def check_convolution_degree(
    a: Sequence[Polynomial], b: Sequence[Polynomial], N: int
) -> None:
    """The degree bound of orders 0..N of the product of a and b."""
    last_b = len(b) - 1
    # a_j meets only b_0..b_{N-j}: the bound of each a_j uses their largest degree
    top_b = list(accumulate((p.total_degree() for p in b), max))
    check_degree(max(
        (a[j].total_degree() + top_b[min(N - j, last_b)]
         for j in range(min(N, len(a) - 1) + 1)),
        default=0,
    ))


def cauchy_mul(a: SeriesPrefix, b: SeriesPrefix) -> SeriesPrefix:
    """Convolution product of two prefixes of equal truncation order."""
    if a.order != b.order:
        raise OrderMismatch(
            f"truncation orders differ: {a.order} vs {b.order}"
        )
    return SeriesPrefix._unchecked(convolve(a.coeffs, b.coeffs, a.order))


def _check_oracle(
    B: Sequence[Polynomial], N: int, h: int
) -> tuple[tuple[Polynomial, ...], int]:
    """The power oracles' gates; returns B_0..B_min(n, N), the orders they
    read, trimmed, and N."""
    N = check_order(N)
    check_power(h)
    B = check_denominator(B, N)
    check_growth((), B[1:], N)
    return B, N


def _nonzero_terms(B: Sequence[Polynomial]) -> list[tuple[int, Polynomial]]:
    """(l, H_l) for each nonzero order l >= 1 of H = 1 - B, in increasing l."""
    return [(l, -B[l]) for l in range(1, len(B)) if B[l]]


def geometric_inverse(
    B: Sequence[Polynomial], N: int, h: int = 1
) -> SeriesPrefix:
    """B^-h up to order N: the powers of H = 1 - B, each weighted by its
    binomial coefficient, (1 - H)^-h = sum_k C(k+h-1, k) * H^k.

    H is divisible by t^low, its lowest order, so H^k contributes nothing
    below order k*low and the partial sum over k <= N/low already fixes
    every requested coefficient; only B_0..B_min(n, N) are read.  Nor does
    H^k reach past order k*high, the highest of H read, so no order or
    product outside that band is formed.  The power h enters only through
    the integer weights, so the number of products does not depend on h.
    Every order of B^-h has degree at most N * max_j deg B_j / j, so one
    bound, checked at entry, covers them all.
    """
    B, N = _check_oracle(B, N, h)
    H = _nonzero_terms(B)
    # H^k vanishes outside orders k*low..k*high
    low, high = (H[0][0], H[-1][0]) if H else (N + 1, 0)
    one = Polynomial.one()
    # orders of sum_{k>=1} C(k+h-1, k) H^k
    sums: list[RawTerms] = [{} for _ in range(N + 1)]
    power = [one] + [Polynomial.zero()] * N  # H^0
    for k in range(1, N // low + 1):
        weight = Polynomial.constant(comb(k + h - 1, k))
        nxt = [Polynomial.zero()] * (N + 1)
        for d in range(k * low, min(N, k * high) + 1):
            acc: RawTerms = {}
            # H^k = H^(k-1) * H, and H^(k-1) vanishes outside orders
            # (k-1)*low..(k-1)*high
            for l, coeff in H:
                if l > d - (k - 1) * low:
                    break
                if d - l <= (k - 1) * high:
                    add_product_into(acc, coeff, power[d - l])
            nxt[d] = Polynomial.from_raw(acc)
            add_product_into(sums[d], weight, nxt[d])
        power = nxt
    return SeriesPrefix._unchecked(
        [one] + [Polynomial.from_raw(acc) for acc in sums[1:]]
    )


def multinomial_inverse(
    B: Sequence[Polynomial], N: int, h: int = 1
) -> SeriesPrefix:
    """B^-h up to order N by the generalized binomial series of (1 - H)^-h.

    With H = 1 - B, order k of B^-h is the sum over exponent tuples
    (j_1..j_n) of weight j_1 + 2*j_2 + ... + n*j_n = k of

        h^(s) / (j_1! ... j_n!) * (-B_1)^j_1 ... (-B_n)^j_n,

    where s = j_1 + ... + j_n and h^(s) = h*(h+1)*..*(h+s-1) is the rising
    factorial (Comtet, *Advanced Combinatorics*, 1974); at h = 1 it is
    s!/(j_1!...j_n!), the multinomial expansion of sum_s H^s.  Only
    B_0..B_min(n, N) are read.  The tuples are walked depth first with an
    explicit stack, so no recursion limit applies, and each tuple costs one
    product.  Each product of weight w <= N has degree at most
    N * max_j deg B_j / j, the one bound checked at entry.  Exponential in n;
    meant for desk-scale checks.
    """
    B, N = _check_oracle(B, N, h)
    factors = _nonzero_terms(B)
    fact = list(accumulate(range(1, N + 1), mul, initial=1))
    rising = list(accumulate(range(h, h + N), mul, initial=1))  # h^(s)
    out: list[RawTerms] = [{} for _ in range(N + 1)]
    constants: dict[int, Polynomial] = {}  # h^(s) / (j_1!..j_n!) for each value met
    # a tuple whose last nonzero exponent sits before factors[start]; its
    # weight, s, j_1!..j_n! and product (-B_1)^j_1..(-B_n)^j_n
    stack = [(0, 0, 0, 1, Polynomial.one())]
    while stack:
        start, weight, s, denom, prod = stack.pop()
        c = rising[s] // denom
        if c not in constants:
            constants[c] = Polynomial.constant(c)
        add_product_into(out[weight], constants[c], prod)
        for i in range(start, len(factors)):
            l, factor = factors[i]
            if weight + l > N:
                break  # and so does every later l
            j, power = 1, prod
            while weight + l * j <= N:
                acc: RawTerms = {}
                add_product_into(acc, power, factor)
                power = Polynomial.from_raw(acc)
                stack.append((i + 1, weight + l * j, s + j, denom * fact[j], power))
                j += 1
    return SeriesPrefix._unchecked(Polynomial.from_raw(acc) for acc in out)
