"""Truncated formal power series in the reserved variable t.

A :class:`SeriesPrefix` holds the coefficients of orders 0..N of a series
whose coefficients are t-free polynomials.  All identities here are exact;
no convergence argument is needed because every computation touches only
finitely many orders.

Two independent constructions invert an admissible denominator (constant
term 1): :func:`geometric_inverse` sums powers of ``1 - B`` and
:func:`multinomial_inverse` enumerates the multinomial expansion of those
powers directly.  They exist to cross-check the recurrence engine and each
other, so neither is allowed to use the recurrence or :func:`convolve`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from typing import Iterable, Iterator, Sequence

from .errors import BadConstantTerm, NegativeOrder, OrderMismatch
from .poly import (
    RESERVED_VARIABLE,
    Polynomial,
    RawTerms,
    add_product_into,
    check_degree,
    growth_degree,
)


@dataclass(frozen=True, slots=True, repr=False)
class SeriesPrefix:
    """Coefficients of t^0..t^N of a formal power series."""

    coeffs: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(self.coeffs)
        if not coeffs:
            raise NegativeOrder("a series prefix holds at least order 0")
        for p in coeffs:
            if p.mentions(RESERVED_VARIABLE):
                raise ValueError(
                    "series coefficients must not mention the series variable"
                )
        object.__setattr__(self, "coeffs", coeffs)

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
        if order < 0:
            raise NegativeOrder(f"order must be nonnegative, got {order}")
        if order > self.order:
            raise OrderMismatch(
                f"cannot extend order {self.order} prefix to {order}"
            )
        return SeriesPrefix(self.coeffs[: order + 1])

    @classmethod
    def identity(cls, order: int) -> SeriesPrefix:
        """The series 1 truncated at the given order."""
        return cls.from_polynomials((Polynomial.one(),), order)

    @classmethod
    def from_polynomials(cls, seq: Sequence[Polynomial], order: int) -> SeriesPrefix:
        """A polynomial's t-coefficient list, zero-padded or cut to an order."""
        if order < 0:
            raise NegativeOrder(f"order must be nonnegative, got {order}")
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
    last_a, last_b = len(a) - 1, len(b) - 1
    # a_j meets only b_0..b_{N-j}: the bound of each a_j uses their largest degree
    top_b = list(accumulate((p.total_degree() for p in b), max))
    check_degree(max(
        (a[j].total_degree() + top_b[min(N - j, last_b)]
         for j in range(min(N, last_a) + 1)),
        default=0,
    ))
    padded = chain(b[: N + 1], repeat(Polynomial.zero(), max(0, N - last_b)))
    return list(iter_convolve(a, padded))


def cauchy_mul(a: SeriesPrefix, b: SeriesPrefix) -> SeriesPrefix:
    """Convolution product of two prefixes of equal truncation order."""
    if a.order != b.order:
        raise OrderMismatch(
            f"truncation orders differ: {a.order} vs {b.order}"
        )
    return SeriesPrefix(convolve(a.coeffs, b.coeffs, a.order))


def _check_denominator(B: Sequence[Polynomial]) -> None:
    if not B or not B[0].is_one():
        raise BadConstantTerm("denominator constant term must be 1")


def geometric_inverse(B: Sequence[Polynomial], N: int) -> SeriesPrefix:
    """1/B up to order N via the geometric sum of powers of h = 1 - B.

    h is divisible by t, so h^k contributes nothing below order k and the
    partial sum over k <= N already fixes every requested coefficient.
    """
    _check_denominator(B)
    if N < 0:
        raise NegativeOrder(f"order must be nonnegative, got {N}")
    check_degree(growth_degree(B[1:], N))
    n = len(B) - 1
    h = [Polynomial.zero()] + [-B[l] for l in range(1, n + 1)]
    total = [Polynomial.one()] + [Polynomial.zero()] * N
    power = list(total)  # h^0
    for k in range(1, N + 1):
        nxt = [Polynomial.zero()] * (N + 1)
        for d in range(k, N + 1):
            acc: RawTerms = {}
            # h^k = h^(k-1) * h; h^(k-1) vanishes below order k-1
            for l in range(1, min(n, d - k + 1) + 1):
                add_product_into(acc, h[l], power[d - l])
            nxt[d] = Polynomial.from_raw(acc)
        power = nxt
        for d in range(k, N + 1):
            total[d] = total[d] + power[d]
    return SeriesPrefix(total)


def multinomial_inverse(B: Sequence[Polynomial], N: int) -> SeriesPrefix:
    """1/B up to order N via explicit multinomial expansion of (1-B)^k.

    Enumerates exponent tuples (j_1..j_n) in lexicographic order, pruning on
    weighted degree j_1 + 2*j_2 + ... + n*j_n > N.  Each tuple contributes
    (-1)^k * k!/(j_1!...j_n!) * B_1^{j_1}...B_n^{j_n} at its weighted degree,
    with k = j_1 + ... + j_n.  Exponential in n; meant for desk-scale checks.
    """
    _check_denominator(B)
    if N < 0:
        raise NegativeOrder(f"order must be nonnegative, got {N}")
    n = len(B) - 1
    out = [Polynomial.zero()] * (N + 1)
    out[0] = Polynomial.one()
    if n == 0:
        return SeriesPrefix(out)

    fact = [1] * (N + 1)
    for i in range(1, N + 1):
        fact[i] = fact[i - 1] * i

    # B_l powers, computed on demand: powers[l][j] = B_l^j
    powers: list[list[Polynomial]] = [[Polynomial.one()] for _ in range(n + 1)]

    def power_of(l: int, j: int) -> Polynomial:
        cache = powers[l]
        while len(cache) <= j:
            cache.append(cache[-1] * B[l])
        return cache[j]

    # denom accumulates j_1!...j_l!; the multinomial k!/denom is exact.
    def enumerate_from(l: int, weighted: int, k: int, denom: int, prod: Polynomial) -> None:
        if l > n:
            if k > 0:
                coeff = fact[k] // denom
                sign = -1 if k % 2 else 1
                out[weighted] = out[weighted] + prod.scale(sign * coeff)
            return
        j = 0
        while weighted + l * j <= N:
            enumerate_from(
                l + 1,
                weighted + l * j,
                k + j,
                denom * fact[j],
                prod * power_of(l, j) if j else prod,
            )
            j += 1

    enumerate_from(1, 0, 0, 1, Polynomial.one())
    return SeriesPrefix(out)
