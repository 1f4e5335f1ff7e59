"""Recurrence derivation and expansion for rational generating functions.

Given f = A(x,t) / B(x,t)^h with B's constant term 1, the coefficient
polynomials of f obey

    P_0 = A_0,    P_k = [k <= m] A_k - sum_{j=1..min(n,k)} B_j P_{k-j}

after the denominator power has been folded in (B^h is again a polynomial
in t with constant term 1, built by Miller's power recurrence and only up
to the order an expansion reads).  This module derives that recursion as
data, runs it, and computes the companion identities used for
cross-checking: the inverse sequence Q of 1/B, the numerator convolution
that rebuilds P from Q, and the residual that must vanish identically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import NegativeOrder, PowerNotOne
from .poly import (
    RESERVED_VARIABLE,
    Polynomial,
    RawTerms,
    add_product_into,
    check_degree,
    growth_degree,
    max_degree,
)
from .series import SeriesPrefix, _check_denominator, convolve

_ZERO = Polynomial.zero()


def _as_trimmed(seq: Sequence[Polynomial], what: str) -> tuple[Polynomial, ...]:
    coeffs = list(seq)
    if not coeffs:
        raise ValueError(f"{what} must have at least one coefficient")
    for p in coeffs:
        if p.mentions(RESERVED_VARIABLE):
            raise ValueError(
                f"{what} coefficients must not mention the series variable"
            )
    while len(coeffs) > 1 and coeffs[-1].is_zero():
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class RationalGF:
    """A(x,..,t) / B(x,..,t)^power in normal form.

    numerator:   A_0..A_m as coefficients of t^j (trailing zeros trimmed;
                 the all-zero numerator [0] is allowed and generates the
                 zero family)
    denominator: B_0..B_n with B_0 = 1 (trailing zeros trimmed)
    power:       h >= 1
    """

    numerator: tuple[Polynomial, ...]
    denominator: tuple[Polynomial, ...]
    power: int = 1

    def __post_init__(self) -> None:
        num = _as_trimmed(self.numerator, "numerator")
        den = _as_trimmed(self.denominator, "denominator")
        _check_denominator(den)
        if not isinstance(self.power, int) or self.power < 1:
            raise ValueError(f"power must be a positive integer, got {self.power}")
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    @property
    def m(self) -> int:
        return len(self.numerator) - 1

    @property
    def n(self) -> int:
        return len(self.denominator) - 1

    def reduced_denominator(self, N: int | None = None) -> tuple[Polynomial, ...]:
        """D_0..D_min(N, h*n) of B^h, the denominator with the power folded in.

        N = None keeps every order, h*n + 1 of them.
        """
        if self.power > 1:
            return raise_denominator(self.denominator, self.power, N)
        if N is None:
            return self.denominator
        if N < 0:
            raise NegativeOrder(f"order must be nonnegative, got {N}")
        return self.denominator[: N + 1]

    def reduced(self) -> RationalGF:
        """The equivalent generating function with power 1."""
        if self.power == 1:
            return self
        return RationalGF(self.numerator, self.reduced_denominator(), 1)


@dataclass(frozen=True)
class Recurrence:
    """The derived recursion as data.

    feedback[j-1] multiplies P_{k-j} on the right-hand side (that is, it
    already carries the minus sign of the denominator coefficient); forcing
    holds A_0..A_m, active only while k <= m.
    """

    feedback: tuple[Polynomial, ...]
    forcing: tuple[Polynomial, ...]

    @property
    def order(self) -> int:
        return len(self.feedback)

    @property
    def forcing_cutoff(self) -> int:
        return len(self.forcing) - 1

    def homogeneous_from(self) -> int:
        """Smallest k from which P_k = sum_j feedback_j P_{k-j} holds."""
        return max(self.forcing_cutoff + 1, self.order)

    def iter_terms(self, N: int) -> Iterator[Polynomial]:
        """Yield P_0..P_N, holding only the last ``order`` of them.

        The engine's one recurrence loop; :meth:`expand` runs through it.  A
        negative N or a degree past the bound raises at the call, before the
        first term."""
        if N < 0:
            raise NegativeOrder(f"order must be nonnegative, got {N}")
        feedback, forcing = self.feedback, self.forcing
        check_degree(max_degree(forcing) + growth_degree(feedback, N))
        one = Polynomial.one()
        window: deque[Polynomial] = deque(maxlen=self.order)  # P_{k-order}..P_{k-1}

        def terms() -> Iterator[Polynomial]:
            window.append(forcing[0])
            yield forcing[0]
            for k in range(1, N + 1):
                acc: RawTerms = {}
                if k < len(forcing):
                    add_product_into(acc, forcing[k], one)
                for coeff, prev in zip(feedback, reversed(window)):
                    add_product_into(acc, coeff, prev)
                p = Polynomial.from_raw(acc)
                window.append(p)
                yield p

        return terms()

    def expand(self, N: int) -> SeriesPrefix:
        """Run the stored recursion; reproduces the source expansion."""
        return SeriesPrefix(tuple(self.iter_terms(N)))


def raise_denominator(
    B: Sequence[Polynomial], h: int, N: int | None = None
) -> tuple[Polynomial, ...]:
    """D_0..D_min(N, h*n) of B^h, with D_0 = 1; N = None gives all orders.

    J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2, section 4.7):

        k*D_k = sum_{j=1..min(n,k)} ((h+1)*j - k) * B_j * D_{k-j}

    so each order costs at most n small-by-large products and one division
    by k, which is exact because B_0 = 1.
    """
    _check_denominator(B)
    if h < 1:
        raise ValueError(f"power must be a positive integer, got {h}")
    if N is not None and N < 0:
        raise NegativeOrder(f"order must be nonnegative, got {N}")
    B = _as_trimmed(B, "denominator")
    n = len(B) - 1
    top = h * n if N is None else min(N, h * n)
    check_degree(growth_degree(B[1:], top))
    D: list[Polynomial] = [B[0]]
    for k in range(1, top + 1):
        acc: RawTerms = {}
        for j in range(1, min(n, k) + 1):
            add_product_into(acc, B[j].scale((h + 1) * j - k), D[k - j])
        D.append(Polynomial.from_raw(acc).exact_div(k))
    return tuple(D)


def expand_family(gf: RationalGF, N: int) -> SeriesPrefix:
    """P_0..P_N of the family generated by gf, by the derived recursion."""
    return derive_recurrence(gf, N).expand(N)


def expand_inverse(B: Sequence[Polynomial], N: int) -> SeriesPrefix:
    """Q_0..Q_N of 1/B, the family of numerator 1: Q_k = -sum B_j Q_{k-j}."""
    _check_denominator(B)
    return expand_family(RationalGF((Polynomial.one(),), B), N)


def convolve_numerator(A: Sequence[Polynomial], Q: SeriesPrefix) -> SeriesPrefix:
    """Rebuild P from the inverse sequence: P_k = sum_{j<=min(m,k)} A_j Q_{k-j}."""
    return SeriesPrefix(convolve(A, Q.coeffs, Q.order))


def identity_residual(
    gf: RationalGF,
    N: int,
    P: SeriesPrefix | None = None,
    Q: SeriesPrefix | None = None,
) -> SeriesPrefix:
    """Left-minus-right of the double-sum identity; every entry must be 0.

    P and Q are the expansion of gf and the inverse sequence of its
    denominator to order N, the series the identity checks; each one not
    given is computed here.  The double sum
    sum_{j>=1} sum_l B_j A_l Q_{k-j-l} is order k of ((B - 1) * A) * Q, so
    the inner products B_j A_l are formed once.  Returns the residual
    series rather than a boolean so a failure shows exactly which order
    and which polynomial disagree.
    """
    if gf.power != 1:
        raise PowerNotOne(
            "identity requires power 1; reduce the denominator first"
        )
    A = gf.numerator
    B = gf.denominator
    m = gf.m
    if P is None:
        P = expand_family(gf, N)
    if Q is None:
        Q = expand_inverse(B, N)
    C = convolve((_ZERO,) + B[1:], A, gf.n + m)  # (B - 1) * A
    rhs = convolve(C, Q.coeffs, N)
    return SeriesPrefix(
        (A[k] if k <= m else _ZERO) - P[k] - rhs[k] for k in range(N + 1)
    )


def derive_recurrence(gf: RationalGF, N: int | None = None) -> Recurrence:
    """The recursion descriptor for gf, after denominator-power reduction.

    With N, feedback stops at order N: enough to expand P_0..P_N, which
    reads feedback_j only for j <= k <= N.
    """
    feedback = tuple(-d for d in gf.reduced_denominator(N)[1:])
    return Recurrence(feedback, gf.numerator)


def render_recurrence(rec: Recurrence) -> str:
    """Table-style one-liner, e.g. ``P_k = x*P_{k-1} + P_{k-2} (k >= 2); P_0 = 0; P_1 = 1``."""
    from .parser import format_poly

    start = rec.homogeneous_from()
    pieces: list[tuple[str, str]] = []
    for j, coeff in enumerate(rec.feedback, start=1):
        if coeff.is_zero():
            continue
        ref = f"P_{{k-{j}}}"
        terms = list(coeff.items())
        if len(terms) == 1:
            mono, c = terms[0]
            sign = "-" if c < 0 else "+"
            body = format_poly(Polynomial({mono: abs(c)}))
            pieces.append((sign, ref if body == "1" else f"{body}*{ref}"))
        else:
            pieces.append(("+", f"({format_poly(coeff)})*{ref}"))
    if not pieces:
        rhs = "0"
    else:
        first_sign, first_body = pieces[0]
        rhs = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            rhs += f" {sign} {body}"
    line = f"P_k = {rhs} (k >= {start})"
    initial = rec.expand(start - 1)  # start >= 1 since forcing is nonempty
    for k in range(start):
        line += f"; P_{k} = {format_poly(initial[k])}"
    return line
