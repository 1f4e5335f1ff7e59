"""Recurrence derivation and expansion for rational generating functions.

Given f = A(x,t) / B(x,t)^h with B's constant term 1, the coefficient
polynomials of f obey

    P_0 = A_0,    P_k = [k <= m] A_k - sum_{j=1..min(n,k)} D_j P_{k-j}

where D = B^h is again a polynomial in t with constant term 1 (D = B for
h = 1).  This module derives that recursion as data, with D built by
Miller's power recurrence and only up to the order a reader needs, and
renders it with initial values taken from the expansion.  The expansion runs
the recursion for h = 1.  For h > 1 it never builds D: it streams G = B^-h
by Miller's recurrence from B itself, which costs n small products per order
instead of up to h*n large ones, and convolves A with it.  Both run
:mod:`ratgen.poly`'s Miller kernel, the one power loop, over the t-grading
of B; this module calls it ``_iter_power``.  Substituting
integers for the variables is a ring homomorphism that keeps B_0 = 1, so the
same recursions, run on the plain integers a = A(point) and b = B(point),
yield the values P_0(point)..P_N(point) without building any P_k.  The
module also computes the companion identities used for cross-checking: the
inverse sequence Q of 1/B, the numerator convolution that rebuilds P from
Q, and the residual that must vanish identically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
from operator import mul
from typing import Iterator, Mapping, Sequence

from .errors import EmptySeries, PowerNotOne
from .poly import Polynomial, RawTerms, _miller_power, add_product_into, require_values
from .series import (
    SeriesPrefix,
    check_denominator,
    check_growth,
    check_order,
    check_power,
    check_t_free,
    convolve,
    iter_convolve,
    trimmed,
)

_ZERO = Polynomial.zero()


def _iter_power(B: Sequence[Polynomial], h: int, top: int) -> Iterator[Polynomial]:
    """Yield D_0..D_top of B^h (B trimmed, B_0 = 1, h != 0): poly's Miller
    kernel over the t-grading of B, with the zero orders it skips put back.
    The engine calls it by this name, and the tests patch it."""
    k = 0
    for j, d in _miller_power({j: b for j, b in enumerate(B) if b}, h, top):
        yield from repeat(_ZERO, j - k)
        yield d
        k = j + 1
    yield from repeat(_ZERO, top + 1 - k)


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
        num = tuple(self.numerator)
        if not num:
            raise EmptySeries("numerator must have at least one coefficient")
        check_t_free(num, "numerator")
        object.__setattr__(self, "numerator", trimmed(num))
        object.__setattr__(self, "denominator", check_denominator(self.denominator))
        check_power(self.power)

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
        return self.denominator if N is None else self.denominator[: check_order(N) + 1]


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

        The engine's recurrence loop, which :func:`iter_family` runs for
        h = 1.  A negative N or a degree past the bound raises at the call,
        before the first term."""
        N = check_order(N)
        feedback, forcing = self.feedback, self.forcing
        check_growth(forcing, feedback, N)
        one = Polynomial.one()
        # with at most one name in play, each P_k is handed its variable set,
        # so formatting it need not read every monomial to learn it
        names = frozenset().union(*(p.variables() for p in chain(feedback, forcing)))
        build = (Polynomial.from_raw if len(names) > 1
                 else partial(Polynomial._from_raw_in, names=names))
        # (j, feedback_j) for the nonzero feedback_j, constants first and 1
        # first among them: the first product lands in an empty map, where
        # add_product_into copies it or runs one comprehension
        steps = sorted(
            ((j, coeff) for j, coeff in enumerate(feedback, 1) if coeff),
            key=lambda step: (step[1].total_degree(), not step[1].is_one()),
        )
        # P_{k-order}..P_{k-1}, with P_{-order}..P_{-1} = 0
        window: deque[Polynomial] = deque(repeat(_ZERO, self.order), maxlen=self.order)

        def terms() -> Iterator[Polynomial]:
            window.append(forcing[0])
            yield forcing[0]
            for k in range(1, N + 1):
                acc: RawTerms = {}
                for j, coeff in steps:
                    add_product_into(acc, coeff, window[-j])
                if k < len(forcing):
                    add_product_into(acc, forcing[k], one)
                p = build(acc)
                window.append(p)
                yield p

        return terms()


def raise_denominator(
    B: Sequence[Polynomial], h: int, N: int | None = None
) -> tuple[Polynomial, ...]:
    """D_0..D_min(N, h*n) of B^h, with D_0 = 1, for an integer h >= 1;
    N = None gives all h*n orders."""
    B = check_denominator(B)
    check_power(h)
    top = h * (len(B) - 1)
    if N is not None:
        top = min(check_order(N), top)
    check_growth((), B[1:], top)
    return tuple(_iter_power(B, h, top))


def iter_family(gf: RationalGF, N: int) -> Iterator[Polynomial]:
    """Yield P_0..P_N of the family generated by gf, one at a time.

    h = 1 runs the derived recursion (:meth:`Recurrence.iter_terms`).  For
    h > 1, P = A * B^-h: B^-h comes from B by Miller's recurrence and is
    convolved with A as it arrives, so max(n, m+1) of its orders are held
    and B^h is never built.  A negative N or a degree past the bound raises
    at the call, before the first term.
    """
    N = check_order(N)
    if gf.power == 1:
        return derive_recurrence(gf, N).iter_terms(N)
    B = gf.denominator
    check_growth(gf.numerator, B[1:], N)
    return iter_convolve(gf.numerator, _iter_power(B, -gf.power, N))


def iter_values(gf: RationalGF, point: Mapping[str, int], N: int) -> Iterator[int]:
    """Yield P_0(point)..P_N(point) as ints, with no Polynomial arithmetic.

    The values are the coefficients of a / b^h with a = A(point) and
    b = B(point), a series over the integers with b_0 = 1.  For h = 1 they
    obey P_k = a_k - sum_j b_j*P_{k-j}, run on the last n values.  For
    h > 1, G = b^-h comes from Miller's recurrence,

        k*G_k = sum_{j=1..min(n,k)} ((1-h)*j - k) * b_j * G_{k-j},

    whose division by k is exact (ArithmeticError otherwise), and each G_k is
    convolved with a as it arrives; the last max(n, m+1) of them are held.
    Each A_j and B_j is evaluated once, when order j is first reached, so a
    consumer that stops at order k never evaluates the coefficients past it.
    The stream shares no kernel with the engine, so it also checks it.  A
    negative N, or a variable of A or B that ``point`` lacks or gives a
    non-integer value, raises at the call, before the first value.
    """
    N = check_order(N)
    A, B, h = gf.numerator, gf.denominator, gf.power
    require_values(chain.from_iterable(p.variables() for p in A + B), point)
    if h == 1:
        return _recurrence_values(A, B, point, N)

    def values() -> Iterator[int]:
        a = [A[0].evaluate(point)]  # a_0..a_min(k, m)
        b: list[int] = []  # b_1..b_min(k, n)
        hb: list[int] = []  # (1-h)*j*b_j: each weight less its multiple of k
        window = deque([1], maxlen=max(len(B) - 1, len(A)))  # G_k, G_{k-1}, ..
        yield a[0]
        for k in range(1, N + 1):
            if k < len(A):
                a.append(A[k].evaluate(point))
            if k < len(B):
                b.append(B[k].evaluate(point))
                hb.append((1 - h) * k * b[-1])
            # k*G_k = sum hb_j*G_{k-j} - k * sum b_j*G_{k-j}
            g, r = divmod(sum(map(mul, hb, window)), k)
            if r:
                raise ArithmeticError(f"order {k} of b^-{h} is not an integer")
            window.appendleft(g - sum(map(mul, b, window)))
            yield sum(map(mul, a, window))

    return values()


def _recurrence_values(
    A: Sequence[Polynomial], B: Sequence[Polynomial], point: Mapping[str, int], N: int
) -> Iterator[int]:
    """:func:`iter_values` for h = 1: P_k = a_k - sum_{j=1..min(n,k)} b_j*P_{k-j}.

    The values themselves are the window, so their size follows P_k and not
    the series 1/b, which grows with k when A and B share a factor."""
    a = chain((p.evaluate(point) for p in A), repeat(0))  # a_0, a_1, ..
    b: list[int] = []  # b_1..b_min(k, n)
    window: deque[int] = deque(maxlen=len(B) - 1)  # P_{k-1}, P_{k-2}, ..
    for k, a_k in zip(range(N + 1), a):  # range first: A_k is read at order k
        if 0 < k < len(B):
            b.append(B[k].evaluate(point))
        p = a_k - sum(map(mul, b, window))
        window.appendleft(p)
        yield p


def expand_family(gf: RationalGF, N: int) -> SeriesPrefix:
    """P_0..P_N of the family generated by gf."""
    return SeriesPrefix._unchecked(iter_family(gf, N))


def expand_inverse(B: Sequence[Polynomial], N: int) -> SeriesPrefix:
    """Q_0..Q_N of 1/B, the family of numerator 1: Q_k = -sum B_j Q_{k-j}."""
    return expand_family(RationalGF((Polynomial.one(),), B), N)


def convolve_numerator(A: Sequence[Polynomial], Q: SeriesPrefix) -> SeriesPrefix:
    """Rebuild P from the inverse sequence: P_k = sum_{j<=min(m,k)} A_j Q_{k-j}."""
    check_t_free(A, "numerator")
    return SeriesPrefix._unchecked(convolve(A, Q.coeffs, Q.order))


def tail_product(B: Sequence[Polynomial], Q: SeriesPrefix, N: int) -> list[Polynomial]:
    """E_0..E_N of E = (B - 1) * Q: each product is a coefficient of the
    input and one series term, never a product of two coefficients."""
    return convolve((_ZERO, *B[1:]), Q.coeffs, N)


def inverts(B: Sequence[Polynomial], Q: SeriesPrefix, N: int) -> bool:
    """Whether Q is 1/B to order N.

    E = (B - 1) * Q is formed once: Q_0 = 1 and E_k = -Q_k for 1 <= k <= N
    say that B * Q = 1 to order N, which with B_0 = 1 has one solution, so
    Q is 1/B there.  A Q of fewer than N + 1 terms inverts nothing."""
    if len(Q) <= N or not Q[0].is_one():
        return False
    E = tail_product(B, Q, N)
    return all(e == -q for e, q in zip(E[1:], Q.coeffs[1:]))


def identity_residual(
    gf: RationalGF,
    N: int,
    P: SeriesPrefix | None = None,
    Q: SeriesPrefix | None = None,
    AQ: SeriesPrefix | None = None,
) -> SeriesPrefix:
    """Left-minus-right of the double-sum identity; every entry must be 0.

    P and Q are the expansion of gf and the inverse sequence of its
    denominator to order N, the series the identity checks; each one not
    given is computed here.  The double sum
    sum_{j>=1} sum_l B_j A_l Q_{k-j-l} is order k of A * E with
    E = (B - 1) * Q (:func:`tail_product`), so order k of the identity's
    left side is R_k = [k <= m] A_k - (A * E)_k, and its entry is 0 where
    R_k equals P_k and R_k - P_k otherwise.  AQ, when given, is A * Q for a
    Q that :func:`inverts` B: then E = 1 - Q and R = A - A * E = A * Q, so
    AQ is read as R and no product is formed.  Returns the residual series
    rather than a boolean so a failure shows exactly which order and which
    polynomial disagree.
    """
    if gf.power != 1:
        raise PowerNotOne(
            "identity requires power 1; reduce the denominator first"
        )
    N = check_order(N)
    A = gf.numerator
    B = gf.denominator
    if P is None:
        P = expand_family(gf, N)
    R = AQ
    if R is None:
        if Q is None:
            Q = expand_inverse(B, N)
        AE = convolve(A, tail_product(B, Q, N), N)
        R = [a - ae for a, ae in zip(SeriesPrefix.from_polynomials(A, N), AE)]
    return SeriesPrefix._unchecked(
        _ZERO if R[k] == P[k] else R[k] - P[k] for k in range(N + 1)
    )


def derive_recurrence(gf: RationalGF, N: int | None = None) -> Recurrence:
    """The recursion descriptor for gf, after denominator-power reduction.

    With N, feedback stops at order N: enough to expand P_0..P_N, which
    reads feedback_j only for j <= k <= N.
    """
    feedback = tuple(-d for d in gf.reduced_denominator(N)[1:])
    return Recurrence(feedback, gf.numerator)


def render_recurrence(gf: RationalGF) -> str:
    """Table-style one-liner, e.g. ``P_k = x*P_{k-1} + P_{k-2} (k >= 2); P_0 = 0; P_1 = 1``.

    The feedback is read from B^h, folded once; the initial values P_0..P_{s-1},
    s = :meth:`Recurrence.homogeneous_from`, come from :func:`iter_family`.
    """
    from .parser import format_poly

    rec = derive_recurrence(gf)
    start = rec.homogeneous_from()  # >= 1 since the numerator is nonempty
    pieces: list[tuple[str, str]] = []
    for j, coeff in enumerate(rec.feedback, start=1):
        if coeff.is_zero():
            continue
        ref = f"P_{{k-{j}}}"
        text = format_poly(coeff)
        if len(coeff) == 1:  # a single term's minus goes into the separator
            sign, body = ("-", text[1:]) if text[0] == "-" else ("+", text)
            pieces.append((sign, ref if body == "1" else f"{body}*{ref}"))
        else:
            pieces.append(("+", f"({text})*{ref}"))
    if not pieces:
        rhs = "0"
    else:
        first_sign, first_body = pieces[0]
        rhs = ("-" if first_sign == "-" else "") + first_body
        rhs += "".join(f" {sign} {body}" for sign, body in pieces[1:])
    initial = "".join(
        f"; P_{k} = {format_poly(p)}" for k, p in enumerate(iter_family(gf, start - 1))
    )
    return f"P_k = {rhs} (k >= {start}){initial}"
