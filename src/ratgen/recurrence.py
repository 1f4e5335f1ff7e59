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
Q, and the residual that must vanish identically.  :func:`verify` checks
the expansion against them and against the power oracles of
:mod:`ratgen.series`, and returns one :class:`Verdict` per oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
from operator import mul
from typing import Iterator, Mapping, NamedTuple, Sequence

from .errors import BadParameter, EmptySeries, OrderMismatch, PowerNotOne
from .poly import Polynomial, RawTerms, _miller_power, add_product_into, require_values
from .series import (
    SeriesPrefix,
    check_denominator,
    check_growth,
    check_order,
    check_power,
    check_t_free,
    convolve,
    geometric_inverse,
    iter_convolve,
    multinomial_inverse,
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

    def homogeneous_from(self) -> int:
        """Smallest k from which P_k = sum_j feedback_j P_{k-j} holds."""
        return max(len(self.forcing), self.order)

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

    B * Q is formed once: Q_0 = 1 and (B * Q)_k = 0 for 1 <= k <= N say
    that B * Q = 1 to order N, which with B_0 = 1 has one solution, so Q is
    1/B there.  A Q of fewer than N + 1 terms inverts nothing."""
    if len(Q) <= N or not Q[0].is_one():
        return False
    return not any(convolve(B, Q.coeffs, N)[1:])


def identity_residual(
    gf: RationalGF,
    N: int,
    P: SeriesPrefix | None = None,
    Q: SeriesPrefix | None = None,
) -> SeriesPrefix:
    """Left-minus-right of the double-sum identity; every entry must be 0.

    P and Q are the expansion of gf and the inverse sequence of its
    denominator to order N, the series the identity checks; each one not
    given is computed here, and one given with fewer than N + 1 orders
    raises OrderMismatch before any product.  The double sum
    sum_{j>=1} sum_l B_j A_l Q_{k-j-l} is order k of A * E with
    E = (B - 1) * Q (:func:`tail_product`), so order k of the identity's
    left side is R_k = [k <= m] A_k - (A * E)_k, and its entry is 0 where
    R_k equals P_k and R_k - P_k otherwise.  Returns the residual series
    rather than a boolean so a failure shows exactly which order and which
    polynomial disagree.
    """
    if gf.power != 1:
        raise PowerNotOne(
            "identity requires power 1; reduce the denominator first"
        )
    N = check_order(N)
    for name, S in (("P", P), ("Q", Q)):
        if S is not None and S.order < N:
            raise OrderMismatch(f"{name} has order {S.order}, below N = {N}")
    A, B = gf.numerator, gf.denominator
    P = expand_family(gf, N) if P is None else P
    Q = expand_inverse(B, N) if Q is None else Q
    AE = convolve(A, tail_product(B, Q, N), N)
    return _less([a - ae for a, ae in zip(SeriesPrefix.from_polynomials(A, N), AE)], P)


def _less(R: Sequence[Polynomial], P: SeriesPrefix) -> SeriesPrefix:
    """R - P to R's order, with 0 where the two agree: the residual of R."""
    pairs = zip(R, P.coeffs[: len(R)], strict=True)
    return SeriesPrefix._unchecked(_ZERO if r == p else r - p for r, p in pairs)


ORACLES = ("geometric", "multinomial", "convolution", "residual")


class Verdict(NamedTuple):
    """One oracle's check of the engine, as :func:`verify` returns it.

    ``order`` is the order checked to.  On a failure ``k`` is the first
    order that differs, and ``engine`` and ``oracle`` are the two
    polynomials there; on a pass all three are None.  The residual
    oracle's engine polynomial is its nonzero entry, and its oracle one 0.
    """

    name: str
    order: int
    k: int | None = None
    engine: Polynomial | None = None
    oracle: Polynomial | None = None


def _verdict(name: str, engine: SeriesPrefix, oracle: SeriesPrefix) -> Verdict:
    """The verdict on two series of one order: the first k where they differ."""
    if engine.coeffs != oracle.coeffs:  # one pass in C; shared terms compare by identity
        for k, (p, q) in enumerate(zip(engine, oracle)):
            if p != q:
                return Verdict(name, oracle.order, k, p, q)
    return Verdict(name, oracle.order)


def verify(gf: RationalGF, N: int, oracles: Sequence[str] = ORACLES,
           multinomial_order: int | None = None) -> list[Verdict]:
    """Check P_0..P_N of gf against each named oracle; one verdict per
    oracle, in :data:`ORACLES` order.

    The engine expands A/B^h from B itself; the power oracles build B^-h
    from B and h (:func:`~ratgen.series.geometric_inverse` and
    :func:`~ratgen.series.multinomial_inverse`, the latter to
    ``multinomial_order``, N when None, at most N), and the convolution and
    residual ones read D = B^h, folded once and only to order N.  Each of
    the first three compares the engine with A times its own series; the
    multinomial one then compares its B^-h with the geometric one, and
    fails if either differs.  The engine is expanded once, and A is
    multiplied once into the first series Y: a later series that is a
    prefix of Y, as every oracle's B^-h is on a pass, reads Y's prefix and
    the stored A * Y cut to its order, and an engine found equal to A * Y
    to order N becomes that object, so each later comparison is by
    identity.  Y is read as 1/D only if :func:`inverts` says so; then the
    residual is A * Y - P, and otherwise 1/D is expanded and the residual
    is :func:`identity_residual`'s.  A bare str for ``oracles`` or an
    unknown oracle name raises BadParameter, and a negative order
    NegativeOrder, before any expansion.
    """
    if isinstance(oracles, str):
        raise BadParameter(f"oracles is a sequence of names, not the str {oracles!r}")
    selected = set(oracles)
    if unknown := selected.difference(ORACLES):
        raise BadParameter(f"unknown oracle {min(unknown)!r}; expected one of {ORACLES}")
    N = check_order(N)
    n_m = N if multinomial_order is None else min(check_order(multinomial_order), N)
    A, B, h = gf.numerator, gf.denominator, gf.power
    engine = expand_family(gf, N)
    first, verdicts = None, []  # first: (Y, A * Y) for the first series Y multiplied by A

    def check_engine(name: str, X: SeriesPrefix) -> SeriesPrefix:
        """Append the verdict on the engine against A * X to X's order, and
        return X, or Y's prefix in its place where X is one."""
        nonlocal engine, first
        if first and X.coeffs == first[0].coeffs[: len(X)]:
            X, product = first[0].truncate(X.order), first[1].truncate(X.order)
        else:
            product = convolve_numerator(A, X)
            first = first or (X, product)
        verdicts.append(_verdict(name, engine.truncate(X.order), product))
        if verdicts[-1].k is None and X.order == N:
            engine = product
        return X

    if "geometric" in selected:
        geometric = check_engine("geometric", geometric_inverse(B, N, h))
    if "multinomial" in selected:
        lhs = check_engine("multinomial", multinomial_inverse(B, n_m, h))
        if verdicts[-1].k is None:
            rhs = (geometric.truncate(n_m) if "geometric" in selected
                   else geometric_inverse(B, n_m, h))
            verdicts[-1] = _verdict("multinomial", lhs, rhs)
    if selected & {"convolution", "residual"}:
        reduced = RationalGF(A, gf.reduced_denominator(N))
        inverse, product = (first if first and inverts(reduced.denominator, first[0], N)
                            else (expand_inverse(reduced.denominator, N), None))
        if "convolution" in selected:
            check_engine("convolution", inverse)
        if "residual" in selected:
            residual = (identity_residual(reduced, N, engine, inverse) if product is None
                        else _less(product, engine))
            zero = SeriesPrefix.from_polynomials((), N)
            verdicts.append(_verdict("residual", residual, zero))
    return verdicts


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
    # the first piece's separator becomes a leading minus sign or nothing
    rhs = "".join(f" {sign} {body}" for sign, body in pieces)
    rhs = ("-" if rhs[1] == "-" else "") + rhs[3:] if pieces else "0"
    initial = "".join(
        f"; P_{k} = {format_poly(p)}" for k, p in enumerate(iter_family(gf, start - 1))
    )
    return f"P_k = {rhs} (k >= {start}){initial}"
