"""Sparse multivariate polynomials with arbitrary-precision integer coefficients.

A monomial is a tuple of ``(variable, exponent)`` pairs, sorted by variable
name, with every exponent positive; the empty tuple is the constant monomial.
A polynomial maps monomials to nonzero ``int`` coefficients:

    x^2*y + 3   ->   {(("x", 2), ("y", 1)): 1, (): 3}

The zero polynomial is the empty map.  Normalization (no zero coefficients,
sorted exponent pairs) is an invariant of every constructed value, so
structural equality is polynomial equality.  Coefficients are plain Python
integers and never overflow.

The series variable ``t`` is reserved: :meth:`Polynomial.variable` rejects it,
keeping coefficient polynomials t-free.  The expression parser builds
t-bearing polynomials through the unchecked internal path and strips ``t``
before anything downstream sees them.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterator, Mapping

from .errors import InvalidVariable, MissingVariable

# Series variable; only the parser front end may mention it inside a Polynomial.
RESERVED_VARIABLE = "t"

Monomial = tuple[tuple[str, int], ...]

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


def validate_variable_name(name: str) -> str:
    """Check a variable name and return it.

    Names are nonempty, start with a letter, and contain only letters,
    digits, and underscores.  The series variable is rejected.
    """
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise InvalidVariable(f"invalid variable name: {name!r}")
    if name == RESERVED_VARIABLE:
        raise InvalidVariable(
            f"{RESERVED_VARIABLE!r} is the reserved series variable"
        )
    return name


@lru_cache(maxsize=65536)
def _mul_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for var, e in m2:
        exps[var] = exps.get(var, 0) + e
    return tuple(sorted(exps.items()))


def _monomial_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


class Polynomial:
    """An immutable element of the integer polynomial ring."""

    __slots__ = ("_terms", "_vars", "_hash")

    _terms: dict[Monomial, int]

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        normalized: dict[Monomial, int] = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff:
                    normalized[mono] = coeff
        object.__setattr__(self, "_terms", normalized)
        object.__setattr__(self, "_vars", None)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _raw(cls, terms: dict[Monomial, int]) -> Polynomial:
        # Internal fast path: terms must already be normalized.
        self = cls.__new__(cls)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_vars", None)
        object.__setattr__(self, "_hash", None)
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polynomial is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> Polynomial:
        return _ZERO

    @classmethod
    def one(cls) -> Polynomial:
        return _ONE

    @classmethod
    def constant(cls, value: int) -> Polynomial:
        if value == 0:
            return _ZERO
        return cls._raw({(): int(value)})

    @classmethod
    def variable(cls, name: str) -> Polynomial:
        """The polynomial consisting of one coefficient variable."""
        validate_variable_name(name)
        return cls._raw({((name, 1),): 1})

    @classmethod
    def term(cls, coeff: int, exponents: Mapping[str, int]) -> Polynomial:
        """A single term ``coeff * prod(var^e)``; exponents must be >= 0."""
        if coeff == 0:
            return _ZERO
        pairs = []
        for var, e in exponents.items():
            validate_variable_name(var)
            if e < 0:
                raise ValueError(f"negative exponent for {var!r}")
            if e > 0:
                pairs.append((var, e))
        return cls._raw({tuple(sorted(pairs)): int(coeff)})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {(): 1}

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def total_degree(self) -> int:
        """Maximum term degree; 0 for the zero polynomial."""
        if not self._terms:
            return 0
        return max(_monomial_degree(m) for m in self._terms)

    def variables(self) -> frozenset[str]:
        cached = self._vars
        if cached is None:
            cached = frozenset(v for m in self._terms for v, _ in m)
            object.__setattr__(self, "_vars", cached)
        return cached

    def mentions(self, name: str) -> bool:
        return name in self.variables()

    def coefficient(self, mono: Monomial) -> int:
        return self._terms.get(mono, 0)

    def items(self) -> Iterator[tuple[Monomial, int]]:
        return iter(self._terms.items())

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in descending graded-lex order, variables alphabetical."""
        vars_order = sorted(self.variables())
        index = {v: i for i, v in enumerate(vars_order)}

        def key(item: tuple[Monomial, int]):
            mono = item[0]
            vec = [0] * len(vars_order)
            for var, e in mono:
                vec[index[var]] = e
            return (_monomial_degree(mono), vec)

        return sorted(self._terms.items(), key=key, reverse=True)

    # -- ring operations ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({(): other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(frozenset(self._terms.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def __add__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            new = out.get(mono, 0) + coeff
            if new:
                out[mono] = new
            else:
                out.pop(mono, None)
        return Polynomial._raw(out)

    def __neg__(self) -> Polynomial:
        if not self._terms:
            return self
        return Polynomial._raw({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + -other

    def __mul__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        out: dict[Monomial, int] = {}
        add_product_into(out, self, other)
        return Polynomial._raw(out)

    def __pow__(self, exponent: int) -> Polynomial:
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("polynomial exponent must be nonnegative")
        result = _ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        """Exact integer value under a total assignment of the variables."""
        missing = self.variables() - assignment.keys()
        if missing:
            raise MissingVariable(
                "no value assigned for: " + ", ".join(sorted(missing))
            )
        total = 0
        for mono, coeff in self._terms.items():
            term = coeff
            for var, e in mono:
                term *= assignment[var] ** e
            total += term
        return total

    def __repr__(self) -> str:
        from .parser import format_poly

        return f"Polynomial({format_poly(self)!r})"


_ZERO = Polynomial._raw({})
_ONE = Polynomial._raw({(): 1})


def add_product_into(
    acc: dict[Monomial, int], p: Polynomial, q: Polynomial
) -> None:
    """Accumulate ``p * q`` into a raw term map.

    Shared by series convolution and the recurrence loop so long sums of
    products build one dictionary instead of a chain of intermediates.
    """
    pt, qt = p._terms, q._terms
    if not pt or not qt:
        return
    if len(pt) > len(qt):  # iterate the smaller operand on the outside
        pt, qt = qt, pt
    for m1, c1 in pt.items():
        for m2, c2 in qt.items():
            mono = _mul_monomials(m1, m2)
            new = acc.get(mono, 0) + c1 * c2
            if new:
                acc[mono] = new
            else:
                acc.pop(mono, None)
