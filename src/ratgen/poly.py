"""Sparse multivariate polynomials with arbitrary-precision integer coefficients.

At the boundary a monomial is a tuple of ``(variable, exponent)`` pairs,
sorted by variable name, with every exponent positive; the empty tuple is
the constant monomial.  A polynomial maps monomials to nonzero ``int``
coefficients:

    x^2*y + 3   ->   {(("x", 2), ("y", 1)): 1, (): 3}

Inside this module each monomial is packed into one ``int`` (Monagan and
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007).  The low ``_WIDTH`` bits hold the total
degree, and every variable owns the ``_WIDTH``-bit field above it that an
interning table assigns in the order names are first seen.  Because no
total degree exceeds ``MAX_DEGREE``, no field ever carries into the next,
so the product of two monomials is the sum of their ints.  Every operation
that multiplies checks its degree bound once, before its loop, and raises
:class:`DegreeTooLarge` past it; nothing wraps silently.

The table lives for the whole process and only grows, up to
``MAX_VARIABLES`` names; one more raises :class:`TooManyVariables`.  A name
is checked once, when it is first interned: one that does not match
``_NAME_RE`` raises :class:`InvalidVariable` and is not interned.  A
monomial is as wide as the field of its latest-interned variable, so the
cap also bounds its size.  Reading monomials back goes through one struct
format per variable set, so the cost per term stays in C however many names
the table holds.  Every ordered read (formatting, evaluation, ``items``) goes
through :meth:`Polynomial.graded_columns`, one sort of the terms that returns
one exponent column per variable.  Every merge of term maps (sums, products,
:meth:`Polynomial.join`) goes through :func:`add_product_into`.

The module holds the one power loop, :func:`_miller_power`: J.C.P. Miller's
recurrence over the nonzero graded parts of a base whose lowest part is one
term c*m, so each order divides exactly by an integer and by m, and
dividing packed monomials by m subtracts keys.  It forms only the orders a
nonzero order reaches, so its work does not grow with the gaps between the
weights.  ``**`` runs it over a base of two or more terms graded by total
degree, refined name by name until one term is lowest, and raises a
one-term base c*m to (c*m)^e, the kernel's D_0, at once; the engine in :mod:`ratgen.recurrence`
runs it over the t-grading of a denominator for B^h and B^-h.

The zero polynomial is the empty map.  Normalization (no zero coefficients)
is an invariant of every constructed value and packing is canonical, so
structural equality is polynomial equality.  Coefficients are plain Python
integers and never overflow; the public constructors read each one with
``operator.index`` and raise :class:`NonIntegerValue` for anything else.

The series variable ``t`` is reserved: :meth:`Polynomial.variable` rejects it,
keeping coefficient polynomials t-free.  The expression parser builds
t-bearing polynomials through :meth:`Polynomial.symbol` and strips ``t``
with :meth:`Polynomial.split` before anything downstream sees them.
"""

from __future__ import annotations

import re
import struct
import threading
from functools import lru_cache, reduce
from heapq import heappop, heappush
from itertools import compress, repeat
from math import prod
from operator import index, itemgetter, or_
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    BadPower,
    DegreeTooLarge,
    InvalidVariable,
    MissingVariable,
    NonIntegerExponent,
    NonIntegerValue,
    TooManyVariables,
)

# Series variable; only the parser front end may mention it inside a Polynomial.
RESERVED_VARIABLE = "t"

Monomial = tuple[tuple[str, int], ...]

# A term map under construction: filled by add_product_into, then handed
# to Polynomial.from_raw.  Its keys are packed monomials.
RawTerms = dict[int, int]

_WIDTH = 32
_MASK = (1 << _WIDTH) - 1
_BYTES = _WIDTH // 8
MAX_DEGREE = _MASK  # largest total degree of any monomial
# Names the interning table gives out, so no monomial is wider than
# MAX_VARIABLES + 1 fields (about 4 KB).
MAX_VARIABLES = 1024

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")  # the parser scans names with it

# Interning table: variable name -> bit offset of its exponent field.
_SHIFTS: dict[str, int] = {}
_NAMES: list[str] = []  # _NAMES[i] owns the field at _WIDTH * (i + 1)
_INTERN_LOCK = threading.Lock()


def _check_name(name: str) -> None:
    """Raise InvalidVariable unless name is one ASCII letter, then ASCII
    letters, digits, and underscores; the series variable passes."""
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
        raise InvalidVariable(f"invalid variable name: {name!r}")


def validate_variable_name(name: str) -> str:
    """Check a coefficient variable's name, which is not the series variable,
    and return it; interns nothing."""
    _check_name(name)
    if name == RESERVED_VARIABLE:
        raise InvalidVariable(
            f"{RESERVED_VARIABLE!r} is the reserved series variable"
        )
    return name


def _integer(value: object, what: str) -> int:
    """``value`` as an int, read by ``operator.index``: NonIntegerValue otherwise."""
    try:
        return index(value)
    except TypeError:
        raise NonIntegerValue(f"{what} must be an integer, got {value!r}") from None


def require_values(names: Iterable[str], assignment: Mapping[str, int]) -> None:
    """Raise MissingVariable naming every one of ``names`` that ``assignment``
    lacks, and NonIntegerValue if its value for one of them is not an integer."""
    names = set(names)
    missing = names - assignment.keys()
    if missing:
        raise MissingVariable("no value assigned for: " + ", ".join(sorted(missing)))
    for name in sorted(names):
        if not isinstance(assignment[name], int):  # an int needs no reading
            _integer(assignment[name], f"the value of {name!r}")


def check_degree(degree: int) -> None:
    """Raise DegreeTooLarge if a result may reach a total degree past MAX_DEGREE."""
    if degree > MAX_DEGREE:
        raise DegreeTooLarge(
            f"total degree up to {degree} exceeds the bound {MAX_DEGREE}"
        )


def _shift(name: str) -> int:
    shift = _SHIFTS.get(name)
    if shift is None:
        with _INTERN_LOCK:
            shift = _SHIFTS.get(name)
            if shift is None:
                _check_name(name)
                if len(_NAMES) == MAX_VARIABLES:
                    raise TooManyVariables(
                        f"more than {MAX_VARIABLES} distinct variable names"
                    )
                _NAMES.append(name)
                shift = _SHIFTS[name] = _WIDTH * len(_NAMES)
    return shift


def _unit(name: str) -> int:
    """The packed monomial of ``name`` to the first power."""
    return (1 << _shift(name)) + 1


def _pack(mono: Monomial) -> int:
    packed = degree = 0
    for name, e in mono:
        if not isinstance(e, int):
            raise NonIntegerExponent(
                f"exponent of {name!r} must be an integer, got {e!r}"
            )
        if e > 0:
            packed += e << _shift(name)
            degree += e
        elif e:
            raise BadPower(f"negative exponent for {name!r}")
    check_degree(degree)
    return packed + degree


@lru_cache(maxsize=256)
def _layout(
    variables: frozenset[str],
) -> tuple[tuple[str, ...], Callable[[Iterable[int]], Iterator[tuple[int, ...]]]]:
    """The names of ``variables`` (at least one) in alphabetical order, and a
    reader that maps monomials in them to (total degree, exponent of each
    name in turn).

    One struct format reads the wanted fields from each monomial's bytes and
    skips the rest, and the reader chains ``map`` calls over the monomials,
    so the cost per monomial stays in C however many names the interning
    table holds.  Cached, since a run meets few variable sets.
    """
    names = tuple(sorted(variables))
    slots = sorted(_SHIFTS[name] // _WIDTH for name in names)
    fmt, at = ["<I"], 1  # "I" is one 4-byte field, as _WIDTH is 32
    for i in slots:
        fmt.append(f"{(i - at) * _BYTES}xI")
        at = i + 1
    unpack, size = struct.Struct("".join(fmt)).unpack, at * _BYTES
    place = {i: r for r, i in enumerate(slots, 1)}
    get = itemgetter(0, *[place[_SHIFTS[name] // _WIDTH] for name in names])

    def read(monomials: Iterable[int]) -> Iterator[tuple[int, ...]]:
        fields = map(unpack, map(int.to_bytes, monomials, repeat(size), repeat("little")))
        return map(get, fields)

    return names, read


class Polynomial:
    """An immutable element of the integer polynomial ring."""

    __slots__ = ("_terms", "_vars")

    _terms: RawTerms

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        packed: RawTerms = {}
        if terms:
            for mono, coeff in terms.items():
                key = _pack(mono)
                packed[key] = packed.get(key, 0) + _integer(coeff, "a coefficient")
        _set_terms(self, {m: c for m, c in packed.items() if c})
        _set_vars(self, None)

    @classmethod
    def _raw(cls, terms: RawTerms) -> Polynomial:
        # Internal fast path: terms must already be packed and normalized.
        self = cls.__new__(cls)
        _set_terms(self, terms)
        _set_vars(self, None)
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
        value = _integer(value, "a coefficient")
        return cls._raw({0: value}) if value else _ZERO

    @classmethod
    def variable(cls, name: str) -> Polynomial:
        """The polynomial consisting of one coefficient variable."""
        return cls.symbol(validate_variable_name(name))

    @classmethod
    def symbol(cls, name: str) -> Polynomial:
        """One variable, which may be the series variable; for the parser."""
        return cls._raw({_unit(name): 1})

    @classmethod
    def term(cls, coeff: int, exponents: Mapping[str, int]) -> Polynomial:
        """A single term ``coeff * prod(var^e)``; exponents must be >= 0."""
        coeff = _integer(coeff, "a coefficient")
        if not coeff:
            return _ZERO
        for var in exponents:
            validate_variable_name(var)
        return cls._raw({_pack(tuple(exponents.items())): coeff})

    @classmethod
    def from_raw(cls, terms: RawTerms) -> Polynomial:
        """The polynomial of a term map filled by :func:`add_product_into`.

        Takes the map over rather than copying it.
        """
        if 0 in terms.values():
            terms = {m: c for m, c in terms.items() if c}
        return cls._raw(terms)

    @classmethod
    def _from_raw_in(cls, terms: RawTerms, names: frozenset[str]) -> Polynomial:
        """:meth:`from_raw` for a map whose monomials mention no name outside
        ``names``, a set of at most one name.

        The result caches its exact variable set at no cost: ``names`` if a
        term is not constant, and the empty set otherwise.
        """
        self = cls.from_raw(terms)
        terms = self._terms
        variables = names if len(terms) > (0 in terms) else _NO_NAMES
        _set_vars(self, variables)
        return self

    @classmethod
    def join(cls, name: str, seq: Sequence[Polynomial]) -> Polynomial:
        """sum_j seq[j] * name^j; the inverse of :meth:`split`."""
        unit = _unit(name)
        check_degree(max(
            (p.total_degree() + j for j, p in enumerate(seq) if p), default=0
        ))
        out: RawTerms = {}
        for j, p in enumerate(seq):
            add_product_into(out, p, cls._raw({j * unit: 1}))
        return cls.from_raw(out)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {0: 1}

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def total_degree(self) -> int:
        """Maximum term degree; 0 for the zero polynomial."""
        return max(map(_MASK.__and__, self._terms), default=0)

    def variables(self) -> frozenset[str]:
        cached = self._vars
        if cached is None:
            support = reduce(or_, self._terms, 0) >> _WIDTH
            names = []
            i = 0
            while support:
                if support & _MASK:
                    names.append(_NAMES[i])
                support >>= _WIDTH
                i += 1
            cached = frozenset(names)
            _set_vars(self, cached)
        return cached

    def mentions(self, name: str) -> bool:
        cached = self._vars
        if cached is not None:
            return name in cached
        shift = _SHIFTS.get(name)
        return shift is not None and bool(reduce(or_, self._terms, 0) >> shift & _MASK)

    def coefficient(self, mono: Monomial) -> int:
        if any(name not in _SHIFTS for name, e in mono if e):
            return 0
        return self._terms.get(_pack(mono), 0)

    def items(self) -> Iterator[tuple[Monomial, int]]:
        """(monomial, coefficient) pairs in descending graded-lex order,
        variables alphabetical."""
        names, coeffs, columns = self.graded_columns()
        rows = zip(*columns) if columns else repeat((), len(coeffs))
        return ((tuple(compress(zip(names, exps), exps)), c)
                for exps, c in zip(rows, coeffs))

    def graded_columns(
        self,
    ) -> tuple[tuple[str, ...], Sequence[int], tuple[Sequence[int], ...]]:
        """The terms in descending graded-lex order, read a column at a time.

        Returns ``(names, coefficients, columns)``: the variables in
        alphabetical order, the coefficients in term order, and for each
        name the column of its exponents in the same order (0 where a term
        lacks it).  Graded-lex order compares total degrees first, then the
        exponents in alphabetical order of the names.  Every ordered read
        of the terms goes through here.
        """
        terms = self._terms
        variables = self.variables()
        if len(variables) <= 1:
            # one variable: its exponent is the degree, so int order is degree order
            order = sorted(terms, reverse=True)
            coeffs = list(map(terms.__getitem__, order))
            column = [m & _MASK for m in order]
            return tuple(variables), coeffs, (column,) if variables else ()
        names, read = _layout(variables)
        # distinct monomials never tie, so the pairs compare by key alone
        keyed = sorted(zip(read(terms), terms.values()), reverse=True)
        keys, coeffs = zip(*keyed)
        return names, coeffs, tuple(zip(*keys))[1:]

    def split(self, name: str) -> tuple[Polynomial, ...]:
        """C_0..C_d with self = sum_j C_j * name^j; no C_j mentions name.

        d is the degree in name; the zero polynomial gives (0,).
        """
        if not self.mentions(name):
            return (self,)
        shift = _SHIFTS[name]
        unit = (1 << shift) + 1
        buckets: dict[int, RawTerms] = {}
        for m, c in self._terms.items():
            e = (m >> shift) & _MASK
            buckets.setdefault(e, {})[m - e * unit] = c
        return tuple(
            Polynomial._raw(buckets.get(j, {})) for j in range(max(buckets) + 1)
        )

    # -- ring operations ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self is other or self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = dict(self._terms)
        add_product_into(out, _ONE, other)
        if 0 in map(out.__getitem__, other._terms):  # only other's keys can cancel
            out = {m: c for m, c in out.items() if c}
        return Polynomial._raw(out)

    def __neg__(self) -> Polynomial:
        return self.scale(-1)

    def __sub__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + -other

    def __mul__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self._terms or not other._terms:
            return _ZERO
        check_degree(self.total_degree() + other.total_degree())
        out: RawTerms = {}
        add_product_into(out, self, other)
        return Polynomial.from_raw(out)

    def __pow__(self, exponent: int) -> Polynomial:
        """self^exponent by Miller's recurrence over a grading of self.

        The grading is the total degree; where terms tie for the lowest
        degree, the weight K*w - e_v for one name v after another, with K
        the largest degree plus 1, refines it until exactly one term is
        lowest.  The kernel reads the parts by their weights' offsets from
        that term, and only the nonzero ones.  A one-term base c*m needs no
        kernel: its power is (c*m)^e."""
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise BadPower(f"polynomial exponent must be nonnegative, got {exponent}")
        terms = self._terms
        if not terms:
            return _ZERO if exponent else _ONE
        weights = list(map(_MASK.__and__, terms))  # in the order of terms
        low, K, shift = min(weights), max(weights) + 1, _WIDTH
        check_degree((K - 1) * exponent)
        if len(terms) == 1:
            [(m, c)] = terms.items()
            return Polynomial._raw({m * exponent: c**exponent})
        tied = list(compress(terms, map(low.__eq__, weights)))
        while len(tied) > 1:  # the name at shift splits the tie if its exponents differ
            column = [m >> shift & _MASK for m in tied]
            top = max(column)
            if top != min(column):
                weights = [K * w - (m >> shift & _MASK) for m, w in zip(terms, weights)]
                tied = [m for m, e in zip(tied, column) if e == top]
            shift += _WIDTH
        low = min(weights)
        parts: dict[int, RawTerms] = {}
        for (m, c), w in zip(terms.items(), weights):
            parts.setdefault(w - low, {})[m] = c
        *orders, out = [d._terms for _, d in _miller_power(
            {j: Polynomial._raw(p) for j, p in parts.items()}, exponent, exponent * max(parts))]
        # the orders have distinct weights, so their terms are disjoint and
        # collecting them adds no coefficient; the last, often the largest,
        # collects the others
        for d in orders:
            out.update(d)
        return Polynomial._raw(out)

    def scale(self, factor: int) -> Polynomial:
        """factor * self for an integer factor."""
        if not factor or not self._terms:
            return _ZERO
        return Polynomial._raw({m: factor * c for m, c in self._terms.items()})

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        """Exact integer value under a total assignment of the variables.

        The terms are read through :meth:`graded_columns` and summed lazily,
        one term c * prod(v^e) alive at a time."""
        require_values(self.variables(), assignment)
        names, coeffs, columns = self.graded_columns()
        powers = [map(pow, repeat(assignment[name]), column)
                  for name, column in zip(names, columns)]
        return sum(map(prod, zip(coeffs, *powers)))

    def __repr__(self) -> str:
        from .parser import format_poly

        return f"Polynomial({format_poly(self)!r})"


# the slots' own setters, which bypass the __setattr__ that refuses writes
_set_terms, _set_vars = Polynomial._terms.__set__, Polynomial._vars.__set__
_ZERO = Polynomial._raw({})
_ONE = Polynomial._raw({0: 1})
_NO_NAMES: frozenset[str] = frozenset()

# The fewest terms of the long side for which add_product_into's paths for
# a one-term side pay for their branches.
_LONG = 8


def add_product_into(acc: RawTerms, p: Polynomial, q: Polynomial) -> None:
    """Accumulate ``p * q`` into a raw term map.

    Shared by series convolution and the recurrence loop so long sums of
    products build one dictionary instead of a chain of intermediates.
    The caller checks the degree bound of everything it accumulates.

    One term times one term, the shape of many of the oracles' products,
    adds its one product with no loop.  A term c*m times a polynomial of at
    least ``_LONG`` terms, the shape of every recurrence step, skips what it
    can: into an empty map it is a copy when c*m is 1 and one comprehension
    otherwise, and into a filled map a c of +-1 adds or subtracts with no
    multiply.
    """
    pt, qt = p._terms, q._terms
    lp, lq = len(pt), len(qt)
    if lp > lq:  # iterate the smaller operand on the outside
        pt, qt, lp, lq = qt, pt, lq, lp
    if not lp:
        return
    if lq == 1:  # one term by one term
        [(m1, c1)], [(m2, c2)] = pt.items(), qt.items()
        m = m1 + m2
        acc[m] = acc.get(m, 0) + c1 * c2
        return
    get = acc.get
    if lp == 1 and lq >= _LONG:
        [(m1, c1)] = pt.items()
        if not acc:
            if m1 == 0 and c1 == 1:
                acc.update(qt)
            else:
                acc.update({m1 + m2: c1 * c2 for m2, c2 in qt.items()})
            return
        if c1 == 1:
            for m2, c2 in qt.items():
                m = m1 + m2
                acc[m] = get(m, 0) + c2
            return
        if c1 == -1:
            for m2, c2 in qt.items():
                m = m1 + m2
                acc[m] = get(m, 0) - c2
            return
    for m1, c1 in pt.items():
        for m2, c2 in qt.items():
            m = m1 + m2
            acc[m] = get(m, 0) + c1 * c2


def _miller_power(
    parts: Mapping[int, Polynomial], e: int, top: int
) -> Iterator[tuple[int, Polynomial]]:
    """Yield (k, D_k) for each nonzero D_k, k <= top, of
    (sum_j parts[j] * s^j)^e, in increasing k.

    J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2, section 4.7):
    with p_0 = parts[0] one term c*m,

        c*m*k*D_k = sum_{j > 0} ((e+1)*j - k) * p_j * D_{k-j}

    holds for every exponent.  ``parts`` maps a weight j to its part and
    holds no zero part.  Each nonzero D_i, once known, is added into the
    sum of every order i + j, one product per part, and the lowest order
    waiting on a heap comes next: its sum is complete and divides exactly
    by k*c, and by m once for all, as each part's packed keys less m's.
    An order no nonzero order reaches is never formed, so the work is
    bounded by the parts times the nonzero orders, however far apart the
    weights lie.  With one part p_j beside p_0, D_{k-j} * ((e+1)*j - k)
    / (k*c) is binom(e, i) * c^(e-i) * m^(e-i+1) * p_j^(i-1) for i = k/j,
    already integral, so that smaller side is divided instead of the sum.
    D_0 = (c*m)^e, so a negative e needs p_0 = 1.  The caller checks the
    degree bound.
    """
    [(m, c)] = parts[0]._terms.items()  # ValueError unless p_0 is one term
    if e < 0 and (m, c) != (0, 1):
        raise ValueError("a negative power needs p_0 = 1")
    steps = [(j, Polynomial._raw({x - m: v for x, v in p._terms.items()}))
             for j, p in parts.items() if j]
    single = len(steps) == 1
    sums: dict[int, RawTerms] = {}  # the orders some nonzero order reaches
    heap: list[int] = []  # the keys of sums
    k, d = 0, parts[0] if e < 0 else Polynomial._raw({m * e: c**e})
    while True:
        if d:
            yield k, d
            for j, q in steps:
                if (i := k + j) <= top:
                    if i not in sums:
                        heappush(heap, i)
                    f = e * j - k  # (e+1)*j - i
                    if single:  # d*f/(i*c) is integral: divide this side, not the sum
                        add_product_into(sums.setdefault(i, {}), q, Polynomial._raw(
                            {x: v * f // (i * c) for x, v in d._terms.items()}))
                    else:
                        add_product_into(sums.setdefault(i, {}), q.scale(f), d)
        if not heap:
            return
        k = heappop(heap)
        acc, kc = sums.pop(k), k * c
        d = (Polynomial.from_raw(acc) if single
             else Polynomial._raw({x: v // kc for x, v in acc.items() if v}))
