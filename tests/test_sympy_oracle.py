"""sympy's series expansion as a third oracle for the recurrence engine.

sympy shares no code with ratgen, so agreement here is independent of both
the recurrence kernel and the two inversion oracles.  The expressions are
built from ``Polynomial.items()``, not from the formatter or the parser.
sympy is a test-only dependency; without it the test is skipped.
"""

import random

import pytest

from helpers import random_gf
from ratgen.recurrence import RationalGF, expand_family

sympy = pytest.importorskip("sympy")

t = sympy.Symbol("t")


def as_sympy(coeffs):
    """sum_j coeffs[j] * t^j as a sympy expression."""
    total = sympy.Integer(0)
    for j, p in enumerate(coeffs):
        for mono, c in p.items():
            term = sympy.Integer(c) * t**j
            for var, e in mono:
                term *= sympy.Symbol(var) ** e
            total += term
    return total


def check_against_sympy(gf, N):
    f = as_sympy(gf.numerator) / as_sympy(gf.denominator) ** gf.power
    want = sympy.expand(sympy.series(f, t, 0, N + 1).removeO())
    got = expand_family(gf, N)
    for k in range(N + 1):
        diff = sympy.expand(want.coeff(t, k) - as_sympy([got[k]]))
        assert diff == 0, (gf, k)


def test_expansion_matches_sympy_series():
    rng = random.Random(20240811)
    for _ in range(8):
        check_against_sympy(random_gf(rng), 8)


def test_high_power_expansion_matches_sympy_series():
    # h > 1 expands A * B^-h by Miller's recurrence from B, not the recurrence
    rng = random.Random(20261018)
    for h in (2, 3, 4) * 3:
        gf = random_gf(rng)
        check_against_sympy(RationalGF(gf.numerator, gf.denominator, h), 8)
