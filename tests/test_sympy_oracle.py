"""sympy's series expansion as a third oracle for the recurrence engine.

sympy shares no code with ratgen, so agreement here is independent of both
the recurrence kernel and the two power oracles, which it checks too.  The
expressions are built from ``Polynomial.items()``, not from the formatter or
the parser.
sympy is a test-only dependency; without it the test is skipped.
"""

import random

import pytest

from helpers import COEFF_VARS, random_gf, random_poly
from ratgen.poly import Polynomial
from ratgen.recurrence import RationalGF, expand_family
from ratgen.series import geometric_inverse, multinomial_inverse

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


def test_power_oracles_match_sympy_series():
    # both of verify's power oracles build B^-h from B and h
    rng = random.Random(1974)
    for h in tuple(range(2, 9)) * 3:
        names = COEFF_VARS[: rng.randint(1, 3)]
        B = [Polynomial.one()]
        B += [random_poly(rng, names) for _ in range(rng.randint(0, 3))]
        N = rng.randint(0, 7)
        want = sympy.expand(sympy.series(as_sympy(B) ** -h, t, 0, N + 1).removeO())
        for oracle in (geometric_inverse, multinomial_inverse):
            got = oracle(B, N, h)
            for k in range(N + 1):
                assert sympy.expand(want.coeff(t, k) - as_sympy([got[k]])) == 0, (B, h, k)
