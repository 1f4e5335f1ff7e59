"""sympy's series expansion as a third oracle for the recurrence engine.

sympy shares no code with ratgen, so agreement here is independent of both
the recurrence kernel and the two power oracles, which it checks too.  It
also checks ``**``, which runs Miller's kernel, against ``sympy.expand``.
The expressions are built from ``Polynomial.items()``, not from the
formatter or the parser.  The recurrence that ``ratgen recurrence`` prints is
checked the same way: sympy runs the printed text itself.
sympy is a test-only dependency; without it the test is skipped.
"""

import math
import random
import re

import pytest

from helpers import COEFF_VARS, random_gf, random_poly
from ratgen.cli import main
from ratgen.parser import parse_poly
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


def as_text(coeffs):
    """sum_j coeffs[j] * t^j as CLI input, one term at a time."""
    terms = [f"({c})" + "".join(f"*{var}^{e}" for var, e in mono) + f"*t^{j}"
             for j, p in enumerate(coeffs) for mono, c in p.items()]
    return " + ".join(terms) or "0"


def run_printed_recurrence(text, K):
    """P_0..P_K, as polynomials in x and y, from the printed
    ``P_k = <rhs> (k >= s); P_0 = ..; ..`` run by sympy."""
    x, y = sympy.symbols("x y")
    rule, *initial = text.split("; ")
    rhs, start = re.fullmatch(r"P_k = (.*) \(k >= (\d+)\)", rule).groups()
    # P_{k-j} becomes the symbol back_j; the right side is linear in them
    rhs = sympy.sympify(re.sub(r"P_\{k-(\d+)\}", r"back_\1", rhs).replace("^", "**"))
    back = {int(s.name[5:]): s for s in rhs.free_symbols if s.name.startswith("back_")}
    feedback = {j: sympy.expand(rhs).coeff(s) for j, s in back.items()}
    assert sympy.expand(rhs - sum(c * back[j] for j, c in feedback.items())) == 0
    feedback = {j: sympy.Poly(c, x, y) for j, c in feedback.items()}
    P = []
    for k, value in enumerate(initial):
        name, value = value.split(" = ")
        assert name == f"P_{k}"
        P.append(sympy.Poly(sympy.sympify(value.replace("^", "**")), x, y))
    assert len(P) == int(start)
    while len(P) <= K:
        k = len(P)
        P.append(sum((c * P[k - j] for j, c in feedback.items()), sympy.Poly(0, x, y)))
    return P[: K + 1]


def test_printed_recurrence_matches_sympy_series(capsys):
    # the recurrence text and its initial values, read back by sympy and
    # run past the feedback's length, against the series of A/B^h
    rng = random.Random(20261020)
    for h in (1, 2, 3, 1, 2, 3, 2, 3):
        names = ("x", "y")
        A = [random_poly(rng, names) for _ in range(rng.randint(1, 3))]
        B = [Polynomial.one()] + [random_poly(rng, names, allow_zero=False)
                                  for _ in range(rng.randint(1, 2))]
        gf = RationalGF(A, B, h)
        assert main(["recurrence", "--num", as_text(A), "--den", as_text(B),
                     "--pow", str(h)]) == 0
        text = capsys.readouterr().out.splitlines()[0]
        K = 3 * (h * gf.n + gf.m)
        f = as_sympy(gf.numerator) / as_sympy(gf.denominator) ** h
        want = sympy.expand(sympy.series(f, t, 0, K + 1).removeO())
        for k, got in enumerate(run_printed_recurrence(text, K)):
            assert sympy.expand(want.coeff(t, k) - got.as_expr()) == 0, (text, k)


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


# total degree and every single name tie at both ends: x, y lowest and
# x^3*y^2, x^2*y^3 highest
TIE_HEAVY = "x + x^2 + y + y^2 + x^3*y + x^3*y^2 + x*y^3 + x^2*y^3"


def homogeneous_poly(rng, names, degree):
    """A sum of up to four terms of total degree ``degree`` over ``names``."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = dict.fromkeys(names, 0)
        for _ in range(degree):
            exps[rng.choice(names)] += 1
        mono = tuple((v, e) for v, e in sorted(exps.items()) if e)
        terms[mono] = rng.choice((-3, -2, -1, 1, 2, 5))
    return Polynomial(terms)


def test_powers_of_sums_match_sympy_expand():
    # ** runs Miller's kernel over a grading whose lowest part is one term:
    # a constant, a term picked out by degree, or one picked out by names
    rng = random.Random(20261019)
    bases = [parse_poly(TIE_HEAVY), parse_poly("x*y + x*z + y*z"),
             parse_poly("2*x^3 - 3*x*y"), parse_poly("1 + x + x^65536"),
             parse_poly("x + y + x^65536")]
    for _ in range(12):  # with a constant term
        names = COEFF_VARS[: rng.randint(1, 3)]
        constant = Polynomial.constant(rng.choice((-2, -1, 1, 3)))
        bases.append(constant + random_poly(rng, names, max_terms=3))
    for _ in range(12):  # homogeneous
        names = COEFF_VARS[: rng.randint(1, 3)]
        bases.append(homogeneous_poly(rng, names, rng.randint(1, 3)))
    for base in bases:
        for e in (0, 1, 2, rng.randint(3, 9)):
            want = sympy.expand(as_sympy([base]) ** e)
            assert sympy.expand(want - as_sympy([base ** e])) == 0, (base, e)


def test_high_power_of_a_sum_has_multinomial_coefficients():
    # the coefficient of x^i*y^j in (1+x+y)^300 is 300!/(i! j! (300-i-j)!)
    n = 300
    got = dict(parse_poly(f"(1+x+y)^{n}").items())
    want = {
        tuple((v, e) for v, e in (("x", i), ("y", j)) if e): math.comb(n, i) * math.comb(n - i, j)
        for i in range(n + 1) for j in range(n - i + 1)
    }
    assert got == want
