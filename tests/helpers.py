"""Shared randomized generators and brute-force oracles for the test suite.

Everything here is deterministic given an explicit random.Random seed, so
frozen expected values and randomized sweeps are reproducible run to run.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping, Sequence

from hypothesis import strategies as st

from ratgen.poly import Monomial, Polynomial
from ratgen.recurrence import RationalGF

COEFF_VARS = ("x", "y", "z")
T = Polynomial.symbol("t")


def sum_in_t(seq: Iterable[Polynomial]) -> Polynomial:
    """sum_j seq[j] * t^j, built with the ring's + and *: the inverse of
    split_in_t, for the tests to check it and the series arithmetic against."""
    return sum((p * T**j for j, p in enumerate(seq)), Polynomial.zero())


def random_poly(
    rng: random.Random,
    variables: Sequence[str] = COEFF_VARS,
    max_terms: int = 2,
    max_degree: int = 2,
    coeff_bound: int = 5,
    allow_zero: bool = True,
) -> Polynomial:
    terms: dict[Monomial, int] = {}
    n_terms = rng.randint(0 if allow_zero else 1, max_terms)
    for _ in range(n_terms):
        mono = tuple(
            sorted(
                (v, e)
                for v in variables
                if (e := rng.randint(0, max_degree)) > 0
            )
        )
        terms[mono] = terms.get(mono, 0) + rng.randint(-coeff_bound, coeff_bound)
    return Polynomial(terms)


def random_gf(rng: random.Random) -> RationalGF:
    """An admissible instance: <=3 variables, m<=3, n<=4, h in {1,2}."""
    variables = COEFF_VARS[: rng.choice([0, 1, 1, 2, 2, 3])]
    m = rng.randint(0, 3)
    n = rng.randint(0, 4)
    h = rng.choice([1, 2])
    num = [random_poly(rng, variables) for _ in range(m + 1)]
    den = [Polynomial.one()] + [random_poly(rng, variables) for _ in range(n)]
    return RationalGF(num, den, h)


def random_denominator(rng: random.Random, max_n: int = 4) -> list[Polynomial]:
    variables = COEFF_VARS[: rng.choice([0, 1, 1, 2])]
    n = rng.randint(0, max_n)
    return [Polynomial.one()] + [random_poly(rng, variables) for _ in range(n)]


def reference_format(terms: Mapping[Monomial, int]) -> str:
    """format_poly's canonical text, built term by term from a term map.

    Sorts by a plain graded-lex key (total degree, then the exponents in
    alphabetical order of the names) and shares no code with ratgen's
    ordering or formatting.
    """
    terms = {tuple(sorted(mono)): c for mono, c in terms.items() if c}
    names = sorted({name for mono in terms for name, _ in mono})

    def key(mono: Monomial) -> tuple[int, list[int]]:
        exponents = dict(mono)
        vector = [exponents.get(name, 0) for name in names]
        return sum(vector), vector

    text = ""
    for mono in sorted(terms, key=key, reverse=True):
        coeff = terms[mono]
        factors = [name if e == 1 else f"{name}^{e}" for name, e in mono]
        if abs(coeff) != 1 or not factors:
            factors.insert(0, str(abs(coeff)))
        body = "*".join(factors)
        if not text:
            text = f"-{body}" if coeff < 0 else body
        else:
            text += f"{' - ' if coeff < 0 else ' + '}{body}"
    return text or "0"


def reference_product(p: Polynomial, q: Polynomial) -> dict[Monomial, int]:
    """p * q by a double loop over the terms, as a map from monomials to
    (possibly zero) coefficients; shares no code with ratgen's kernel."""
    out: dict[Monomial, int] = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            exponents = dict(m1)
            for name, e in m2:
                exponents[name] = exponents.get(name, 0) + e
            mono = tuple(sorted(exponents.items()))
            out[mono] = out.get(mono, 0) + c1 * c2
    return out


def reference_sum(
    parts: Sequence[tuple[int, Polynomial, Mapping[str, int]]]
) -> dict[Monomial, int]:
    """sum of c * p * prod(name^e for name, e in shift) over the parts
    (c, p, shift), by a plain dict sum over the terms of each p, as a map from
    monomials to nonzero coefficients; shares no code with ratgen's kernel."""
    out: dict[Monomial, int] = {}
    for c, p, shift in parts:
        for mono, coeff in p.items():
            exponents = dict(mono)
            for name, e in shift.items():
                exponents[name] = exponents.get(name, 0) + e
            key = tuple(sorted((name, e) for name, e in exponents.items() if e))
            out[key] = out.get(key, 0) + c * coeff
    return {mono: coeff for mono, coeff in out.items() if coeff}


# -- hypothesis strategies ----------------------------------------------------

def monomials(
    variables: Sequence[str] = COEFF_VARS, max_degree: int = 4
) -> st.SearchStrategy[Monomial]:
    return st.builds(
        lambda exps: tuple(
            sorted((v, e) for v, e in zip(variables, exps) if e > 0)
        ),
        st.lists(
            st.integers(min_value=0, max_value=max_degree),
            min_size=len(variables),
            max_size=len(variables),
        ),
    )


def polynomials(
    variables: Sequence[str] = COEFF_VARS,
    max_degree: int = 4,
    coeff_bound: int = 9,
    max_terms: int = 4,
) -> st.SearchStrategy[Polynomial]:
    return st.builds(
        Polynomial,
        st.dictionaries(
            monomials(variables, max_degree),
            st.integers(min_value=-coeff_bound, max_value=coeff_bound),
            max_size=max_terms,
        ),
    )
