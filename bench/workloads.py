"""Seeded job generators for the benchmark workloads.

A job is one ``ratgen`` command line plus what its output is checked
against.  Every workload keeps the *shape* of its job mix fixed (which
families, formats, denominators and powers appear, and how often) and lets
the seed choose the values inside each slot: truncation orders inside a
narrow band, integer coefficients, evaluation points and the job order.
That keeps the amount of work per pass nearly the same for every seed, so
runs with different seeds are comparable, while the program still sees
inputs it has not seen before.

``catalog_deep`` and ``power_at`` draw each slot from a finite pool so that
every possible command line has a reference SHA-256 of its stdout, captured
by ``make_reference.py`` at the commit that defined the benchmark.
``random_verify`` needs no pool: every admissible instance must print the
same four PASS lines.

Nothing here imports ratgen; the ``--at`` reference values come from
:func:`series_values`, a plain-integer recurrence.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    values: tuple[int, ...] | None = None  # expected --at values, P_0..P_N

    @property
    def key(self) -> str:
        return json.dumps(self.argv)


# -- expressions ---------------------------------------------------------------

# A polynomial in t is a list of t-coefficients; each coefficient is a list of
# (integer coefficient, ((variable, exponent), ...)) terms.
Term = tuple[int, tuple[tuple[str, int], ...]]


def expression(coeffs: list[list[Term]]) -> str:
    """Render a polynomial in t as ratgen expression text."""
    pieces: list[str] = []
    for j, terms in enumerate(coeffs):
        for c, mono in terms:
            factors = [f"{v}^{e}" if e > 1 else v for v, e in mono]
            if j:
                factors.append("t" if j == 1 else f"t^{j}")
            if abs(c) != 1 or not factors:
                factors.insert(0, str(abs(c)))
            body = "*".join(factors)
            if not pieces:
                pieces.append(f"-{body}" if c < 0 else body)
            else:
                pieces.append(f"{'-' if c < 0 else '+'} {body}")
    return " ".join(pieces) if pieces else "0"


def _evaluate(terms: list[Term], point: dict[str, int]) -> int:
    total = 0
    for c, mono in terms:
        for v, e in mono:
            c *= point[v] ** e
        total += c
    return total


def series_values(
    num: list[list[Term]], den: list[list[Term]], power: int,
    point: dict[str, int], N: int,
) -> tuple[int, ...]:
    """Coefficients 0..N of num/den^power in t, after evaluating at point."""
    a = [_evaluate(terms, point) for terms in num]
    b = [_evaluate(terms, point) for terms in den]
    if b[0] != 1:
        raise ValueError("denominator constant term must be 1")
    d = [1] + [0] * N
    for _ in range(power):
        d = [sum(d[i] * b[k - i] for i in range(k + 1) if k - i < len(b))
             for k in range(N + 1)]
    p: list[int] = []
    for k in range(N + 1):
        acc = a[k] if k < len(a) else 0
        for j in range(1, k + 1):
            acc -= d[j] * p[k - j]
        p.append(acc)
    return tuple(p)


def _nonzero(rng: random.Random, bound: int) -> int:
    return rng.choice([c for c in range(-bound, bound + 1) if c])


# -- catalog_deep --------------------------------------------------------------

CATALOG_VARIANTS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("catalan", ()),
    ("fibonacci", ()),
    ("jacobsthal", ()),
    ("pell", ()),
    ("pell_lucas", ()),
    ("gen_fibonacci", ("m=2",)),
    ("gen_fibonacci", ("m=3",)),
    ("gen_lucas", ("m=2",)),
    ("gen_lucas", ("m=4",)),
    ("gen_catalan", ("m=2", "A=0")),
    ("gen_catalan", ("m=3", "A=x+2")),
    ("horadam_first", ("p=1", "q=1")),
    ("horadam_first", ("p=2", "q=-3")),
    ("horadam_second", ("p=1", "q=1")),
    ("horadam_second", ("p=3", "q=2")),
    ("gen_two_var_fibonacci", ()),
    ("gen_two_var_fibonacci", ("a=2", "b=1", "c=2", "A=y")),
)
CATALOG_FORMATS = ("text", "json", "csv")
# Six depth bands 50 apart; inside a band each variant sits 3 orders above
# the one before, so the mix covers N=106..412 evenly and p50 and p90 fall
# among jobs of similar size.  A seed moves each N by at most 4.
CATALOG_DEPTHS = (110, 160, 210, 260, 310, 360)
CATALOG_VARIANT_STEP = 3
CATALOG_DEPTH_OFFSETS = (-4, -2, 0, 2, 4)


def _catalog_job(variant: int, band: int, offset: int) -> Job:
    family, params = CATALOG_VARIANTS[variant]
    argv = ["family", "expand", family]
    for p in params:
        argv += ["--param", p]
    fmt = CATALOG_FORMATS[(variant + band) % len(CATALOG_FORMATS)]
    N = CATALOG_DEPTHS[band] + CATALOG_VARIANT_STEP * variant + offset
    return Job(tuple(argv + ["-N", str(N), "--format", fmt]))


def _catalog_slots() -> list[tuple[int, int]]:
    return list(itertools.product(range(len(CATALOG_VARIANTS)), range(len(CATALOG_DEPTHS))))


def catalog_pool() -> list[Job]:
    return [_catalog_job(v, b, off) for v, b in _catalog_slots()
            for off in CATALOG_DEPTH_OFFSETS]


def catalog_deep(seed: int) -> list[Job]:
    """One job per (family variant, depth band); N jitters inside the band.

    Each variant is printed in every format, twice.
    """
    rng = random.Random(f"catalog_deep/{seed}")
    jobs = [_catalog_job(v, b, rng.choice(CATALOG_DEPTH_OFFSETS))
            for v, b in _catalog_slots()]
    rng.shuffle(jobs)
    return jobs


# -- random_verify -------------------------------------------------------------

VERIFY_ORDER = 24
VERIFY_STRUCTURE_SEED = 1810_07268  # fixes the monomial supports, not the values
VERIFY_COPIES = 2
VERIFY_VARIABLES = ("x", "y", "z")


def _support(rng: random.Random, variables: tuple[str, ...], max_exp: int,
             max_terms: int) -> list[tuple]:
    monos: set[tuple] = set()
    for _ in range(rng.randint(1, max_terms)):
        monos.add(tuple((v, e) for v in variables if (e := rng.randint(0, max_exp))))
    return sorted(monos)


def _verify_templates() -> list[tuple[list, list, int]]:
    """(numerator supports, denominator supports, power) for every slot.

    Slots cover every shape with 1..3 variables, m <= 3, n in 1..4 and
    h in {1, 2}.  Numerator coefficients have one or two terms with
    per-variable exponents <= 2; denominator coefficients are one
    multilinear term.  Each product is tiny, but the supports of P_k
    spread over up to three variables and overflow the monomial cache.
    """
    rng = random.Random(VERIFY_STRUCTURE_SEED)
    templates = []
    for _ in range(VERIFY_COPIES):
        for nv, m, n, h in itertools.product((1, 2, 3), range(4), (1, 2, 3, 4), (1, 2)):
            variables = VERIFY_VARIABLES[:nv]
            num = [_support(rng, variables, 2, 2) for _ in range(m + 1)]
            den = [_support(rng, variables, 1, 1) for _ in range(n)]
            templates.append((num, den, h))
    return templates


def random_verify(seed: int) -> list[Job]:
    """``verify --oracle all`` on admissible GFs with seeded coefficients."""
    rng = random.Random(f"random_verify/{seed}")
    jobs = []
    for num_s, den_s, h in _verify_templates():
        num = [[(_nonzero(rng, 5), mono) for mono in s] for s in num_s]
        den = [[(1, ())]] + [[(_nonzero(rng, 5), mono) for mono in s] for s in den_s]
        jobs.append(Job((
            "verify", f"--num={expression(num)}", f"--den={expression(den)}",
            "--pow", str(h), "-N", str(VERIFY_ORDER), "--oracle", "all")))
    rng.shuffle(jobs)
    return jobs


# -- power_at ------------------------------------------------------------------

# Denominator t-coefficients (constant term 1 implied; "x+y" is two terms)
# and the powers each denominator is raised to.  raise_denominator builds
# all h*n orders of B^h, so its cost grows steeply with h; the top powers
# are the slow tail and stay in the mix.
POWER_TEMPLATES: tuple[tuple[tuple[str, ...], tuple[int, ...]], ...] = (
    (("x", "y"), (10, 15, 20, 25, 30, 40, 50, 60, 70, 80)),
    (("x", "y*z"), (10, 15, 20, 25, 30, 40, 50, 60, 70, 80)),
    (("x", "y", "x*y"), (10, 15, 20, 25, 30, 40)),
    (("x", "y", "1"), (10, 15, 20, 25, 30)),
    (("x+y", "z"), (8, 10, 12, 16, 20, 25)),
)
POWER_NUMERATOR = ("1", "x", "y")
POWER_VARIANTS = 6  # pool entries per slot
POWER_PICKS = 3     # entries a seed draws from each slot's pool


def _monomials(coeff: str) -> list[tuple[tuple[str, int], ...]]:
    return [() if m == "1" else tuple((v, 1) for v in m.split("*"))
            for m in coeff.split("+")]


def _power_slots() -> list[tuple[int, int]]:
    return [(i, h) for i, (_, powers) in enumerate(POWER_TEMPLATES) for h in powers]


def _power_job(template: int, h: int, variant: int) -> Job:
    rng = random.Random(f"power_at/{template}/{h}/{variant}")
    # fixed magnitudes keep the size of B^h's coefficients the same for every seed
    den = [[(1, ())]] + [[(rng.choice((-2, 2)), mono) for mono in _monomials(coeff)]
                         for coeff in POWER_TEMPLATES[template][0]]
    num = [[(_nonzero(rng, 4), mono) for mono in _monomials(coeff)]
           for coeff in POWER_NUMERATOR]
    variables = sorted({v for poly in (num, den) for coeff in poly
                        for _, mono in coeff for v, _ in mono})
    point = {v: _nonzero(rng, 4) for v in variables}
    N = rng.randint(15, 17)
    argv = ("expand", f"--num={expression(num)}", f"--den={expression(den)}",
            "--pow", str(h), "-N", str(N),
            "--at", ",".join(f"{v}={point[v]}" for v in variables))
    return Job(argv, series_values(num, den, h, point, N))


def power_pool() -> list[Job]:
    return [_power_job(t, h, v) for t, h in _power_slots() for v in range(POWER_VARIANTS)]


def power_at(seed: int) -> list[Job]:
    """``expand --pow h --at ...``: each slot contributes POWER_PICKS variants."""
    rng = random.Random(f"power_at/{seed}")
    jobs = [_power_job(t, h, v) for t, h in _power_slots()
            for v in rng.sample(range(POWER_VARIANTS), POWER_PICKS)]
    rng.shuffle(jobs)
    return jobs


GENERATORS = {"catalog_deep": catalog_deep, "random_verify": random_verify, "power_at": power_at}
WORKLOADS = tuple(GENERATORS)
POOLS = {"catalog_deep": catalog_pool, "power_at": power_pool}
