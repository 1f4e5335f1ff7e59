"""Module boundaries: only ratgen.poly knows how a monomial is stored, and
only ratgen.recurrence runs the expansion loops."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ratgen"
INTERNALS = (
    "._terms", "._raw(", "_mul_monomials", "_layout", "_SHIFTS", "_NAMES", "_MASK",
)
# every other module expands through iter_family or expand_family
LOOPS = ("iter_terms", "_iter_power")


def offenders(owner: str, needles: tuple[str, ...]) -> list[str]:
    return [
        f"{path.name}:{lineno}: {needle}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != owner
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        for needle in needles
        if needle in line
    ]


def test_only_poly_touches_the_monomial_representation():
    assert offenders("poly.py", INTERNALS) == []


def test_only_recurrence_names_the_expansion_loops():
    assert offenders("recurrence.py", LOOPS) == []
