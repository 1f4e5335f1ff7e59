"""Only ratgen.poly knows how a monomial is stored."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ratgen"
INTERNALS = (
    "._terms", "._raw(", "_mul_monomials", "_layout", "_SHIFTS", "_NAMES", "_MASK",
)


def test_only_poly_touches_the_monomial_representation():
    offenders = [
        f"{path.name}:{lineno}: {needle}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "poly.py"
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        for needle in INTERNALS
        if needle in line
    ]
    assert offenders == []
