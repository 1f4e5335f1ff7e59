"""Module boundaries: only ratgen.poly knows how a monomial is stored, only
ratgen.recurrence runs the expansion loops, Miller's power kernel is named
only in ratgen.poly, its home, and by the engine, and the power oracles of
ratgen.series name none of the engine's kernels and use no ``**``."""

import ast
import inspect
import textwrap
from pathlib import Path

from ratgen import series

SRC = Path(__file__).resolve().parents[1] / "src" / "ratgen"
INTERNALS = (
    "._terms", "._raw(", "_mul_monomials", "_layout", "_SHIFTS", "_NAMES", "_MASK",
)
# each loop and the modules that name it: every other module expands
# through iter_family or expand_family, and powers through ** or
# raise_denominator
LOOPS = {
    "iter_terms": {"recurrence.py"},
    "_iter_power": {"recurrence.py"},
    "_miller_power": {"poly.py", "recurrence.py"},  # its home, and the engine's name for it
}


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
    named = {loop: {path.name for path in SRC.glob("*.py") if loop in path.read_text()}
             for loop in LOOPS}
    assert named == LOOPS


# the power oracles check the engine, so they share none of its kernels
ENGINE_KERNELS = {
    "convolve", "iter_convolve", "_iter_power", "_miller_power", "iter_terms",
    "raise_denominator", "iter_family", "expand_family",
}


def names_in(fn) -> set[str]:
    """Every name and attribute the code of ``fn`` mentions (not its docstring),
    and "**" if it raises to a power, which runs Miller's kernel."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return {
        "**" if isinstance(node, ast.Pow) else
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.Pow))
    }


def test_the_power_oracles_name_no_engine_kernel():
    seen: dict[str, set[str]] = {}
    todo = ["geometric_inverse", "multinomial_inverse"]
    while todo:  # the oracles and every private helper of series they reach
        name = todo.pop()
        if name in seen:
            continue
        seen[name] = names_in(getattr(series, name))
        todo += [other for other in seen[name] if other.startswith("_")
                 and inspect.isfunction(getattr(series, other, None))]
    assert {"_check_oracle", "_nonzero_terms"} <= seen.keys()
    refused = ENGINE_KERNELS | {"**"}
    assert {name: sorted(names & refused) for name, names in seen.items()
            if names & refused} == {}


# a prefix that skips the t check, or a polynomial handed its variable set,
# is built only where the inputs were checked
TRUSTED_CONSTRUCTORS = ("_unchecked", "_from_raw_in")


def test_only_the_engine_names_the_trusted_constructors():
    named = {
        path.name: [needle for needle in TRUSTED_CONSTRUCTORS if needle in path.read_text()]
        for path in sorted(SRC.glob("*.py"))
    }
    assert {"cli.py", "families.py"} <= named.keys()
    allowed = {"series.py", "recurrence.py", "poly.py"}
    assert {name: needles for name, needles in named.items()
            if needles and name not in allowed} == {}


def test_the_order_and_denominator_rules_are_spelled_once_in_series():
    # each public entry calls series' gate, so each rule has one home
    for message in ("order must be nonnegative", "denominator constant term must be 1"):
        spelled = {path.name: path.read_text().count(message)
                   for path in sorted(SRC.glob("*.py"))}
        assert {name: count for name, count in spelled.items() if count} == {"series.py": 1}


def test_the_name_pattern_is_spelled_once_in_poly():
    # the parser scans names with poly's _NAME_RE, so the rule has one home
    pattern = "[A-Za-z][A-Za-z0-9_]*"
    spelled = {path.name: path.read_text().count(pattern) for path in sorted(SRC.glob("*.py"))}
    assert {name: count for name, count in spelled.items() if count} == {"poly.py": 1}


def writes_stdout(node: ast.AST) -> bool:
    """Whether node names sys.stdout or is a print call not sent to sys.stderr."""
    if isinstance(node, ast.Attribute):
        return ast.unparse(node) == "sys.stdout"
    if isinstance(node, ast.Call) and ast.unparse(node.func) == "print":
        return not any(kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr"
                       for kw in node.keywords)
    return False


def test_only_main_writes_stdout():
    # each command returns its stdout text, and main writes it once, after
    # the command has built all of it: a command that fails leaves stdout empty
    tree = ast.parse((SRC / "cli.py").read_text())
    writers = {
        top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for top in tree.body
        for node in ast.walk(top)
        if writes_stdout(node)
    }
    assert writers == {"main"}
