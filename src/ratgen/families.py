"""Catalog of the named polynomial families and the initial-value auditor.

Each entry stores the generating-function components exactly as printed in
the source table alongside a canonical numerator that actually reproduces
the table's stated initial values.  Three rows are internally inconsistent
as printed (pell, horadam_first, pell_lucas: the printed numerator does not
generate the stated first values), and the horadam_second row states a
constant term its printed numerator cannot produce; the auditor exists to
demonstrate those discrepancies rather than paper over them.

All catalog data is built on demand from parameters; nothing is mutated
after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .errors import BadParameter, UnknownFamily
from .poly import RESERVED_VARIABLE, Polynomial
from .recurrence import RationalGF, derive_recurrence, expand_family
from .series import SeriesPrefix

_ZERO = Polynomial.zero()
_ONE = Polynomial.one()


def _var(name: str) -> Polynomial:
    return Polynomial.variable(name)


def _const(c: int) -> Polynomial:
    return Polynomial.constant(c)


@dataclass(frozen=True)
class ParamSpec:
    name: str
    kind: str  # "int" or "poly"
    default: object
    minimum: int | None = None
    description: str = ""


@dataclass(frozen=True)
class FamilyParts:
    """Instantiated components of one family."""

    numerator_printed: tuple[Polynomial, ...]
    numerator_canonical: tuple[Polynomial, ...]
    denominator: tuple[Polynomial, ...]
    stated_initial_values: tuple[Polynomial, ...] | None
    expected_feedback: tuple[Polynomial, ...]
    notes: tuple[str, ...] = ()

    def gf(self, mode: str) -> RationalGF:
        """The generating function in the printed or canonical reading."""
        printed = mode == "printed"
        num = self.numerator_printed if printed else self.numerator_canonical
        return RationalGF(num, self.denominator, 1)


@dataclass(frozen=True)
class FamilySpec:
    name: str
    summary: str
    params: tuple[ParamSpec, ...]
    build: Callable[[dict], FamilyParts]


def _resolve_params(spec: FamilySpec, parameters: Mapping[str, object] | None) -> dict:
    given = dict(parameters or {})
    resolved: dict[str, object] = {}
    for p in spec.params:
        if p.name in given:
            value = given.pop(p.name)
        else:
            value = p.default
        if p.kind == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise BadParameter(
                    f"{spec.name}: parameter {p.name} must be an integer"
                )
            if p.minimum is not None and value < p.minimum:
                raise BadParameter(
                    f"{spec.name}: parameter {p.name} must be >= {p.minimum}"
                )
        elif p.kind == "poly":
            if isinstance(value, bool):
                raise BadParameter(
                    f"{spec.name}: parameter {p.name} must be a polynomial"
                )
            if isinstance(value, int):
                value = _const(value)
            if not isinstance(value, Polynomial):
                raise BadParameter(
                    f"{spec.name}: parameter {p.name} must be a polynomial"
                )
            if value.mentions(RESERVED_VARIABLE):
                raise BadParameter(
                    f"{spec.name}: parameter {p.name} must not mention "
                    f"the series variable"
                )
        resolved[p.name] = value
    if given:
        extra = ", ".join(sorted(given))
        raise BadParameter(f"{spec.name}: unknown parameter(s): {extra}")
    return resolved


# -- builders ----------------------------------------------------------------


def _fibonacci(params: dict) -> FamilyParts:
    x = _var("x")
    num = (_ZERO, _ONE)
    return FamilyParts(
        numerator_printed=num,
        numerator_canonical=num,
        denominator=(_ONE, -x, -_ONE),
        stated_initial_values=(_ZERO, _ONE),
        expected_feedback=(x, _ONE),
    )


def _catalan(params: dict) -> FamilyParts:
    x = _var("x")
    num = (_ONE,)
    return FamilyParts(
        numerator_printed=num,
        numerator_canonical=num,
        denominator=(_ONE, -_ONE, x),
        stated_initial_values=(_ONE, _ONE),
        expected_feedback=(_ONE, -x),
    )


def _gen_fibonacci(params: dict) -> FamilyParts:
    m = params["m"]
    x = _var("x")
    den = [_ONE, -x] + [_ZERO] * (m - 2) + [-_ONE]
    feedback = [x] + [_ZERO] * (m - 2) + [_ONE]
    return FamilyParts(
        numerator_printed=(_ZERO, _ONE),
        numerator_canonical=(_ZERO, _ONE),
        denominator=tuple(den),
        stated_initial_values=None,
        expected_feedback=tuple(feedback),
    )


def _jacobsthal(params: dict) -> FamilyParts:
    x = _var("x")
    num = (_ZERO, _ONE)
    return FamilyParts(
        numerator_printed=num,
        numerator_canonical=num,
        denominator=(_ONE, -_ONE, -x),
        stated_initial_values=(_ZERO, _ONE, _ONE),
        expected_feedback=(_ONE, x),
        notes=(
            "table states J_1 = J_2 = 1; the expansion starts at k = 0 "
            "with value 0, so the stated values are recorded as (0, 1, 1)",
        ),
    )


def _horadam_first(params: dict) -> FamilyParts:
    p, q = params["p"], params["q"]
    x = _var("x")
    return FamilyParts(
        numerator_printed=(_ONE,),
        numerator_canonical=(_ZERO, _ONE),
        denominator=(_ONE, _const(-p) * x, _const(-q)),
        stated_initial_values=(_ZERO, _ONE),
        expected_feedback=(_const(p) * x, _const(q)),
        notes=(
            "printed numerator 1 yields constant term 1, contradicting the "
            "stated initial value 0; canonical numerator is t",
        ),
    )


def _horadam_second(params: dict) -> FamilyParts:
    p, q = params["p"], params["q"]
    x = _var("x")
    num = (_ONE, _ZERO, _const(q))
    return FamilyParts(
        numerator_printed=num,
        numerator_canonical=num,
        denominator=(_ONE, _const(-p) * x, _const(-q)),
        stated_initial_values=(_const(2), x),
        expected_feedback=(_const(p) * x, _const(q)),
        notes=(
            "printed numerator 1+q*t^2 yields constant term 1, not the "
            "stated 2 (and p*x at k = 1); no canonical fixup is applied, "
            "the audit reports the discrepancy",
        ),
    )


def _pell(params: dict) -> FamilyParts:
    x = _var("x")
    two_x = _const(2) * x
    return FamilyParts(
        numerator_printed=(_ONE,),
        numerator_canonical=(_ZERO, _ONE),
        denominator=(_ONE, -two_x, -_ONE),
        stated_initial_values=(_ZERO, _ONE),
        expected_feedback=(two_x, _ONE),
        notes=(
            "printed numerator 1 yields constant term 1, contradicting the "
            "stated initial value 0; canonical numerator is t",
        ),
    )


def _pell_lucas(params: dict) -> FamilyParts:
    x = _var("x")
    two = _const(2)
    two_x = two * x
    return FamilyParts(
        numerator_printed=(two_x, two),
        numerator_canonical=(two, -two_x),
        denominator=(_ONE, -two_x, -_ONE),
        stated_initial_values=(two, two_x),
        expected_feedback=(two_x, _ONE),
        notes=(
            "printed numerator 2x+2t yields constant term 2x, not the "
            "stated 2; canonical numerator 2-2xt reproduces (2, 2x)",
        ),
    )


def _gen_lucas(params: dict) -> FamilyParts:
    m = params["m"]
    x = _var("x")
    den = [_ONE, -x] + [_ZERO] * (m - 2) + [-_ONE]
    feedback = [x] + [_ZERO] * (m - 2) + [_ONE]
    num = (_const(2), -x)
    return FamilyParts(
        numerator_printed=num,
        numerator_canonical=num,
        denominator=tuple(den),
        stated_initial_values=None,
        expected_feedback=tuple(feedback),
    )


def _gen_catalan(params: dict) -> FamilyParts:
    m = params["m"]
    A = params["A"]
    x = _var("x")
    den = [_ONE, _const(-m)] + [_ZERO] * (m - 2) + [x]
    feedback = [_const(m)] + [_ZERO] * (m - 2) + [-x]
    num = (_ONE, A)
    return FamilyParts(
        numerator_printed=num,
        numerator_canonical=num,
        denominator=tuple(den),
        stated_initial_values=(_ONE, A + _const(m)),
        expected_feedback=tuple(feedback),
    )


def _gen_two_var_fibonacci(params: dict) -> FamilyParts:
    a, b, c = params["a"], params["b"], params["c"]
    A = params["A"]
    x_a = _var("x") ** a
    y_b = _var("y") ** b
    span = b + c
    den = [_ONE, -x_a] + [_ZERO] * (span - 2) + [-y_b]
    feedback = [x_a] + [_ZERO] * (span - 2) + [y_b]
    return FamilyParts(
        numerator_printed=(_ONE, A),
        numerator_canonical=(_ONE, A),
        denominator=tuple(den),
        stated_initial_values=(_ONE, A + x_a),
        expected_feedback=tuple(feedback),
    )


_CATALOG: dict[str, FamilySpec] = {
    spec.name: spec
    for spec in (
        FamilySpec(
            "catalan",
            "Catalan polynomials, generated by 1 / (1 - t + x*t^2)",
            (),
            _catalan,
        ),
        FamilySpec(
            "fibonacci",
            "Fibonacci polynomials, generated by t / (1 - x*t - t^2)",
            (),
            _fibonacci,
        ),
        FamilySpec(
            "gen_catalan",
            "generalized Catalan polynomials, (1 + A*t) / (1 - m*t + x*t^m)",
            (
                ParamSpec("m", "int", 2, minimum=2, description="t-degree of the denominator"),
                ParamSpec("A", "poly", _ZERO, description="numerator coefficient of t"),
            ),
            _gen_catalan,
        ),
        FamilySpec(
            "gen_fibonacci",
            "generalized Fibonacci polynomials, t / (1 - x*t - t^m)",
            (ParamSpec("m", "int", 2, minimum=2, description="t-degree of the denominator"),),
            _gen_fibonacci,
        ),
        FamilySpec(
            "gen_lucas",
            "generalized Lucas polynomials, (2 - x*t) / (1 - x*t - t^m)",
            (ParamSpec("m", "int", 2, minimum=2, description="t-degree of the denominator"),),
            _gen_lucas,
        ),
        FamilySpec(
            "gen_two_var_fibonacci",
            "two-variable Fibonacci polynomials, "
            "(1 + A*t) / (1 - x^a*t - y^b*t^(b+c))",
            (
                ParamSpec("a", "int", 1, minimum=1, description="exponent of x"),
                ParamSpec("b", "int", 1, minimum=1, description="exponent of y"),
                ParamSpec("c", "int", 1, minimum=1, description="t-degree offset"),
                ParamSpec("A", "poly", _ZERO, description="numerator coefficient of t"),
            ),
            _gen_two_var_fibonacci,
        ),
        FamilySpec(
            "horadam_first",
            "Horadam polynomials of the first kind, 1 / (1 - p*x*t - q*t^2)",
            (
                ParamSpec("p", "int", 1, description="coefficient of x*t"),
                ParamSpec("q", "int", 1, description="coefficient of t^2"),
            ),
            _horadam_first,
        ),
        FamilySpec(
            "horadam_second",
            "Horadam polynomials of the second kind, "
            "(1 + q*t^2) / (1 - p*x*t - q*t^2)",
            (
                ParamSpec("p", "int", 1, description="coefficient of x*t"),
                ParamSpec("q", "int", 1, description="coefficient of t^2"),
            ),
            _horadam_second,
        ),
        FamilySpec(
            "jacobsthal",
            "Jacobsthal polynomials, t / (1 - t - x*t^2)",
            (),
            _jacobsthal,
        ),
        FamilySpec(
            "pell",
            "Pell polynomials, t / (1 - 2*x*t - t^2)",
            (),
            _pell,
        ),
        FamilySpec(
            "pell_lucas",
            "Pell-Lucas polynomials, (2 - 2*x*t) / (1 - 2*x*t - t^2)",
            (),
            _pell_lucas,
        ),
    )
}

MODES = ("printed", "canonical")


def list_families() -> tuple[FamilySpec, ...]:
    """All catalog entries, alphabetical by name."""
    return tuple(_CATALOG[name] for name in sorted(_CATALOG))


def get_family(name: str) -> FamilySpec:
    try:
        return _CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(_CATALOG))
        raise UnknownFamily(f"unknown family {name!r}; known: {known}") from None


def build_parts(
    name: str, parameters: Mapping[str, object] | None = None
) -> tuple[FamilyParts, dict]:
    """Instantiated components plus the fully-resolved parameter map."""
    spec = get_family(name)
    resolved = _resolve_params(spec, parameters)
    return spec.build(resolved), resolved


def instantiate(
    name: str,
    parameters: Mapping[str, object] | None = None,
    mode: str = "canonical",
) -> RationalGF:
    """The family's generating function, in printed or canonical reading."""
    if mode not in MODES:
        raise BadParameter(f"mode must be one of {MODES}, got {mode!r}")
    parts, _ = build_parts(name, parameters)
    return parts.gf(mode)


@dataclass(frozen=True)
class ValueCheck:
    k: int
    computed: Polynomial
    stated: Polynomial
    match: bool


@dataclass(frozen=True)
class ModeAudit:
    mode: str
    expansion: SeriesPrefix
    checks: tuple[ValueCheck, ...]

    @property
    def mismatches(self) -> tuple[int, ...]:
        return tuple(c.k for c in self.checks if not c.match)

    @property
    def all_match(self) -> bool:
        return not self.mismatches


@dataclass(frozen=True)
class AuditReport:
    family: str
    parameters: dict
    printed: ModeAudit
    canonical: ModeAudit
    feedback_expected: tuple[Polynomial, ...]
    feedback_derived: tuple[Polynomial, ...]
    notes: tuple[str, ...]

    @property
    def feedback_match(self) -> bool:
        return self.feedback_expected == self.feedback_derived

    def mode(self, mode: str) -> ModeAudit:
        return self.printed if mode == "printed" else self.canonical


def audit(
    name: str, parameters: Mapping[str, object] | None = None, N: int = 4
) -> AuditReport:
    """Expand both readings and compare against the table's stated values.

    The derived recurrence feedback is also checked against the recursive
    formula printed in the table (they agree exactly when the table's A/B
    columns and its recursive-formula column are mutually consistent).
    """
    parts, resolved = build_parts(name, parameters)
    stated = parts.stated_initial_values or ()
    audits: dict[str, ModeAudit] = {}
    for mode in MODES:
        expansion = expand_family(parts.gf(mode), N)
        checks = tuple(
            ValueCheck(k, expansion[k], stated[k], expansion[k] == stated[k])
            for k in range(min(len(stated), N + 1))
        )
        audits[mode] = ModeAudit(mode, expansion, checks)
    derived = derive_recurrence(parts.gf("canonical"))
    return AuditReport(
        family=name,
        parameters=resolved,
        printed=audits["printed"],
        canonical=audits["canonical"],
        feedback_expected=parts.expected_feedback,
        feedback_derived=derived.feedback,
        notes=parts.notes,
    )
