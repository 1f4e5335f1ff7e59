"""Catalog of the named polynomial families and the initial-value auditor.

Each family is declared once: a builder decorated with :func:`_family`,
which registers its name, summary and parameters.  The builder returns the
generating-function components exactly as printed in the source table,
together with the table's stated initial values and recursive formula.
Where the printed numerator does not generate the stated values, the
builder also gives a canonical numerator that does.  Three rows are
internally inconsistent as printed (pell, horadam_first, pell_lucas), and
the horadam_second row states a constant term its printed numerator cannot
produce; the auditor exists to demonstrate those discrepancies rather than
paper over them.

All catalog data is built on demand from parameters; nothing is mutated
after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .errors import BadParameter, UnknownFamily
from .parser import MAX_EXPONENT
from .poly import RESERVED_VARIABLE, Polynomial
from .recurrence import RationalGF, derive_recurrence, expand_family
from .series import SeriesPrefix

_ZERO = Polynomial.zero()
_ONE = Polynomial.one()
_TWO = Polynomial.constant(2)
_X = Polynomial.variable("x")


def _const(c: int) -> Polynomial:
    return Polynomial.constant(c)


@dataclass(frozen=True)
class ParamSpec:
    """A family parameter, typed by its default: ``int`` or :class:`Polynomial`.

    An ``int`` parameter that sizes a tuple or an exponent has a ``maximum``,
    so a huge value is refused before anything is allocated.
    """

    name: str
    default: int | Polynomial
    minimum: int | None = None
    maximum: int | None = None


@dataclass(frozen=True)
class FamilyParts:
    """Instantiated components of one family.

    ``numerator_canonical`` defaults to the printed numerator.
    """

    numerator_printed: tuple[Polynomial, ...]
    denominator: tuple[Polynomial, ...]
    stated_initial_values: tuple[Polynomial, ...] | None
    expected_feedback: tuple[Polynomial, ...]
    numerator_canonical: tuple[Polynomial, ...] | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.numerator_canonical is None:
            object.__setattr__(self, "numerator_canonical", self.numerator_printed)

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
        value = given.pop(p.name, p.default)
        if isinstance(p.default, int):
            if isinstance(value, bool) or not isinstance(value, int):
                raise BadParameter(
                    f"{spec.name}: parameter {p.name} must be an integer"
                )
            if p.minimum is not None and value < p.minimum:
                raise BadParameter(
                    f"{spec.name}: parameter {p.name} must be >= {p.minimum}"
                )
            if p.maximum is not None and value > p.maximum:
                raise BadParameter(
                    f"{spec.name}: parameter {p.name} must be <= {p.maximum}"
                )
        else:
            if isinstance(value, int) and not isinstance(value, bool):
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


# -- the catalog -------------------------------------------------------------

_CATALOG: dict[str, FamilySpec] = {}


def _family(name: str, summary: str, *params: ParamSpec):
    """Register the decorated builder as the catalog entry ``name``."""

    def register(build: Callable[[dict], FamilyParts]) -> Callable[[dict], FamilyParts]:
        _CATALOG[name] = FamilySpec(name, summary, params, build)
        return build

    return register


_M = ParamSpec("m", 2, minimum=2, maximum=MAX_EXPONENT)  # t-degree of the denominator
_A = ParamSpec("A", _ZERO)  # numerator coefficient of t
_P = ParamSpec("p", 1)  # coefficient of x*t
_Q = ParamSpec("q", 1)  # coefficient of t^2

_NUMERATOR_T_NOTE = (
    "printed numerator 1 yields constant term 1, contradicting the "
    "stated initial value 0; canonical numerator is t"
)


def _fibonacci_like(m: int) -> tuple[tuple[Polynomial, ...], tuple[Polynomial, ...]]:
    """Denominator 1 - x*t - t^m and its recursive formula x, 0, .., 0, 1."""
    gap = (_ZERO,) * (m - 2)
    return (_ONE, -_X, *gap, -_ONE), (_X, *gap, _ONE)


@_family("fibonacci", "Fibonacci polynomials, generated by t / (1 - x*t - t^2)")
def _fibonacci(params: dict) -> FamilyParts:
    return FamilyParts(
        numerator_printed=(_ZERO, _ONE),
        denominator=(_ONE, -_X, -_ONE),
        stated_initial_values=(_ZERO, _ONE),
        expected_feedback=(_X, _ONE),
    )


@_family("catalan", "Catalan polynomials, generated by 1 / (1 - t + x*t^2)")
def _catalan(params: dict) -> FamilyParts:
    return FamilyParts(
        numerator_printed=(_ONE,),
        denominator=(_ONE, -_ONE, _X),
        stated_initial_values=(_ONE, _ONE),
        expected_feedback=(_ONE, -_X),
    )


@_family("gen_fibonacci", "generalized Fibonacci polynomials, t / (1 - x*t - t^m)", _M)
def _gen_fibonacci(params: dict) -> FamilyParts:
    den, feedback = _fibonacci_like(params["m"])
    return FamilyParts(
        numerator_printed=(_ZERO, _ONE),
        denominator=den,
        stated_initial_values=None,
        expected_feedback=feedback,
    )


@_family("jacobsthal", "Jacobsthal polynomials, t / (1 - t - x*t^2)")
def _jacobsthal(params: dict) -> FamilyParts:
    return FamilyParts(
        numerator_printed=(_ZERO, _ONE),
        denominator=(_ONE, -_ONE, -_X),
        stated_initial_values=(_ZERO, _ONE, _ONE),
        expected_feedback=(_ONE, _X),
        notes=(
            "table states J_1 = J_2 = 1; the expansion starts at k = 0 "
            "with value 0, so the stated values are recorded as (0, 1, 1)",
        ),
    )


@_family(
    "horadam_first",
    "Horadam polynomials of the first kind, 1 / (1 - p*x*t - q*t^2)",
    _P,
    _Q,
)
def _horadam_first(params: dict) -> FamilyParts:
    p, q = params["p"], params["q"]
    return FamilyParts(
        numerator_printed=(_ONE,),
        numerator_canonical=(_ZERO, _ONE),
        denominator=(_ONE, _const(-p) * _X, _const(-q)),
        stated_initial_values=(_ZERO, _ONE),
        expected_feedback=(_const(p) * _X, _const(q)),
        notes=(_NUMERATOR_T_NOTE,),
    )


@_family(
    "horadam_second",
    "Horadam polynomials of the second kind, (1 + q*t^2) / (1 - p*x*t - q*t^2)",
    _P,
    _Q,
)
def _horadam_second(params: dict) -> FamilyParts:
    p, q = params["p"], params["q"]
    return FamilyParts(
        numerator_printed=(_ONE, _ZERO, _const(q)),
        denominator=(_ONE, _const(-p) * _X, _const(-q)),
        stated_initial_values=(_TWO, _X),
        expected_feedback=(_const(p) * _X, _const(q)),
        notes=(
            "printed numerator 1+q*t^2 yields constant term 1, not the "
            "stated 2 (and p*x at k = 1); no canonical fixup is applied, "
            "the audit reports the discrepancy",
        ),
    )


@_family("pell", "Pell polynomials, t / (1 - 2*x*t - t^2)")
def _pell(params: dict) -> FamilyParts:
    two_x = _TWO * _X
    return FamilyParts(
        numerator_printed=(_ONE,),
        numerator_canonical=(_ZERO, _ONE),
        denominator=(_ONE, -two_x, -_ONE),
        stated_initial_values=(_ZERO, _ONE),
        expected_feedback=(two_x, _ONE),
        notes=(_NUMERATOR_T_NOTE,),
    )


@_family("pell_lucas", "Pell-Lucas polynomials, (2 - 2*x*t) / (1 - 2*x*t - t^2)")
def _pell_lucas(params: dict) -> FamilyParts:
    two_x = _TWO * _X
    return FamilyParts(
        numerator_printed=(two_x, _TWO),
        numerator_canonical=(_TWO, -two_x),
        denominator=(_ONE, -two_x, -_ONE),
        stated_initial_values=(_TWO, two_x),
        expected_feedback=(two_x, _ONE),
        notes=(
            "printed numerator 2x+2t yields constant term 2x, not the "
            "stated 2; canonical numerator 2-2xt reproduces (2, 2x)",
        ),
    )


@_family("gen_lucas", "generalized Lucas polynomials, (2 - x*t) / (1 - x*t - t^m)", _M)
def _gen_lucas(params: dict) -> FamilyParts:
    den, feedback = _fibonacci_like(params["m"])
    return FamilyParts(
        numerator_printed=(_TWO, -_X),
        denominator=den,
        stated_initial_values=None,
        expected_feedback=feedback,
    )


@_family(
    "gen_catalan",
    "generalized Catalan polynomials, (1 + A*t) / (1 - m*t + x*t^m)",
    _M,
    _A,
)
def _gen_catalan(params: dict) -> FamilyParts:
    m, A = params["m"], params["A"]
    gap = (_ZERO,) * (m - 2)
    return FamilyParts(
        numerator_printed=(_ONE, A),
        denominator=(_ONE, _const(-m), *gap, _X),
        stated_initial_values=(_ONE, A + _const(m)),
        expected_feedback=(_const(m), *gap, -_X),
    )


@_family(
    "gen_two_var_fibonacci",
    "two-variable Fibonacci polynomials, (1 + A*t) / (1 - x^a*t - y^b*t^(b+c))",
    ParamSpec("a", 1, minimum=1, maximum=MAX_EXPONENT),  # exponent of x
    ParamSpec("b", 1, minimum=1, maximum=MAX_EXPONENT),  # exponent of y
    ParamSpec("c", 1, minimum=1, maximum=MAX_EXPONENT),  # t-degree offset
    _A,
)
def _gen_two_var_fibonacci(params: dict) -> FamilyParts:
    a, b, c, A = params["a"], params["b"], params["c"], params["A"]
    x_a = _X**a
    y_b = Polynomial.variable("y") ** b
    gap = (_ZERO,) * (b + c - 2)
    return FamilyParts(
        numerator_printed=(_ONE, A),
        denominator=(_ONE, -x_a, *gap, -y_b),
        stated_initial_values=(_ONE, A + x_a),
        expected_feedback=(x_a, *gap, y_b),
    )


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
