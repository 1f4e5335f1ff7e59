"""Catalog of the named polynomial families and the initial-value auditor.

Each family is one row of the source table, stated once as expression text:
its denominator, its printed numerator and, where the printed numerator
does not generate the stated values, a canonical numerator that does; the
stated initial values as a comma-separated list; and the table's recursive
formula as sum_j feedback_j * t^j.  :func:`build_parts` substitutes the
resolved parameters into the text with ``str.format``: an ``int`` goes in as
its digits and a :class:`Polynomial` as ``(format_poly(A))``, which reads
back exactly by the parser's round-trip contract.  Each piece is then read
with ``split_in_t(parse_poly(...))``.  Exponents in the grammar are literals,
so a sum of parameters in an exponent is written as a product of powers,
``t^{b}*t^{c}``.

Three rows are internally inconsistent as printed (pell, horadam_first,
pell_lucas), and the horadam_second row states a constant term its printed
numerator cannot produce; the auditor exists to demonstrate those
discrepancies rather than paper over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import BadParameter, TooManyDigits, UnknownFamily
from .parser import MAX_EXPONENT, format_poly, parse_poly, split_in_t
from .poly import RESERVED_VARIABLE, Polynomial
from .recurrence import RationalGF, derive_recurrence, expand_family
from .series import SeriesPrefix


@dataclass(frozen=True)
class ParamSpec:
    """A family parameter, typed by its default: ``int`` or :class:`Polynomial`.

    An ``int`` parameter that sizes an exponent has a ``maximum``, so a huge
    value is refused before anything is built.
    """

    name: str
    default: int | Polynomial
    minimum: int | None = None
    maximum: int | None = None


@dataclass(frozen=True)
class FamilyParts:
    """Instantiated components of one family."""

    numerator_printed: tuple[Polynomial, ...]
    denominator: tuple[Polynomial, ...]
    stated_initial_values: tuple[Polynomial, ...] | None
    expected_feedback: tuple[Polynomial, ...]
    numerator_canonical: tuple[Polynomial, ...]
    notes: tuple[str, ...]

    def gf(self, mode: str) -> RationalGF:
        """The generating function in the printed or canonical reading."""
        printed = mode == "printed"
        num = self.numerator_printed if printed else self.numerator_canonical
        return RationalGF(num, self.denominator, 1)


@dataclass(frozen=True)
class FamilySpec:
    """One row of the source table; each text is a template over ``params``.

    ``stated`` lists the table's initial values P_0, P_1, .. (None when the
    table states none), and ``feedback`` is its recursive formula
    P_k = sum_j feedback_j * P_{k-j}, written as sum_j feedback_j * t^j.
    """

    name: str
    summary: str
    params: tuple[ParamSpec, ...]
    denominator: str
    numerator: str
    stated: str | None
    feedback: str
    canonical: str | None = None
    notes: tuple[str, ...] = ()


def _resolve_params(spec: FamilySpec, parameters: Mapping[str, object] | None) -> dict:
    given = dict(parameters or {})
    resolved: dict[str, object] = {}
    for p in spec.params:
        value = given.pop(p.name, p.default)
        where = f"{spec.name}: parameter {p.name}"
        if isinstance(p.default, int):
            if isinstance(value, bool) or not isinstance(value, int):
                raise BadParameter(f"{where} must be an integer")
            if p.minimum is not None and value < p.minimum:
                raise BadParameter(f"{where} must be >= {p.minimum}")
            if p.maximum is not None and value > p.maximum:
                raise BadParameter(f"{where} must be <= {p.maximum}")
        else:
            if isinstance(value, int) and not isinstance(value, bool):
                value = Polynomial.constant(value)
            if not isinstance(value, Polynomial):
                raise BadParameter(f"{where} must be a polynomial")
            if value.mentions(RESERVED_VARIABLE):
                raise BadParameter(f"{where} must not mention the series variable")
        resolved[p.name] = value
    if given:
        extra = ", ".join(sorted(given))
        raise BadParameter(f"{spec.name}: unknown parameter(s): {extra}")
    return resolved


# -- the catalog -------------------------------------------------------------

_M = ParamSpec("m", 2, minimum=2, maximum=MAX_EXPONENT)  # t-degree of the denominator
_A = ParamSpec("A", Polynomial.zero())  # numerator coefficient of t
_P = ParamSpec("p", 1)  # coefficient of x*t
_Q = ParamSpec("q", 1)  # coefficient of t^2

_NUMERATOR_T_NOTE = (
    "printed numerator 1 yields constant term 1, contradicting the "
    "stated initial value 0; canonical numerator is t"
)

# name, summary, params; then denominator, printed numerator, stated values and
# recursive formula, with the canonical numerator and notes by keyword
_CATALOG: dict[str, FamilySpec] = {spec.name: spec for spec in (
    FamilySpec("fibonacci", "Fibonacci polynomials, generated by t / (1 - x*t - t^2)", (),
               "1 - x*t - t^2", "t", "0, 1", "x*t + t^2"),
    FamilySpec("catalan", "Catalan polynomials, generated by 1 / (1 - t + x*t^2)", (),
               "1 - t + x*t^2", "1", "1, 1", "t - x*t^2"),
    FamilySpec("gen_fibonacci", "generalized Fibonacci polynomials, t / (1 - x*t - t^m)",
               (_M,), "1 - x*t - t^{m}", "t", None, "x*t + t^{m}"),
    FamilySpec("jacobsthal", "Jacobsthal polynomials, t / (1 - t - x*t^2)", (),
               "1 - t - x*t^2", "t", "0, 1, 1", "t + x*t^2",
               notes=("table states J_1 = J_2 = 1; the expansion starts at k = 0 "
                      "with value 0, so the stated values are recorded as (0, 1, 1)",)),
    FamilySpec("horadam_first",
               "Horadam polynomials of the first kind, 1 / (1 - p*x*t - q*t^2)", (_P, _Q),
               "1 - {p}*x*t - {q}*t^2", "1", "0, 1", "{p}*x*t + {q}*t^2",
               canonical="t", notes=(_NUMERATOR_T_NOTE,)),
    FamilySpec("horadam_second", "Horadam polynomials of the second kind, "
               "(1 + q*t^2) / (1 - p*x*t - q*t^2)", (_P, _Q),
               "1 - {p}*x*t - {q}*t^2", "1 + {q}*t^2", "2, x", "{p}*x*t + {q}*t^2",
               notes=("printed numerator 1+q*t^2 yields constant term 1, not the "
                      "stated 2 (and p*x at k = 1); no canonical fixup is applied, "
                      "the audit reports the discrepancy",)),
    FamilySpec("pell", "Pell polynomials, t / (1 - 2*x*t - t^2)", (),
               "1 - 2*x*t - t^2", "1", "0, 1", "2*x*t + t^2",
               canonical="t", notes=(_NUMERATOR_T_NOTE,)),
    FamilySpec("pell_lucas", "Pell-Lucas polynomials, (2 - 2*x*t) / (1 - 2*x*t - t^2)", (),
               "1 - 2*x*t - t^2", "2*x + 2*t", "2, 2*x", "2*x*t + t^2",
               canonical="2 - 2*x*t",
               notes=("printed numerator 2x+2t yields constant term 2x, not the "
                      "stated 2; canonical numerator 2-2xt reproduces (2, 2x)",)),
    FamilySpec("gen_lucas", "generalized Lucas polynomials, (2 - x*t) / (1 - x*t - t^m)",
               (_M,), "1 - x*t - t^{m}", "2 - x*t", None, "x*t + t^{m}"),
    FamilySpec("gen_catalan",
               "generalized Catalan polynomials, (1 + A*t) / (1 - m*t + x*t^m)", (_M, _A),
               "1 - {m}*t + x*t^{m}", "1 + {A}*t", "1, {A} + {m}", "{m}*t - x*t^{m}"),
    FamilySpec("gen_two_var_fibonacci", "two-variable Fibonacci polynomials, "
               "(1 + A*t) / (1 - x^a*t - y^b*t^(b+c))",
               (ParamSpec("a", 1, minimum=1, maximum=MAX_EXPONENT),  # exponent of x
                ParamSpec("b", 1, minimum=1, maximum=MAX_EXPONENT),  # exponent of y
                ParamSpec("c", 1, minimum=1, maximum=MAX_EXPONENT),  # t-degree offset
                _A),
               "1 - x^{a}*t - y^{b}*t^{b}*t^{c}", "1 + {A}*t", "1, {A} + x^{a}",
               "x^{a}*t + y^{b}*t^{b}*t^{c}"),
)}


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


def _param_text(spec: FamilySpec, name: str, value: int | Polynomial) -> str:
    """A parameter as row text: an int's digits, a polynomial's text in parentheses."""
    try:
        return f"({format_poly(value)})" if isinstance(value, Polynomial) else str(value)
    except (TooManyDigits, ValueError):  # past the interpreter's digit limit
        raise TooManyDigits(f"{spec.name}: parameter {name}") from None


def build_parts(
    name: str, parameters: Mapping[str, object] | None = None
) -> tuple[FamilyParts, dict]:
    """Instantiated components plus the fully-resolved parameter map."""
    spec = get_family(name)
    resolved = _resolve_params(spec, parameters)
    texts = {key: _param_text(spec, key, value) for key, value in resolved.items()}

    def read(template: str) -> tuple[Polynomial, ...]:
        return split_in_t(parse_poly(template.format_map(texts)))

    printed = read(spec.numerator)
    # the stated values stay a list: read as one polynomial in t, a trailing
    # zero value would be trimmed and its check lost
    stated = None if spec.stated is None else tuple(
        parse_poly(value.format_map(texts)) for value in spec.stated.split(",")
    )
    parts = FamilyParts(
        numerator_printed=printed,
        denominator=read(spec.denominator),
        stated_initial_values=stated,
        expected_feedback=read(spec.feedback)[1:],
        numerator_canonical=printed if spec.canonical is None else read(spec.canonical),
        notes=spec.notes,
    )
    return parts, resolved


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
