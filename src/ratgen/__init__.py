"""Exact engine for rational generating functions of polynomial families.

Given f = A(x,..,t) / B(x,..,t)^h with B's constant term 1, this package
derives the linear recurrence the coefficient polynomials satisfy, expands
the family to any order in exact integer arithmetic, and cross-verifies the
expansion against independent brute-force series constructions.
"""

from .errors import (
    BadConstantTerm,
    BadParameter,
    BadPower,
    DegreeTooLarge,
    EmptySeries,
    ExponentTooLarge,
    InvalidVariable,
    MissingVariable,
    NegativeExponent,
    NegativeOrder,
    NonIntegerExponent,
    NonIntegerOrder,
    NonIntegerValue,
    NotAPolynomial,
    NotAnExpression,
    OrderMismatch,
    ParseError,
    PowerNotOne,
    RatGenError,
    TooManyDigits,
    TooManyVariables,
    UnknownFamily,
)
from .families import audit, instantiate, list_families
from .parser import format_poly, join_in_t, parse_poly, split_in_t
from .poly import Polynomial
from .recurrence import (
    RationalGF,
    Recurrence,
    convolve_numerator,
    derive_recurrence,
    expand_family,
    expand_inverse,
    identity_residual,
    iter_family,
    iter_values,
    raise_denominator,
    render_recurrence,
)
from .series import SeriesPrefix, cauchy_mul, geometric_inverse, multinomial_inverse

__version__ = "0.1.0"

__all__ = [
    "BadConstantTerm",
    "BadParameter",
    "BadPower",
    "DegreeTooLarge",
    "EmptySeries",
    "ExponentTooLarge",
    "InvalidVariable",
    "MissingVariable",
    "NegativeExponent",
    "NegativeOrder",
    "NonIntegerExponent",
    "NonIntegerOrder",
    "NonIntegerValue",
    "NotAPolynomial",
    "NotAnExpression",
    "OrderMismatch",
    "ParseError",
    "Polynomial",
    "PowerNotOne",
    "RatGenError",
    "RationalGF",
    "Recurrence",
    "SeriesPrefix",
    "TooManyDigits",
    "TooManyVariables",
    "UnknownFamily",
    "audit",
    "cauchy_mul",
    "convolve_numerator",
    "derive_recurrence",
    "expand_family",
    "expand_inverse",
    "format_poly",
    "geometric_inverse",
    "identity_residual",
    "instantiate",
    "iter_family",
    "iter_values",
    "join_in_t",
    "list_families",
    "multinomial_inverse",
    "parse_poly",
    "raise_denominator",
    "render_recurrence",
    "split_in_t",
]
