"""Exception types shared across the package.

Every error raised on a documented failure path is a subclass of
:class:`RatGenError`, so callers (notably the CLI) can map any input
problem to a single diagnostic path.
"""

import sys


class RatGenError(Exception):
    """Base class for all errors raised by ratgen."""


class InvalidVariable(RatGenError, ValueError):
    """Variable name is malformed, or the reserved series variable is used
    where only coefficient variables belong."""


class MissingVariable(RatGenError):
    """An evaluation assignment does not cover every variable present."""


class OrderMismatch(RatGenError):
    """Two series prefixes with different truncation orders were combined."""


class BadConstantTerm(RatGenError):
    """A denominator whose constant term is not exactly 1 was supplied."""


class NegativeOrder(RatGenError):
    """A negative truncation order was requested."""


class EmptySeries(RatGenError, ValueError):
    """A series given with no coefficients, not even the one of order 0."""


class NonIntegerOrder(RatGenError, TypeError):
    """A truncation order that is not an integer."""


class BadPower(RatGenError, ValueError):
    """A power h of B^h that is not a positive integer, a negative ``**``
    exponent, or a negative exponent in a monomial given to a ``Polynomial``
    constructor."""


class PowerNotOne(RatGenError):
    """An operation that requires denominator power 1 got a higher power."""


class NonIntegerExponent(RatGenError, TypeError):
    """An exponent given to a ``Polynomial`` constructor that is not an ``int``."""


class NonIntegerValue(RatGenError, TypeError):
    """A coefficient, or a value to evaluate at, that is not an integer."""


class NotAPolynomial(RatGenError, AttributeError):
    """A series coefficient that is not a ``Polynomial``."""


class NotAnExpression(RatGenError, TypeError):
    """Expression text that is not a ``str``."""


class TooManyDigits(RatGenError):
    """An integer past the interpreter's limit on decimal conversion."""

    def __init__(self, what: str):
        limit = sys.get_int_max_str_digits()
        super().__init__(f"{what} has more than {limit} decimal digits")


class DegreeTooLarge(RatGenError):
    """A result whose total degree may pass ``poly.MAX_DEGREE``."""


class TooManyVariables(RatGenError):
    """More distinct variable names than ``poly.MAX_VARIABLES`` in one process."""


class UnknownFamily(RatGenError):
    """A family name that is not in the catalog."""


class BadParameter(RatGenError):
    """A family parameter is missing, of the wrong type, or out of range."""


class ParseError(RatGenError):
    """Syntax error in an input expression.

    Attributes:
        position: 0-based character offset of the offending token.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NegativeExponent(ParseError):
    """An exponent literal preceded by a minus sign."""


class ExponentTooLarge(ParseError):
    """An exponent literal beyond the parser's bound."""
