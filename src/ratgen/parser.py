"""Expression front end: text -> Polynomial -> canonical text.

Grammar (whitespace insignificant, multiplication always explicit):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | base ('^' nonneg-int)?
    base   := integer | identifier | '(' expr ')'

Exponentiation binds tighter than unary minus, so ``-x^2`` is ``-(x^2)``;
this is what the canonical formatter relies on when it folds minus signs
into term separators.  Parentheses and unary minus signs nest at most
``MAX_NESTING`` levels deep, and exponents are at most ``MAX_EXPONENT``.
Identifiers start with a letter; ``t`` is the series variable and is only
meaningful to :func:`split_in_t`.
"""

from __future__ import annotations

import threading
from functools import lru_cache, partial, reduce
from itertools import repeat
from operator import add
from typing import Iterator, Sequence

from .errors import ExponentTooLarge, NegativeExponent, ParseError, TooManyDigits
from .poly import RESERVED_VARIABLE, Polynomial

MAX_EXPONENT = 1 << 16
MAX_NESTING = 100  # each '(' and each unary '-' opens one level

_OPERATORS = "+-*^()"


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind  # "int", "name", one of +-*^(), or "end"
        self.text = text
        self.pos = pos


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() and ch.isascii():  # int() reads other digits too; 0-9 only
            j = i
            while j < n and src[j].isdigit() and src[j].isascii():
                j += 1
            tokens.append(_Token("int", src[i:j], i))
            i = j
        elif ch.isalpha() and ch.isascii():
            j = i
            while j < n and (src[j].isascii() and (src[j].isalnum() or src[j] == "_")):
                j += 1
            tokens.append(_Token("name", src[i:j], i))
            i = j
        elif ch in _OPERATORS:
            tokens.append(_Token(ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def integer(self) -> int:
        """Consume an integer literal and return its value."""
        tok = self.advance()
        try:
            return int(tok.text)
        except ValueError:  # past the interpreter's digit limit
            raise ParseError(
                f"integer literal of {len(tok.text)} digits is too long", tok.pos
            ) from None

    def nest(self) -> None:
        """Consume a '(' or a unary '-', which opens one nesting level."""
        tok = self.advance()
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok.pos)

    def fail(self, expected: str) -> ParseError:
        tok = self.current
        got = "end of input" if tok.kind == "end" else repr(tok.text)
        return ParseError(f"expected {expected}, got {got}", tok.pos)

    def parse_expr(self) -> Polynomial:
        value = self.parse_term()
        while self.current.kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self) -> Polynomial:
        value = self.parse_factor()
        while self.current.kind == "*":
            self.advance()
            value = value * self.parse_factor()
        return value

    def parse_factor(self) -> Polynomial:
        if self.current.kind == "-":
            self.nest()
            value = -self.parse_factor()
            self.depth -= 1
            return value
        value = self.parse_base()
        if self.current.kind == "^":
            self.advance()
            tok = self.current
            if tok.kind == "-":
                raise NegativeExponent("exponent must be nonnegative", tok.pos)
            if tok.kind != "int":
                raise self.fail("a nonnegative integer exponent")
            exponent = self.integer()
            if exponent > MAX_EXPONENT:
                raise ExponentTooLarge(
                    f"exponent {exponent} exceeds bound {MAX_EXPONENT}",
                    tok.pos,
                )
            value = value**exponent
        return value

    def parse_base(self) -> Polynomial:
        tok = self.current
        if tok.kind == "int":
            return Polynomial.constant(self.integer())
        if tok.kind == "name":
            self.advance()
            return Polynomial.symbol(tok.text)
        if tok.kind == "(":
            self.nest()
            value = self.parse_expr()
            if self.current.kind != ")":
                raise self.fail("')'")
            self.advance()
            self.depth -= 1
            return value
        raise self.fail("an integer, identifier, or '('")


def parse_poly(src: str) -> Polynomial:
    """Parse an expression over the coefficient variables and t."""
    parser = _Parser(_tokenize(src))
    value = parser.parse_expr()
    if parser.current.kind != "end":
        raise parser.fail("'+', '-', '*', or end of input")
    return value


def split_in_t(p: Polynomial) -> tuple[Polynomial, ...]:
    """Decompose a polynomial-in-t into its t-coefficient polynomials.

    Returns A_0..A_m with m the degree in t; no returned entry mentions t.
    The zero polynomial yields the single-entry sequence (0,).
    """
    return p.split(RESERVED_VARIABLE)


def join_in_t(seq: Sequence[Polynomial]) -> Polynomial:
    """Recombine t-coefficient polynomials as sum A_j * t^j."""
    return Polynomial.join(RESERVED_VARIABLE, seq)


# Texts "*x^e" of one variable's power, shared by every formatted polynomial;
# a fixed bound, since exponents go up to MAX_DEGREE.
POWER_TEXT_CACHE_SIZE = 1 << 14


@lru_cache(maxsize=POWER_TEXT_CACHE_SIZE)
def _power_text(name: str, e: int) -> str:
    if e > 1:
        return f"*{name}^{e}"
    return f"*{name}" if e else ""


# _EXPONENT_TEXTS[name][e] is _power_text(name, e), for e from 0 up to the
# highest exponent of name formatted so far.  The lists hold at most
# EXPONENT_TEXT_TABLE_SIZE entries between them, a fixed total however many
# names there are; a column whose exponents would pass that reads its texts
# from _power_text instead.
EXPONENT_TEXT_TABLE_SIZE = 1 << 14
_EXPONENT_TEXTS: dict[str, list[str]] = {}
_EXPONENT_TEXTS_LOCK = threading.Lock()


def _exponent_texts(name: str, top: int) -> list[str] | None:
    """The texts of name^0..name^top at least, or None if they do not fit."""
    texts = _EXPONENT_TEXTS.get(name)
    if texts is not None and top < len(texts):
        return texts
    with _EXPONENT_TEXTS_LOCK:
        texts = _EXPONENT_TEXTS.setdefault(name, [])
        start = len(texts)
        if top >= start:
            held = sum(map(len, _EXPONENT_TEXTS.values()))
            if held + top + 1 - start > EXPONENT_TEXT_TABLE_SIZE:
                return None
            texts.extend(map(_power_text.__wrapped__, repeat(name), range(start, top + 1)))
    return texts


def _column_texts(name: str, column: Sequence[int]) -> Iterator[str]:
    """The text of name^e for each exponent e of a column, in order."""
    texts = _exponent_texts(name, max(column))
    if texts is None:
        return map(_power_text, repeat(name), column)
    return map(texts.__getitem__, column)


def format_poly(p: Polynomial) -> str:
    """Canonical text for a polynomial; parse_poly round-trips it exactly.

    Terms appear in descending graded-lex order with variables alphabetical,
    '*' is always explicit, '^' only for exponents >= 2, unit coefficients
    are elided except on the constant term, and minus signs are folded into
    the separators.
    """
    names, coeffs, columns = p.graded_columns()
    if not coeffs:
        return "0"
    # each term's monomial text, "*x^2*y" or "" for the constant term
    monos = reduce(
        partial(map, add), map(_column_texts, names, columns)
    ) if names else [""]  # no names: only the constant term
    bodies: list[str] = []
    append = bodies.append
    try:
        for magnitude, mono in zip(map(abs, coeffs), monos):
            if magnitude == 1 and mono:
                append(mono[1:])
            else:
                append(f"{magnitude}{mono}")
    except ValueError:  # past the interpreter's digit limit
        raise TooManyDigits("a coefficient") from None
    if min(coeffs) > 0:
        return " + ".join(bodies)
    signs = [" - " if c < 0 else " + " for c in coeffs]
    signs[0] = "-" if coeffs[0] < 0 else ""
    return "".join(map(add, signs, bodies))
