"""Expression front end: text -> Polynomial -> canonical text.

Tokens are integer literals (runs of ASCII digits), names, and the six
operators ``+ - * ^ ( )``.  A name is an ASCII letter followed by ASCII
letters, digits and underscores: ``ratgen.poly``'s ``_NAME_RE``, the rule it
checks when it first interns a name.  Whitespace, every character
``str.isspace()`` accepts, may separate tokens; any other character is a
:class:`ParseError` at its position.

Grammar (multiplication always explicit):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | base ('^' nonneg-int)?
    base   := integer | identifier | '(' expr ')'

Exponentiation binds tighter than unary minus, so ``-x^2`` is ``-(x^2)``;
this is what the canonical formatter relies on when it folds minus signs
into term separators.  Parentheses and unary minus signs nest at most
``MAX_NESTING`` levels deep, and exponents are at most ``MAX_EXPONENT``.
The name ``t`` is the series variable and is only meaningful to
:func:`split_in_t`.
"""

from __future__ import annotations

import re
import threading
from functools import partial, reduce
from itertools import repeat
from operator import add
from typing import Iterator, Sequence

from .errors import (ExponentTooLarge, NegativeExponent, NotAnExpression, ParseError,
                     TooManyDigits)
from .poly import _NAME_RE, RESERVED_VARIABLE, Polynomial, RawTerms, add_product_into

MAX_EXPONENT = 1 << 16
MAX_NESTING = 100  # each '(' and each unary '-' opens one level
_PLUS, _MINUS = Polynomial.one(), Polynomial.constant(-1)  # the signs of a sum's terms

# One token after any whitespace, in a group named for its kind: ASCII
# digits, a name (poly's _NAME_RE), an operator, or any other character,
# which is an error.  \s matches exactly what str.isspace() accepts.
_SCAN = re.compile(
    rf"\s*(?:(?P<int>[0-9]+)|(?P<name>{_NAME_RE.pattern})|(?P<op>[-+*^()])|(?P<bad>\S))"
).finditer


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """The (kind, text, position) tokens of src, ending with ("end", "", len(src)).

    A token's kind is "int", "name", or the operator character itself.
    """
    tokens = []
    # the pattern matches wherever a non-space character is left, so the
    # matches abut and only trailing whitespace goes unmatched
    for found in _SCAN(src):
        kind = found.lastgroup
        text, pos = found[kind], found.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r}", pos)
        tokens.append((text if kind == "op" else kind, text, pos))
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    @property
    def kind(self) -> str:
        return self.tokens[self.pos][0]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def integer(self) -> int:
        """Consume an integer literal and return its value."""
        _, text, pos = self.advance()
        try:
            return int(text)
        except ValueError:  # past the interpreter's digit limit
            raise ParseError(
                f"integer literal of {len(text)} digits is too long", pos
            ) from None

    def nest(self) -> None:
        """Consume a '(' or a unary '-', which opens one nesting level."""
        pos = self.advance()[2]
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos)

    def fail(self, expected: str) -> ParseError:
        kind, text, pos = self.tokens[self.pos]
        got = "end of input" if kind == "end" else repr(text)
        return ParseError(f"expected {expected}, got {got}", pos)

    def parse_expr(self) -> Polynomial:
        # the terms are summed into one term map, so a long sum costs no
        # copy of the partial sum per term
        acc: RawTerms = {}
        sign = _PLUS
        while True:
            add_product_into(acc, self.parse_term(), sign)
            if self.kind not in ("+", "-"):
                return Polynomial.from_raw(acc)
            sign = _PLUS if self.advance()[0] == "+" else _MINUS

    def parse_term(self) -> Polynomial:
        value = self.parse_factor()
        while self.kind == "*":
            self.advance()
            value = value * self.parse_factor()
        return value

    def parse_factor(self) -> Polynomial:
        if self.kind == "-":
            self.nest()
            value = -self.parse_factor()
            self.depth -= 1
            return value
        value = self.parse_base()
        if self.kind == "^":
            self.advance()
            kind, _, pos = self.tokens[self.pos]
            if kind == "-":
                raise NegativeExponent("exponent must be nonnegative", pos)
            if kind != "int":
                raise self.fail("a nonnegative integer exponent")
            exponent = self.integer()
            if exponent > MAX_EXPONENT:
                raise ExponentTooLarge(
                    f"exponent {exponent} exceeds bound {MAX_EXPONENT}",
                    pos,
                )
            value = value**exponent
        return value

    def parse_base(self) -> Polynomial:
        kind = self.kind
        if kind == "int":
            return Polynomial.constant(self.integer())
        if kind == "name":
            return Polynomial.symbol(self.advance()[1])
        if kind == "(":
            self.nest()
            value = self.parse_expr()
            if self.kind != ")":
                raise self.fail("')'")
            self.advance()
            self.depth -= 1
            return value
        raise self.fail("an integer, identifier, or '('")


def parse_poly(src: str) -> Polynomial:
    """Parse an expression over the coefficient variables and t."""
    if not isinstance(src, str):
        raise NotAnExpression(f"expression must be a str, got {src!r}")
    parser = _Parser(_tokenize(src))
    value = parser.parse_expr()
    if parser.kind != "end":
        raise parser.fail("'+', '-', '*', or end of input")
    return value


def split_in_t(p: Polynomial) -> tuple[Polynomial, ...]:
    """Decompose a polynomial-in-t into its t-coefficient polynomials.

    Returns A_0..A_m with m the degree in t; no returned entry mentions t.
    The zero polynomial yields the single-entry sequence (0,).
    """
    return p.split(RESERVED_VARIABLE)


def _power_text(name: str, e: int) -> str:
    """The text "*x^e" of one variable's power; "*x" for e = 1, "" for e = 0."""
    if e > 1:
        return f"*{name}^{e}"
    return f"*{name}" if e else ""


# _EXPONENT_TEXTS[name][e] is _power_text(name, e), for e from 0 up to the
# highest exponent of name formatted so far, shared by every formatted
# polynomial.  The lists hold at most EXPONENT_TEXT_TABLE_SIZE entries
# between them, a fixed total however many names there are, since exponents
# go up to MAX_DEGREE; a column whose exponents would pass that formats its
# texts uncached instead.
EXPONENT_TEXT_TABLE_SIZE = 1 << 14
_EXPONENT_TEXTS: dict[str, list[str]] = {}
_EXPONENT_TEXTS_LOCK = threading.Lock()


def _column_texts(name: str, column: Sequence[int]) -> Iterator[str]:
    """The text of name^e for each exponent e of a column, in order."""
    top = max(column)
    texts = _EXPONENT_TEXTS.get(name)
    if texts is None or top >= len(texts):
        with _EXPONENT_TEXTS_LOCK:
            texts = _EXPONENT_TEXTS.setdefault(name, [])
            start = len(texts)
            if top >= start:
                held = sum(map(len, _EXPONENT_TEXTS.values()))
                if held + top + 1 - start > EXPONENT_TEXT_TABLE_SIZE:
                    return map(_power_text, repeat(name), column)
                texts.extend(map(_power_text, repeat(name), range(start, top + 1)))
    return map(texts.__getitem__, column)


def format_poly(p: Polynomial) -> str:
    """Canonical text for a polynomial; parse_poly round-trips it exactly.

    Terms appear in descending graded-lex order with variables alphabetical,
    '*' is always explicit, '^' only for exponents >= 2, unit coefficients
    are elided except on the constant term, and minus signs are folded into
    the separators.  Each term is written once, as one string holding its
    separator, magnitude and monomial, and the first term's separator is
    fixed afterwards.
    """
    names, coeffs, columns = p.graded_columns()
    if not coeffs:
        return "0"
    # each term's monomial text, "*x^2*y" or "" for the constant term
    monos = reduce(
        partial(map, add), map(_column_texts, names, columns)
    ) if names else [""]  # no names: only the constant term
    # each term's whole text, separator first: " - 3*x^2*y" or " + y"
    texts: list[str] = []
    append = texts.append
    try:
        for c, mono in zip(coeffs, monos):
            if c > 0:
                append(f" + {mono[1:]}" if c == 1 and mono else f" + {c}{mono}")
            else:
                append(f" - {mono[1:]}" if c == -1 and mono else f" - {-c}{mono}")
    except ValueError:  # past the interpreter's digit limit
        raise TooManyDigits("a coefficient") from None
    texts[0] = ("-" if coeffs[0] < 0 else "") + texts[0][3:]
    return "".join(texts)
