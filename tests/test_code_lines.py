"""The line count of ``tools/code_lines.py``, on inline sources."""

import sys
import textwrap
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import code_lines  # noqa: E402


def count(source: str) -> int:
    return code_lines.code_lines(textwrap.dedent(source))


@pytest.mark.parametrize("source, expected", [
    ('def f(): """doc"""\n', 1),
    ('class K: """k"""\n', 1),
    ('def f(x):\n    """Doc."""; return x\n', 2),
    ('"""Module."""\n'
     'def f(): """doc"""\n'
     'class K: """k"""\n'
     'def g(x):\n'
     '    """Doc."""; return x\n', 4),
], ids=["def", "class", "statement-after", "all-four"])
def test_a_line_that_shares_a_docstring_with_code_counts(source, expected):
    assert count(source) == expected


def test_docstrings_alone_on_their_lines_do_not_count():
    assert count('''
        """Module
        text."""

        class K:
            """A class."""

            def f(self):
                (
                    """A parenthesized docstring,
                    é over two lines."""
                )
                return 1  # a comment
    ''') == 3


def test_a_string_that_is_not_a_docstring_counts():
    assert count('''
        def f():
            x = 1
            """not the first statement"""
            return x
    ''') == 4
