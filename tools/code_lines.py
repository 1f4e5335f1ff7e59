"""Print the code lines of each ``src/ratgen`` module and their total.

A code line is a physical line that holds a token other than a comment,
a newline or indentation.  The docstrings of the module and of each class
and function are not code, but a line that holds another token beside one,
as ``def f(): 'doc'`` does, is.  Run from anywhere:

    python tools/code_lines.py [MODULE_DIR]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ratgen"
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}
Position = tuple[int, int]  # (row, column in characters), as tokenize gives it


def docstring_spans(source: str) -> dict[Position, Position]:
    """The start and end of every module, class and function docstring
    statement, as tokenize positions: start -> end."""
    lines = io.StringIO(source).readlines()

    def position(row: int, byte_col: int) -> Position:  # ast counts UTF-8 bytes
        return row, len(lines[row - 1].encode()[:byte_col].decode())

    spans: dict[Position, Position] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                doc = body[0]
                spans[position(doc.lineno, doc.col_offset)] = position(
                    doc.end_lineno, doc.end_col_offset)
    return spans


def code_lines(source: str) -> int:
    spans = docstring_spans(source)
    lines: set[int] = set()
    until = (0, 0)  # the end of the latest docstring begun
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        until = spans.get(tok.start, until)
        if tok.type not in _LAYOUT and tok.end > until:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else SRC
    total = 0
    for path in sorted(src.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:16} {count:5}")
    print(f"{'total':16} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
