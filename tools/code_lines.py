"""Count the code lines of the chromafl package.

A code line is a physical line that holds at least one token other than a
comment, a line break or an indent, and that token is not part of a
docstring (the leading string of a module, class or function body).  A
statement that spans several lines counts each line it spans::

    python3 tools/code_lines.py [FILE ...]

With no arguments it counts ``src/chromafl/*.py`` of this checkout and
prints one ``<count> <module>`` line per file, then ``<count> total``.
"""

from __future__ import annotations

import ast
import glob
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstrings(source: str) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) token positions of every docstring in ``source``."""
    spans = []
    for node in ast.walk(ast.parse(source)):
        first = node.body[0] if isinstance(node, _BODIES) and node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            spans.append(((first.lineno, first.col_offset),
                          (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    docs = _docstrings(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or any(a <= tok.start and tok.end <= b for a, b in docs):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(paths: list[str]) -> int:
    paths = paths or sorted(glob.glob(os.path.join(ROOT, "src", "chromafl", "*.py")))
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            n = code_lines(fh.read())
        total += n
        print(f"{n:6d} {os.path.basename(path)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
