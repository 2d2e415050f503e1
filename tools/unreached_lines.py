"""List the lines of the chromafl package that no command runs.

Deleting code that no command can reach needs a listing of that code.
This runs every command of ``chromafl.cli.COMMANDS`` in this process, as
``default_reports.run`` does (through ``cli.main`` with ``--out OUT_DIR``
and any extra arguments), under a ``sys.settrace`` line trace started
before the first ``chromafl`` import::

    python3 tools/unreached_lines.py OUT_DIR [ARG ...]

and prints ``<module>:<line>: <source>`` for every executable line of
``src/chromafl`` that ran in no command, in module and line order.  A line
inside a ``raise`` statement is left out: an argument check is reached by
the tests, not by a command.  ``CHROMAFL_WORKERS`` is set to 1, so no map
forks and every line runs in this process, and ``CHROMAFL_THREADS`` to 1
unless it is already set.  If a command fails, the tool names it on stderr
and exits with 1, printing no listing.
"""

from __future__ import annotations

import ast
import glob
import os
import sys
import types

from default_reports import SRC, run

PACKAGE = os.path.join(SRC, "chromafl")


def _code_lines(code) -> set[int]:
    """The lines of ``code`` and its nested functions that hold instructions."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _raise_lines(tree: ast.AST) -> set[int]:
    return {line for node in ast.walk(tree) if isinstance(node, ast.Raise)
            for line in range(node.lineno, node.end_lineno + 1)}


def unreached(ran: set[tuple[str, int]]) -> list[str]:
    """``<module>:<line>: <source>`` of every executable package line not
    in ``ran``, a set of (filename, line) pairs, raises left out."""
    out = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        lines = source.splitlines()
        wanted = _code_lines(compile(source, path, "exec")) - _raise_lines(ast.parse(source))
        module = os.path.splitext(os.path.basename(path))[0]
        out += [f"{module}:{n}: {lines[n - 1].strip()}"
                for n in sorted(wanted) if (path, n) not in ran]
    return out


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: unreached_lines.py OUT_DIR [ARG ...]", file=sys.stderr)
        return 2
    os.environ["CHROMAFL_WORKERS"] = "1"
    ran: set[tuple[str, int]] = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        if os.path.dirname(frame.f_code.co_filename) != PACKAGE:
            return None
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    sys.settrace(trace_calls)
    try:
        failed = run(argv[0], argv[1:])
    finally:
        sys.settrace(None)
    if failed:
        print("unreached_lines: {} exited with {}".format(*failed), file=sys.stderr)
        return 1
    for line in unreached(ran):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
