"""tools/code_lines.py, the code-line counter of the package sources."""

import os
import subprocess
import sys

import code_lines

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "code_lines.py")


SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment


# a comment line
def f(a,
      b):
    """Function docstring."""
    text = """not a docstring:
    a string that spans two lines"""
    return os.path.join(a,
                        b, text)


class K:
    \'\'\'Class docstring.\'\'\'
    x = 1
'''


def test_counts_code_lines_without_docstrings_comments_or_blanks():
    # import, def (2 lines), the string assignment (2), return (2), class, x
    assert code_lines.code_lines(SNIPPET) == 9


def test_prints_each_module_and_the_total(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET, encoding="utf-8")
    out = subprocess.run([sys.executable, TOOL, str(path), str(path)], check=True,
                         capture_output=True, text=True).stdout
    assert out.split("\n") == ["     9 snippet.py", "     9 snippet.py", "    18 total", ""]
