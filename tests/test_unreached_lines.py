"""tools/unreached_lines.py, the listing of package lines no command runs."""

import inspect
import os
import subprocess
import sys

import chromafl.harness as H
import chromafl.parallel as P
import chromafl.tensor as T

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "unreached_lines.py")
TINY = os.path.join(os.path.dirname(__file__), "golden", "tiny.json")


def _tool(*args):
    return subprocess.run([sys.executable, TOOL, *map(str, args)],
                          capture_output=True, text=True, timeout=600)


def _lines(fn) -> tuple[str, range]:
    """The module name and line span of a function's source."""
    source, first = inspect.getsourcelines(fn)
    return fn.__module__.rsplit(".", 1)[1], range(first, first + len(source))


def _names(listing: list[tuple[str, int, str]], fn) -> bool:
    module, span = _lines(fn)
    return any(m == module and n in span for m, n, _ in listing)


def test_lists_the_lines_no_command_runs_and_no_raise(tmp_path):
    done = _tool(tmp_path / "out", "--config", TINY)
    assert done.returncode == 0, done.stderr
    listing = []
    for line in done.stdout.splitlines():
        module, number, source = line.split(":", 2)
        listing.append((module, int(number), source.strip()))
    # global_avg_pool (criterion 1 is its only caller) and the forked
    # worker's side of the map
    assert _names(listing, T.global_avg_pool)
    assert _names(listing, P._serve)
    assert not _names(listing, H.cmd_baseline)
    assert not any(source.startswith("raise") for _, _, source in listing)


def test_a_failing_command_is_named_and_nothing_is_listed(tmp_path):
    done = _tool(tmp_path / "out", "--limit", "0")
    assert done.returncode == 1
    assert done.stdout == ""
    assert "unreached_lines: baseline exited with 2" in done.stderr
