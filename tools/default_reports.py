"""Run every chromafl command into one directory and list the reports' digests.

Checking that a change moves no report byte means running all eight
commands on two checkouts and comparing what they wrote.  :func:`run` runs
each command of ``chromafl.cli.COMMANDS`` (``baseline``, ``fl``,
``ablation``, ``compare``, ``transfer``, ``robust``, ``gen-data`` and
``inspect``) from this checkout's ``src``, in this process through
``cli.main`` with ``--out OUT_DIR`` and any extra arguments, and the tool
then prints the :mod:`report_digests` listing of ``OUT_DIR``::

    python3 tools/default_reports.py OUT_DIR [ARG ...]

so one ``diff`` of two runs' output is the whole check.  On a config whose
``dataset.kind`` is ``cifar10``, ``gen-data`` (which writes the synthetic
shapes set only, and exits 2 there) is skipped.  ``CHROMAFL_THREADS``
is set to 1 unless it is already set.  If a command fails, the tool names it
on stderr and exits with 1, printing no listing.
"""

from __future__ import annotations

import contextlib
import os
import sys

from report_digests import digests

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _reads_cifar(extra: list[str]) -> bool:
    """Whether the config that ``extra`` names reads CIFAR-10; asked only
    after the commands before ``gen-data`` ran, so ``extra`` parses."""
    from chromafl import cli, config
    path = cli.build_parser().parse_args(["gen-data", *extra]).config
    return config.load_config(path).dataset.kind == config.CIFAR10


def run(out: str, extra: list[str]) -> tuple[str, int] | None:
    """Run each ``cli.COMMANDS`` entry with ``--out out`` and ``extra``,
    stdout discarded, but ``gen-data`` on a CIFAR-10 config; the first
    failing ``(command, exit code)``, or None.
    ``chromafl`` is imported here, not when this module loads, so a caller
    can start a trace before it."""
    os.environ.setdefault("CHROMAFL_THREADS", "1")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from chromafl import cli
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        for command in cli.COMMANDS:
            if command == "gen-data" and _reads_cifar(extra):
                continue  # gen-data writes shapes only, and exits 2 on CIFAR-10
            try:
                code = cli.main([command, "--out", out, *extra])
            except SystemExit as e:  # argparse rejected the arguments
                code = e.code
            if code:
                return command, code
    return None


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: default_reports.py OUT_DIR [ARG ...]", file=sys.stderr)
        return 2
    failed = run(argv[0], argv[1:])
    if failed:
        print("default_reports: {} exited with {}".format(*failed), file=sys.stderr)
        return 1
    for rel, digest in digests(argv[0]):
        print(f"{digest}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
