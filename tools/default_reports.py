"""Run every chromafl command into one directory and list the reports' digests.

Checking that a change moves no report byte means running all eight
commands on two checkouts and comparing what they wrote.  This runs
``baseline``, ``fl``, ``ablation``, ``compare``, ``transfer``, ``robust``,
``gen-data`` and ``inspect`` from this checkout's ``src``, each in a fresh
``python -m chromafl.cli`` process with ``--out OUT_DIR`` and any extra
arguments, then prints the :mod:`report_digests` listing of ``OUT_DIR``::

    python3 tools/default_reports.py OUT_DIR [ARG ...]

so one ``diff`` of two runs' output is the whole check.  ``CHROMAFL_THREADS``
is set to 1 unless it is already set.  If a command fails, the tool names it
on stderr and exits with 1, printing no listing.
"""

from __future__ import annotations

import os
import subprocess
import sys

from report_digests import digests

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# chromafl.cli.COMMANDS, spelled out so that unreached_lines can import this
# module before its trace starts without loading chromafl
COMMANDS = ("baseline", "fl", "ablation", "compare", "transfer", "robust",
            "gen-data", "inspect")


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: default_reports.py OUT_DIR [ARG ...]", file=sys.stderr)
        return 2
    out, extra = argv[0], argv[1:]
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    env.setdefault("CHROMAFL_THREADS", "1")
    for command in COMMANDS:
        done = subprocess.run([sys.executable, "-m", "chromafl.cli", command,
                               "--out", out, *extra], env=env, stdout=subprocess.DEVNULL)
        if done.returncode:
            print(f"default_reports: {command} exited with {done.returncode}",
                  file=sys.stderr)
            return 1
    for rel, digest in digests(out):
        print(f"{digest}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
