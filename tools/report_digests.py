"""Print a SHA-256 digest of every file under a report directory.

Two runs of the same commands at the same config and seed write the same
bytes, except for the ``# timestamp:`` line that heads each report CSV.  So a
``.csv`` is hashed without that line, and every other file (PGM, PPM,
``.cdwt``, ``labels.csv``'s index) as it is::

    python3 tools/report_digests.py OUT_DIR

prints one ``<sha256>  <relpath>`` line per file, sorted by the path
relative to ``OUT_DIR`` (with ``/`` separators).  Comparing two runs is then
one ``diff`` of two such listings.
"""

from __future__ import annotations

import hashlib
import os
import sys

TIMESTAMP = b"# timestamp:"


def file_digest(path: str) -> str:
    """SHA-256 of the file's bytes; a ``.csv`` loses a leading timestamp line."""
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith(".csv") and data.startswith(TIMESTAMP):
        data = data[data.find(b"\n") + 1:] if b"\n" in data else b""
    return hashlib.sha256(data).hexdigest()


def digests(root: str) -> list[tuple[str, str]]:
    """(relpath, digest) of every file under ``root``, sorted by relpath."""
    found = []
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            found.append((rel, file_digest(path)))
    return sorted(found)


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not os.path.isdir(argv[0]):
        print("usage: report_digests.py OUT_DIR", file=sys.stderr)
        return 2
    for rel, digest in digests(argv[0]):
        print(f"{digest}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
